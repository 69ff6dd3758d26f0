"""The Hall submodule census the slow way, the oracle of `submodule_census`.

Every tuple of subspaces, one per vertex, is tried; an arrow-invariant
tuple is a submodule, whose sub and quotient representations are built
by restricting and projecting the arrow maps and classified with
`iso_class_of`.
"""

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from hallq.hall import (FiniteFieldRep, Matrix, _sorted_census, _subspaces,
                        iso_class_of, realize)
from hallq.quiver import CyclicQuiver, ModuleIso


def _reduce_mod_subspace(vec: Sequence[int], basis: Matrix,
                         pivots: Tuple[int, ...], p: int
                         ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Write vec = sum coeffs_i basis_i + residue with residue zero on
    the pivot columns.  Membership in the span means residue == 0."""
    res = list(vec)
    coeffs = []
    for row, c in zip(basis, pivots):
        f = res[c] % p
        coeffs.append(f)
        if f:
            for j, x in enumerate(row):
                if x:
                    res[j] = (res[j] - f * x) % p
    return tuple(coeffs), tuple(v % p for v in res)


def _sub_quotient_reps(rep: FiniteFieldRep,
                       spaces: Sequence[Tuple[Matrix, Tuple[int, ...]]]
                       ) -> Optional[Tuple[FiniteFieldRep, FiniteFieldRep]]:
    """Restrict and project the arrow maps onto the chosen subspaces;
    None when some subspace is not arrow-invariant."""
    n, p = rep.n, rep.p
    sub_maps: List[Matrix] = []
    quo_maps: List[Matrix] = []
    nonpivots = []
    for v in range(n):
        _, piv = spaces[v]
        nonpivots.append([c for c in range(rep.dims[v]) if c not in piv])
    for v in range(n):
        w = (v - 1) % n
        basis_v, piv_v = spaces[v]
        basis_w, piv_w = spaces[w]
        amap = rep.maps[v]
        sub_rows = [[0] * len(basis_v) for _ in range(len(basis_w))]
        for j, bvec in enumerate(basis_v):
            img = [sum(amap[r][c] * bvec[c] for c in range(rep.dims[v])) % p
                   for r in range(rep.dims[w])]
            coeffs, res = _reduce_mod_subspace(img, basis_w, piv_w, p)
            if any(res):
                return None
            for i, x in enumerate(coeffs):
                sub_rows[i][j] = x
        quo_rows = [[0] * len(nonpivots[v]) for _ in range(len(nonpivots[w]))]
        for j, c0 in enumerate(nonpivots[v]):
            img = [amap[r][c0] % p for r in range(rep.dims[w])]
            _, res = _reduce_mod_subspace(img, basis_w, piv_w, p)
            for i, c1 in enumerate(nonpivots[w]):
                quo_rows[i][j] = res[c1]
        sub_maps.append(tuple(tuple(r) for r in sub_rows))
        quo_maps.append(tuple(tuple(r) for r in quo_rows))
    sub_dims = tuple(len(spaces[v][0]) for v in range(n))
    quo_dims = tuple(len(nonpivots[v]) for v in range(n))
    return (FiniteFieldRep(n, p, sub_dims, tuple(sub_maps)),
            FiniteFieldRep(n, p, quo_dims, tuple(quo_maps)))


def _submodule_census_reference(n: int, big: ModuleIso, p: int
                                ) -> Tuple[Tuple[ModuleIso, ModuleIso, int], ...]:
    """`submodule_census` over every arrow-invariant subspace tuple."""
    q = CyclicQuiver(n)
    rep = realize(q, big, p)
    tally: Dict[Tuple[ModuleIso, ModuleIso], int] = {}
    ranges = [range(d + 1) for d in rep.dims]
    for sub_dims in itertools.product(*ranges):
        pools = [_subspaces(rep.dims[v], sub_dims[v], p) for v in range(n)]
        for spaces in itertools.product(*pools):
            pair = _sub_quotient_reps(rep, spaces)
            if pair is None:
                continue
            key = (iso_class_of(pair[0]), iso_class_of(pair[1]))
            tally[key] = tally.get(key, 0) + 1
    return _sorted_census(tally)
