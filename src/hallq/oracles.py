"""Brute-force oracles of the Hom/Ext dimensions and of |Aut M|.

The oracles solve the intertwiner system of two matrix realizations:
over Q by fraction-free elimination, or over F_p, where the
automorphisms are also counted by sweeping the endomorphism space.
Tests check the closed forms of `quiver` (Euler form, the Hom table
under |Aut M|, |Aut M|(q)) against them.  Neither `import hallq` nor the
CLI imports this module; import it as `hallq.oracles`.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from .hall import (DEFAULT_BUDGET, Budget, BudgetError, FiniteFieldRep,
                   _nullspace_mod, _rank_mod, is_prime, realize)
from .quiver import CyclicQuiver, ModuleIso


def _int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free (Bareiss) rank of an integer matrix."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    prev = 1
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        piv = m[rank][c]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], m[rank])]
        prev = piv
        rank += 1
        if rank == len(m):
            break
    return rank


def _intertwiner_system(ra: FiniteFieldRep, rb: FiniteFieldRep) -> Tuple[List[List[int]], int]:
    """Linear system for graded maps f = (f_v: A_v -> B_v) commuting with
    the arrow actions: f_{v-1} a_v - b_v f_v = 0 for every v.

    Unknowns are the entries of all f_v, row-major, vertex-major.
    Returns (rows, number of unknowns).
    """
    n = ra.n
    da, db = ra.dims, rb.dims
    offsets = [0] * n
    off = 0
    for v in range(n):
        offsets[v] = off
        off += db[v] * da[v]
    ncols = off
    rows: List[List[int]] = []
    for v in range(n):
        w = (v - 1) % n
        av, bv = ra.maps[v], rb.maps[v]
        for r in range(db[w]):
            for c in range(da[v]):
                row = [0] * ncols
                for s in range(da[w]):
                    row[offsets[w] + r * da[w] + s] += av[s][c]
                for s in range(db[v]):
                    row[offsets[v] + s * da[v] + c] -= bv[r][s]
                if any(row):
                    rows.append(row)
    return rows, ncols


def hom_ext_oracle(q: CyclicQuiver, a: ModuleIso, b: ModuleIso,
                   p: Optional[int] = None) -> Tuple[int, int]:
    """(dim Hom(A,B), dim Ext^1(A,B)) by solving the intertwiner system.

    p = None ranks the integer system exactly; a prime ranks it mod p.
    Ext is the corank: cols - rows of the system equals the Euler form,
    so hom - ext = chi holds by construction and is cross-checked in
    tests, not assumed here.
    """
    ra = realize(q, a, p or 0)
    rb = realize(q, b, p or 0)
    rows, ncols = _intertwiner_system(ra, rb)
    nrows = sum(rb.dims[(v - 1) % q.n] * ra.dims[v] for v in range(q.n))
    rank = _rank_mod(rows, ncols, p) if p else _int_rank(rows)
    return ncols - rank, nrows - rank


def count_automorphisms(q: CyclicQuiver, m: ModuleIso, p: int,
                        budget: Budget = DEFAULT_BUDGET) -> int:
    """Exhaustive count of invertible self-intertwiners over F_p."""
    total = sum(p_.length for p_ in m)
    if total > budget.aut_total or p > budget.aut_prime:
        raise BudgetError(
            f"count_automorphisms budget is total<={budget.aut_total}, "
            f"p<={budget.aut_prime}; use aut_poly for larger inputs")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    rep = realize(q, m, p)
    rows, ncols = _intertwiner_system(rep, rep)
    basis = _nullspace_mod(rows, ncols, p)
    if p ** len(basis) > budget.aut_space:
        raise BudgetError(
            f"endomorphism space F_{p}^{len(basis)} too large to sweep; "
            "use aut_poly instead")
    dims = rep.dims
    shapes = []
    off = 0
    for v in range(rep.n):
        shapes.append((off, dims[v]))
        off += dims[v] * dims[v]
    count = 0
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        vec = [0] * ncols
        for c, bvec in zip(coeffs, basis):
            if c:
                for i, x in enumerate(bvec):
                    if x:
                        vec[i] = (vec[i] + c * x) % p
        ok = True
        for off, d in shapes:
            if d == 0:
                continue
            mat = [vec[off + r * d: off + (r + 1) * d] for r in range(d)]
            if _rank_mod(mat, d, p) != d:
                ok = False
                break
        if ok:
            count += 1
    return count
