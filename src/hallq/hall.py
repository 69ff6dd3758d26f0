"""Finite-field counting.

Matrix realizations of modules, iso-type recovery, the submodule census
behind the counts F_{L,M}^N (submodules of N isomorphic to L with
quotient isomorphic to M), Newton interpolation of the counting
polynomials in q, and the check that integration intertwines the
counting product with the twisted torus product, both of its sides
summed by the torus's cyclotomic kernel.  The brute-force Hom/Ext and
automorphism oracles, and the matrix route (products and row reduction
over F_p) behind `iso_class_of`, live in `oracles`, off the CLI's import
path.

Matrices are tuples of row tuples over F_p; a realization stores, for
each vertex v, the action map V_v -> V_{v-1 mod n}, so the span of the
bottom k basis vectors of a uniserial chain is exactly its length-k
subobject.  Iso types of subs and quotients are recovered from the
numbers dim Hom(R(i,l), X), which determine multiplicities through a
finite difference in (socle, length).

For a submodule U of N and the arrow composite C = C_{j,m} from the top
vertex of R(j,m) to vertex j-1, those numbers depend on one vertex's
subspace each:

    dim Hom(R(j,m), U)   = dim(U_top ∩ ker C),
    dim Hom(R(j,m), N/U) = dim ker C + dim(im C ∩ U_{j-1}) - dim U_top.

So the census reads every sub and quotient type off per-subspace
signatures, with no linear algebra per submodule, and classifies each
tuple of signatures once for all primes.  C shifts each summand's basis
m steps toward its socle, so ker C and im C are coordinate subspaces,
with the same echelon bases at every prime: they are read off the
summands' positions once per module, and no composite is multiplied or
reduced.  The walk treats a subspace as the int mask of its projective
points: inclusion is an AND, a meet dimension is read off the popcount
of an AND (a k-space has (p^k - 1)/(p - 1) points), and the image of a
subspace under an arrow map is the OR of its points' images.  The
per-vertex tables behind the chain walk (the image of each subspace
under the arrow map, the subspaces landing inside a given one, and the
signatures) depend on that vertex's data alone and are shared by every
census in the process.

A semisimple module has zero arrow maps, so its census is counted, not
walked: the graded subspaces of dimension k number ∏_v [d_v choose k_v]_p.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from functools import lru_cache, reduce
from math import prod
from operator import mul, or_
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import BudgetError, Immutable, LaurentPoly, rf_eq
from .quiver import CyclicQuiver, DimVector, ModuleIso
from .torus import convolve, integrate, integrate_modules

Matrix = Tuple[Tuple[int, ...], ...]


class ConfigError(ValueError):
    """Invalid configuration; mapped to exit code 2 by the CLI."""


class InterpolationError(ValueError):
    """Interpolated polynomial failed the integrality or holdout check."""


class Budget(Immutable):
    """Caps on the Hall enumeration: total length |L| + |M| and prime."""

    __slots__ = ("hall_total", "hall_prime")

    def __init__(self, hall_total: int = 4, hall_prime: int = 5):
        object.__setattr__(self, "hall_total", hall_total)
        object.__setattr__(self, "hall_prime", hall_prime)

    def widened(self, total: int, prime: int) -> "Budget":
        return Budget(max(self.hall_total, total), max(self.hall_prime, prime))


DEFAULT_BUDGET = Budget()
# Interpolation campaigns need counts at primes up to 13; the totals cap
# stays in place.
CATALOG_BUDGET = Budget(hall_prime=13)

ENV_BUDGET = "HALLQ_BUDGET_OVERRIDE"


def budget_from_env(base: Budget = DEFAULT_BUDGET) -> Budget:
    """Apply the override variable, formatted as 'total,prime'."""
    raw = os.environ.get(ENV_BUDGET)
    if not raw:
        return base
    try:
        parts = [int(x) for x in raw.replace(" ", "").split(",")]
        if len(parts) == 1:
            return base.widened(base.hall_total, parts[0])
        if len(parts) == 2:
            return base.widened(parts[0], parts[1])
    except ValueError:
        pass
    raise ConfigError(f"cannot parse {ENV_BUDGET}={raw!r}; expected 'total,prime'")


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def next_prime(p: int) -> int:
    k = p + 1
    while not is_prime(k):
        k += 1
    return k


# ----------------------------------------------------------------------
# Realizations
# ----------------------------------------------------------------------

class FiniteFieldRep(Immutable):
    """A representation by matrices: maps[v] acts V_v -> V_{v-1 mod n}.

    p = 0 keeps integer entries for the characteristic-zero rank oracle.
    """

    __slots__ = ("n", "p", "dims", "maps")

    def __init__(self, n: int, p: int, dims: DimVector, maps: Tuple[Matrix, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maps", maps)


def _layout(n: int, m: ModuleIso) -> Tuple[DimVector, tuple, Tuple[Matrix, ...]]:
    """(dims, chains, maps) of the realization of `m`, with no prime: the
    dimension vector; for each summand the (vertex, index) of its basis
    vector at each position k, the socle at k = 0, indices counting up
    per vertex in summand order; and the 0/1 arrow maps, each basis
    vector sent to the one below it."""
    counter = [0] * n
    chains = []
    for part in m:
        chain = []
        for k in range(part.length):
            v = (part.socle - 1 + k) % n
            chain.append((v, counter[v]))
            counter[v] += 1
        chains.append(tuple(chain))
    dims = tuple(counter)
    maps = [[[0] * dims[v] for _ in range(dims[v - 1])] for v in range(n)]
    for chain in chains:
        for (_, t), (v, s) in zip(chain, chain[1:]):
            maps[v][t][s] = 1
    return dims, tuple(chains), tuple(tuple(map(tuple, mat)) for mat in maps)


def realize(q: CyclicQuiver, m: ModuleIso, p: int) -> FiniteFieldRep:
    """Block-diagonal matrix model: one basis vector per composition
    factor, arrow maps shifting each chain one step toward its socle."""
    if p and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    dims, _, maps = _layout(q.n, m)
    return FiniteFieldRep(q.n, p, dims, maps)


def _classify(n: int, dims: DimVector, H: Dict[Tuple[int, int], int]) -> ModuleIso:
    """The iso type with dimension vector `dims` whose Hom dimensions out
    of the uniserials are H[(j, m)] = dim Hom(R(j, m), X), for socles
    j = 1..n and lengths m <= sum(dims) + 1.

    mult(j, m) = H(j,m) - H(j+1,m-1) - H(j,m+1) + H(j+1,m), a second
    difference that isolates the summand R(j, m).
    """
    q = CyclicQuiver(n)

    def h(j: int, m: int) -> int:
        if m <= 0:
            return 0
        return H[(q.vertex(j), m)]

    parts = []
    for j in range(1, n + 1):
        for m in range(1, sum(dims) + 1):
            mult = h(j, m) - h(j + 1, m - 1) - h(j, m + 1) + h(j + 1, m)
            if mult < 0:
                raise RuntimeError("negative multiplicity; classification broke")
            if mult:
                parts.extend([q.R(j, m)] * mult)
    if q.dim_of(parts) != dims:
        raise RuntimeError("classification does not fill the dimension vector")
    return ModuleIso.of(*parts)


def iso_class_of(rep: FiniteFieldRep) -> ModuleIso:
    """Recover the iso type from Hom dimensions out of the uniserials,
    ranks of the matrix route in `oracles` (imported here, so that no
    launch loads it)."""
    from .oracles import _hom_profile
    total = sum(rep.dims)
    if total == 0:
        return ModuleIso.zero()
    return _classify(rep.n, rep.dims, _hom_profile(rep, total + 1))


# ----------------------------------------------------------------------
# Subspace and submodule enumeration
# ----------------------------------------------------------------------

def _subspaces(dim: int, k: int, p: int) -> Tuple[Tuple[Matrix, Tuple[int, ...]], ...]:
    """All k-dim subspaces of F_p^dim as (reduced echelon basis, pivots)."""
    if k == 0:
        return (((), ()),)
    out = []
    for pivots in itertools.combinations(range(dim), k):
        free = [(i, c) for i in range(k) for c in range(pivots[i] + 1, dim)
                if c not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            mat = [[0] * dim for _ in range(k)]
            for i in range(k):
                mat[i][pivots[i]] = 1
            for (i, c), x in zip(free, values):
                mat[i][c] = x
            out.append((tuple(tuple(r) for r in mat), pivots))
    return tuple(out)


@lru_cache(maxsize=None)
def _subspace_index(dim: int, p: int) -> Tuple[Tuple[Matrix, ...], Dict[Matrix, int]]:
    """Every subspace of F_p^dim by its reduced echelon basis, the zero
    space first and the whole space last, and the position of each."""
    bases = tuple(basis for k in range(dim + 1) for basis, _ in _subspaces(dim, k, p))
    return bases, {basis: i for i, basis in enumerate(bases)}


@lru_cache(maxsize=None)
def _point_table(dim: int, p: int) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...],
                                           Dict[Tuple[int, ...], int], Dict[int, int]]:
    """(masks, members, bit, dim_of): the subspaces of F_p^dim as sets of
    projective points.  Point i is the line numbered i + 1 by
    `_subspace_index`, so a point set is an int mask of (p^dim - 1)/(p - 1)
    bits.  masks[u] is the mask of subspace u and members[u] the bits of
    its points, bit[x] the bit of the point x (a vector whose first
    nonzero entry is 1), and dim_of[c] the dimension of a subspace of c
    points.
    """
    bases = _subspace_index(dim, p)[0]
    bit = {x: 1 << i for i, (x,) in enumerate(bases[1:(p ** dim - 1) // (p - 1) + 1])}
    members = []
    for basis in bases:
        # the points whose first nonzero coefficient is that of row r are
        # r + span(the rows below r); a span is kept as coordinate columns
        span, pts = [[0]] * dim, []
        for r in range(len(basis) - 1, -1, -1):
            row = basis[r]
            pts += map(bit.__getitem__, zip(*[[(a + s) % p for s in col]
                                              for a, col in zip(row, span)]))
            if r:
                span = [[(c * a + s) % p for c in range(p) for s in col]
                        for a, col in zip(row, span)]
        members.append(tuple(pts))
    return (tuple(map(sum, members)), tuple(members), bit,
            {(p ** k - 1) // (p - 1): k for k in range(dim + 1)})


def _sorted_census(tally: Dict[Tuple[ModuleIso, ModuleIso], object]
                   ) -> Tuple[Tuple[ModuleIso, ModuleIso, object], ...]:
    return tuple((l, m, c) for (l, m), c in sorted(tally.items()))


def _gaussian_binomial(d: int, k: int, p: int) -> int:
    """[d choose k]_p, the number of k-dimensional subspaces of F_p^d."""
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@lru_cache(maxsize=None)
def _semisimple_types(n: int, dims: DimVector
                      ) -> Tuple[Tuple[ModuleIso, ModuleIso, DimVector], ...]:
    """(sub, quotient, k) for every k <= dims, in census order: the sub
    ⊕_v S_v^{k_v} and the quotient ⊕_v S_v^{d_v - k_v} of the semisimple
    module ⊕_v S_v^{d_v}.  They depend on no prime."""
    q = CyclicQuiver(n)

    def power(ks) -> ModuleIso:
        return ModuleIso.of(*(q.simple(v + 1) for v, k in enumerate(ks) for _ in range(k)))

    return _sorted_census({(power(ks), power([d - k for d, k in zip(dims, ks)])): ks
                           for ks in itertools.product(*(range(d + 1) for d in dims))})


@lru_cache(maxsize=None)
def submodule_census(n: int, big: ModuleIso, p: int
                     ) -> Tuple[Tuple[ModuleIso, ModuleIso, int], ...]:
    """Classify every submodule of the realization of `big` over F_p.

    Returns (sub type, quotient type, count) triples covering all
    subspace dimension vectors at once, sorted by the JSON of the pair,
    so one sweep answers every F_{L,M}^big query at this prime.

    A semisimple `big` (every summand of length 1) has zero arrow maps,
    so each graded subspace U is a submodule, with U and N/U semisimple
    too: the count of the sub ⊕_v S_v^{k_v} is ∏_v [d_v choose k_v]_p
    (Ringel, "The composition algebra of a cyclic quiver", 1993), and
    nothing is enumerated.  Every other module goes through the chain
    walk of `_chain_census`, which stays the oracle of the closed form.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if all(part.length == 1 for part in big):
        dims = CyclicQuiver(n).dim_of(big)
        return tuple((sub, quo, prod(_gaussian_binomial(d, k, p) for d, k in zip(dims, ks)))
                     for sub, quo, ks in _semisimple_types(n, dims))
    return _chain_census(n, big, p)


def _chain_census(n: int, big: ModuleIso, p: int
                  ) -> Tuple[Tuple[ModuleIso, ModuleIso, int], ...]:
    """`submodule_census` by walking every chain of subspaces, one per
    vertex, each arrow-invariant into the next.

    Subspaces are numbered per vertex, and each is the point mask of
    `_point_table`.  The kernels and images of the composites C_{j,m}
    come from `_census_frame`, which reads them off the summands'
    positions once per module, with no prime: they are coordinate
    subspaces, so each prime only looks up the number of each echelon
    basis.  A subspace's signature is the tuple of its meet dimensions
    with the whole space and with each of those (its meet slots), each
    the popcount of an AND of masks.  The image mask of each subspace
    under its arrow map, the subspaces whose image lands inside a given
    one (a mask inside another when their AND gives it back), and the
    signatures are tables shared by every census in the process
    (`_arrow_table`, `_signature_table`), filled on first use.
    The identities in the module docstring turn each distinct tuple of
    signatures into the Hom profiles of sub and quotient.  Each tuple is
    classified once per (n, dims, composite data) in `_pair_table`: the
    censuses of one module at several primes mostly meet the same tuples.
    """
    dims, maps, comps, slot_bases = _census_frame(n, big)
    slots = [tuple(map(_subspace_index(d, p)[1].__getitem__, b))
             for d, b in zip(dims, slot_bases)]

    # arrows[v] = (images, by_image, landing) of A_v: V_v -> V_{v-1}
    arrows = [_arrow_table(dims[v], dims[v - 1], maps[v], p) for v in range(n)]
    tables = [_point_table(d, p) for d in dims]

    def landing_in(v: int, b: int) -> List[int]:
        """The U_v with A_v(U_v) inside subspace b of V_{v-1}."""
        _, by_image, landing = arrows[v]
        if b not in landing:
            mb = tables[v - 1][0][b]
            landing[b] = [u for ma, us in by_image.items() if ma & mb == ma for u in us]
        return landing[b]

    signatures = [_signature_table(dims[v], p, slots[v]) for v in range(n)]

    def signature(v: int, u: int) -> tuple:
        table = signatures[v]
        if u not in table:
            masks, _, _, dim_of = tables[v]
            mu = masks[u]
            table[u] = tuple(dim_of[(mu & masks[s]).bit_count()] for s in slots[v])
        return table[u]

    chains = [(u,) for u in range(len(tables[0][0]))]
    for v in range(1, n):
        chains = [c + (u,) for c in chains for u in landing_in(v, c[-1])]
    images_0, last = arrows[0][0], tables[n - 1][0]
    tally: Dict[tuple, int] = {}
    for chain in chains:
        ma = images_0[chain[0]]
        if ma & last[chain[-1]] == ma:
            key = tuple(signature(v, u) for v, u in enumerate(chain))
            tally[key] = tally.get(key, 0) + 1

    pairs = _pair_table(n, dims, comps)
    census: Dict[Tuple[ModuleIso, ModuleIso], int] = {}
    for key, count in tally.items():
        if key not in pairs:
            h_sub, h_quo = {}, {}
            for j, m, top, dim_ker, ker_slot, target, im_slot in comps:
                h_sub[(j, m)] = key[top][ker_slot]
                h_quo[(j, m)] = dim_ker + key[target][im_slot] - key[top][0]
            sub_dims = tuple(sig[0] for sig in key)
            pairs[key] = (_classify(n, sub_dims, h_sub),
                          _classify(n, tuple(d - s for d, s in zip(dims, sub_dims)), h_quo))
        pair = pairs[key]
        census[pair] = census.get(pair, 0) + count
    return _sorted_census(census)


@lru_cache(maxsize=None)
def _census_frame(n: int, big: ModuleIso
                  ) -> Tuple[DimVector, Tuple[Matrix, ...], tuple, Tuple[Tuple[Matrix, ...], ...]]:
    """(dims, maps, comps, slot bases) of the realization of `big`, the
    census data that no prime changes: the dimension vector, the 0/1
    arrow maps of `realize`, the composite data (j, m, top, dim ker C,
    slot of ker C, j - 1, slot of im C) of each C = C_{j,m}, m up to
    sum(dims) + 1, and per vertex the reduced echelon bases of its meet
    slots, the whole space first.

    C sends the basis vector at position k of a summand to position
    k - m, or to 0 when m exceeds k.  So ker C is spanned by the basis
    vectors of the top vertex at the positions below m, and im C by the
    vectors of vertex j - 1 that the positions from m on reach: both are
    coordinate subspaces, whose echelon bases are unit rows in index
    order.  No matrix is multiplied or reduced.
    """
    dims, chains, maps = _layout(n, big)
    units = [tuple(tuple(int(i == c) for i in range(d)) for c in range(d)) for d in dims]
    # slots[v]: the basis of each meet slot of vertex v, by its slot
    slots: List[Dict[Matrix, int]] = [{whole: 0} for whole in units]

    def slot(v: int, indices: List[int]) -> int:
        return slots[v].setdefault(tuple(units[v][i] for i in sorted(indices)), len(slots[v]))

    comps = []
    for j0 in range(n):
        target = (j0 - 1) % n
        for m in range(1, sum(dims) + 2):
            top = (j0 + m - 1) % n
            kernel, image = [], []
            for chain in chains:
                for k in range((top - chain[0][0]) % n, len(chain), n):
                    if k < m:
                        kernel.append(chain[k][1])
                    else:
                        image.append(chain[k - m][1])
            comps.append((j0 + 1, m, top, len(kernel), slot(top, kernel),
                          target, slot(target, image)))
    return dims, maps, tuple(comps), tuple(tuple(s) for s in slots)


@lru_cache(maxsize=None)
def _arrow_table(dim: int, dim_w: int, amap: Matrix, p: int
                 ) -> Tuple[List[int], Dict[int, List[int]], Dict[int, List[int]]]:
    """(images, by_image, landing) of the arrow map `amap`: F_p^dim ->
    F_p^dim_w.  images[u] is the point mask (`_point_table`) of A(U) for
    subspace u of F_p^dim, the OR of the bits of A x over the points x of
    U, each point mapped once; by_image groups the u by it, and
    landing[b], filled by `_chain_census` on first use, lists the u with
    A(U) inside subspace b of F_p^dim_w.  They depend on the key alone, so
    every census in the process shares them."""
    _, members, points, _ = _point_table(dim, p)
    bit = _point_table(dim_w, p)[2]
    inverse = [0] + [pow(c, p - 2, p) for c in range(1, p)]
    point_images = {}
    for x, b in points.items():
        y = [sum(map(mul, arow, x)) % p for arow in amap]
        lead = inverse[next(filter(None, y), 0)]
        point_images[b] = lead and bit[tuple(lead * a % p for a in y)]
    images = [reduce(or_, map(point_images.__getitem__, pts), 0) for pts in members]
    by_image: Dict[int, List[int]] = {}
    for u, a in enumerate(images):
        by_image.setdefault(a, []).append(u)
    return images, by_image, {}


@lru_cache(maxsize=None)
def _signature_table(dim: int, p: int, slots: Tuple[int, ...]) -> Dict[int, tuple]:
    """Signature of each subspace u of F_p^dim: its meet dimensions with
    the subspaces `slots`, in slot order.  Filled by `_chain_census` on
    first use and shared, like `_arrow_table`, by every census."""
    return {}


@lru_cache(maxsize=None)
def _pair_table(n: int, dims: DimVector, comps: tuple
                ) -> Dict[tuple, Tuple[ModuleIso, ModuleIso]]:
    """The (sub type, quotient type) pair of each signature key seen so far,
    filled by `_chain_census`.  A pair depends on n, the dimension
    vector, the composite data `comps` and the key alone, so censuses at
    different primes share the table."""
    return {}


def _check_counts(q: CyclicQuiver, sub: ModuleIso, quo: ModuleIso, big: ModuleIso,
                  primes: Sequence[int], budget: Budget) -> None:
    """The checks of the counts F_{sub,quo}^big at `primes`, raising as
    `hall_count` does at the first prime that fails them, in order: the
    dimension vectors add up, the total and each prime are within
    `budget`, and each prime is prime."""
    d_sub, d_quo, d_big = q.dim_of(sub), q.dim_of(quo), q.dim_of(big)
    if tuple(a + b for a, b in zip(d_sub, d_quo)) != d_big:
        raise ValueError("dimension vectors do not add up")
    total = sum(d_big)
    for p in primes:
        if total > budget.hall_total or p > budget.hall_prime:
            raise BudgetError(
                f"hall_count budget is total<={budget.hall_total}, "
                f"p<={budget.hall_prime} (override via {ENV_BUDGET})")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")


def _census_count(n: int, sub: ModuleIso, quo: ModuleIso, big: ModuleIso, p: int) -> int:
    """F_{sub,quo}^big over F_p, unchecked: a scan of the memoised
    `submodule_census`, whose `cache_info()` counts every read."""
    for l, m, c in submodule_census(n, big, p):
        if l == sub and m == quo:
            return c
    return 0


def hall_count(q: CyclicQuiver, sub: ModuleIso, quo: ModuleIso, big: ModuleIso,
               p: int, budget: Budget = DEFAULT_BUDGET) -> int:
    """Number of submodules of `big` over F_p isomorphic to `sub` with
    quotient isomorphic to `quo`: the checks of `_check_counts` at p, then
    the census read of `_census_count`.  Unequal dimension sums and a p
    that is not prime raise ValueError, a total or p over `budget`
    BudgetError."""
    _check_counts(q, sub, quo, big, (p,), budget)
    return _census_count(q.n, sub, quo, big, p)


# ----------------------------------------------------------------------
# Interpolation
# ----------------------------------------------------------------------

class HallPolynomial(Immutable):
    """Integer polynomial in q counting submodules, with its nodes."""

    __slots__ = ("sub", "quo", "big", "coeffs", "nodes")

    def __init__(self, sub: ModuleIso, quo: ModuleIso, big: ModuleIso,
                 coeffs: Tuple[int, ...], nodes: Tuple[Tuple[int, int], ...]):
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "quo", quo)
        object.__setattr__(self, "big", big)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "nodes", nodes)

    def eval_q(self, q0: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def as_laurent(self) -> LaurentPoly:
        return LaurentPoly.from_q_coeffs(self.coeffs)

    def to_json(self) -> dict:
        return {"L": self.sub.to_json(), "M": self.quo.to_json(),
                "N": self.big.to_json(), "coeffs": list(self.coeffs),
                "nodes": [[p, c] for p, c in self.nodes]}


def _lagrange(points: Sequence[Tuple[int, int]]) -> List[Fraction]:
    """Rational coefficients of the fit, the oracle of `_newton`; it
    also formats the coefficients of a fit that is not integral."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        term = [Fraction(yi)]
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(term) + 1)
            for k, c in enumerate(term):
                nxt[k] += c * Fraction(-xj, xi - xj)
                nxt[k + 1] += c * Fraction(1, xi - xj)
            term = nxt
        for k, c in enumerate(term):
            coeffs[k] += c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _newton(points: Sequence[Tuple[int, int]]) -> Optional[List[int]]:
    """Coefficients, constant term first and without trailing zeros, of
    the polynomial through `points` (distinct integer nodes), or None when
    one of them is not an integer.

    Divided differences of an integer polynomial at integer nodes are
    integers and the Newton basis has integer coefficients, so the fit is
    integral exactly when every division here is exact.
    """
    xs = [x for x, _ in points]
    dd = [y for _, y in points]
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            quot, rem = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - level])
            if rem:
                return None
            dd[i] = quot
    coeffs = [dd[-1]]
    for c, x in zip(dd[-2::-1], xs[-2::-1]):
        # coeffs <- coeffs * (q - x) + c
        coeffs = [0] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= x * coeffs[k + 1]
        coeffs[0] += c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def interpolate_hall(q: CyclicQuiver, sub: ModuleIso, quo: ModuleIso,
                     big: ModuleIso, primes: Sequence[int],
                     validate_prime: Optional[int] = None,
                     budget: Budget = DEFAULT_BUDGET) -> HallPolynomial:
    """Fit the counting polynomial through the counts at `primes`, then
    demand integrality and agreement at one extra prime.

    Passing the holdout is equivalent to the fit being stable under
    adding that prime as a node, so one check covers both readings.

    The checks of `hall_count` run once, by `_check_counts` over the nodes
    and then the holdout, before any count is read; each count is then the
    census read `_census_count`, so a node equals `hall_count` at its
    prime and a failing check raises what `hall_count` raises there.
    """
    if len(primes) < 2:
        raise ValueError("need at least two interpolation primes")
    if validate_prime is None:
        validate_prime = next_prime(max(primes))
    if validate_prime in primes:
        raise ValueError("validation prime must be held out")
    # The holdout node is part of this operation's contract, so the prime
    # cap stretches to the requested nodes; the total-dimension cap stays.
    budget = budget.widened(budget.hall_total,
                            max(max(primes), validate_prime))
    _check_counts(q, sub, quo, big, (*primes, validate_prime), budget)
    nodes = [(p, _census_count(q.n, sub, quo, big, p)) for p in primes]
    coeffs = _newton(nodes)
    if coeffs is None:
        raise InterpolationError(
            f"non-integer coefficients {_lagrange(nodes)}; add more primes")
    held = _census_count(q.n, sub, quo, big, validate_prime)
    fitted = HallPolynomial(sub, quo, big, tuple(coeffs),
                            tuple(nodes) + ((validate_prime, held),))
    if fitted.eval_q(validate_prime) != held:
        raise InterpolationError(
            f"holdout mismatch at p={validate_prime}: "
            f"poly gives {fitted.eval_q(validate_prime)}, count is {held}")
    return fitted


def hall_polynomials(q: CyclicQuiver, sub: ModuleIso, quo: ModuleIso, primes: Sequence[int],
                     budget: Budget) -> Tuple[DimVector, List[HallPolynomial]]:
    """dim L + dim M and phi_{L,M}^N for each class N of that dimension,
    the classes read from the memo `_classes_with_dim`."""
    d_total = tuple(a + b for a, b in zip(q.dim_of(sub), q.dim_of(quo)))
    return d_total, [interpolate_hall(q, sub, quo, big, primes, budget=budget)
                     for big in _classes_with_dim(q.n, d_total)]


@lru_cache(maxsize=None)
def _classes_with_dim(n: int, d: DimVector) -> Tuple[ModuleIso, ...]:
    """`CyclicQuiver(n).enumerate_with_dim(d)`, built once per (n, d): the
    132 pairs of the integration catalog at n = 3 and total 3 have 20
    distinct sums dim L + dim M."""
    return tuple(CyclicQuiver(n).enumerate_with_dim(d))


# ----------------------------------------------------------------------
# Integration-map homomorphism check
# ----------------------------------------------------------------------

def check_integration_homomorphism(q: CyclicQuiver, left: ModuleIso,
                                   right: ModuleIso,
                                   primes: Sequence[int] = (2, 3, 5, 7, 11),
                                   budget: Budget = CATALOG_BUDGET,
                                   twist_sign: int = 1) -> Tuple[bool, dict]:
    """Exact identity: sum over all N of the same dimension vector of
    phi_{L,M}^N(q) t^chi(dN,dN)/Aut_N(q) equals the twisted product of
    the integrated images of L and M.

    twist_sign = -1 flips the product twist and exists only so sabotage
    checks can prove this comparison is not vacuous.
    """
    total = sum(r.length for r in left + right)
    if total > budget.hall_total:
        raise BudgetError(f"pair total {total} exceeds budget {budget.hall_total}")
    d_total, polys = hall_polynomials(q, left, right, primes, budget)
    lhs = integrate_modules(q, total, [phi.big for phi in polys],
                            [phi.as_laurent() for phi in polys]).coefficient(d_total)
    i_left, i_right = integrate(q, left, total), integrate(q, right, total)
    # lambda is antisymmetric, so the flipped twist is the swapped product
    prod = convolve(i_left, i_right) if twist_sign == 1 else convolve(i_right, i_left)
    rhs = prod.coefficient(d_total)
    ok = rf_eq(lhs, rhs)
    report = {
        "left": left.to_json(), "right": right.to_json(),
        "lhs": lhs.to_json(), "rhs": rhs.to_json(),
        "polynomials": [phi.to_json() for phi in polys],
        "primes": list(primes), "ok": ok,
    }
    return ok, report
