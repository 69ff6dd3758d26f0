"""Brute-force oracles of the Hom/Ext dimensions and of |Aut M|, and the
matrix route of the Hall census.

The oracles solve the intertwiner system of two matrix realizations:
over Q by fraction-free elimination, or over F_p, where the
automorphisms are also counted by sweeping the endomorphism space.
Tests check the closed forms of `quiver` (Euler form, the Hom table
under |Aut M|, |Aut M|(q)) against them.  The matrix route multiplies
the arrow maps of a realization into the composites C_{j,m} and row
reduces them over F_p: `hall.iso_class_of` reads its Hom profile off
their ranks, and tests check the census's composite data, which
`hall._census_frame` reads off positions, against their kernels and
images.

The field Q(t), `QtFunction`, over the primitive pseudo-remainder gcd,
is the oracle of the coefficient ring `exact.RationalFunction`, and the
pair-by-pair torus product over it, `_convolve_reference`, that of
`torus.convolve`: they share no arithmetic kernel.  Neither `import
hallq` nor the CLI imports this module; import it as `hallq.oracles`.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import (Immutable, LaurentPoly, RationalFunction, _LP_ONE, _LP_ZERO, _iexact_div,
                    _itrim)
from .hall import BudgetError, FiniteFieldRep, Matrix, is_prime, realize
from .quiver import CyclicQuiver, DimVector, ModuleIso
from .torus import TorusElement

# Caps of count_automorphisms: total length, prime, and the size p^k of
# the endomorphism space it sweeps.
AUT_TOTAL = 4
AUT_PRIME = 3
AUT_SPACE = 1 << 20


def _mat_mul(a: Matrix, b: Matrix, b_cols: int, p: int) -> Matrix:
    """Product a·b; b_cols passed explicitly so empty shapes stay exact."""
    out = []
    for row in a:
        acc = [0] * b_cols
        for s, x in enumerate(row):
            if x:
                brow = b[s]
                for c in range(b_cols):
                    acc[c] += x * brow[c]
        out.append(tuple(v % p for v in acc) if p else tuple(acc))
    return tuple(out)


def _rref_mod(rows: Sequence[Sequence[int]], cols: int, p: int
              ) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form over F_p, with pivot columns."""
    m = [list(r) for r in rows]
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                f = m[i][c] % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(x % p for x in m[i]) for i in range(r)), tuple(pivots)


def _rank_mod(rows: Sequence[Sequence[int]], cols: int, p: int) -> int:
    return len(_rref_mod(rows, cols, p)[1])


def _nullspace_mod(rows: Sequence[Sequence[int]], cols: int, p: int) -> List[Tuple[int, ...]]:
    rref, pivots = _rref_mod(rows, cols, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * cols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-rref[i][f]) % p
        basis.append(tuple(v))
    return basis


def _composites(rep: FiniteFieldRep, max_len: int):
    """(j0, m, top, C) for the socle index j0 = 0..n-1 of R(j0+1, m),
    m = 1..max_len, its top vertex index and C, the m-fold arrow composite
    from the top vertex to vertex j0 - 1."""
    n, p = rep.n, rep.p
    for j0 in range(n):
        comp = rep.maps[j0]
        for m in range(1, max_len + 1):
            yield j0, m, (j0 + m - 1) % n, comp
            nxt = (j0 + m) % n
            comp = _mat_mul(comp, rep.maps[nxt], rep.dims[nxt], p)


def _hom_profile(rep: FiniteFieldRep, max_len: int) -> Dict[Tuple[int, int], int]:
    """H[(j, m)] = dim Hom(R(j, m), X) for socle j, length m <= max_len.

    A map out of R(j,m) picks the image of the top generator, subject to
    the m-fold arrow composite from the top vertex vanishing on it.
    """
    return {(j0 + 1, m): rep.dims[top] - _rank_mod(comp, rep.dims[top], rep.p)
            for j0, m, top, comp in _composites(rep, max_len)}


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


def count_automorphisms(q: CyclicQuiver, m: ModuleIso, p: int) -> int:
    """Exhaustive count of invertible self-intertwiners over F_p."""
    total = sum(p_.length for p_ in m)
    if total > AUT_TOTAL or p > AUT_PRIME:
        raise BudgetError(
            f"count_automorphisms budget is total<={AUT_TOTAL}, "
            f"p<={AUT_PRIME}; use aut_poly for larger inputs")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    rep = realize(q, m, p)
    rows, ncols = _intertwiner_system(rep, rep)
    basis = _nullspace_mod(rows, ncols, p)
    if p ** len(basis) > AUT_SPACE:
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


# ----------------------------------------------------------------------
# The field Q(t) over the integer polynomial gcd
# ----------------------------------------------------------------------

def _iprimitive(a: Sequence[int]) -> tuple:
    """a divided by its content."""
    g = gcd(*a)
    return tuple(x // g for x in a) if g > 1 else tuple(a)


def _ipseudo_rem(u: Sequence[int], v: Sequence[int]) -> tuple:
    """The remainder of u by v, scaled by a power of v's leading
    coefficient: a nonzero rational factor, which is all a gcd chain needs."""
    r = list(u)
    while len(r) >= len(v):
        lead, shift = r.pop(), len(r) + 1 - len(v)
        if lead:
            r = [x * v[-1] for x in r]
            for j, y in enumerate(v[:-1]):
                r[shift + j] -= lead * y
    return _itrim(r)


def _ipoly_gcd(a: Sequence[int], b: Sequence[int]) -> tuple:
    """Primitive gcd with positive leading coefficient; () only if both zero."""
    a, b = _iprimitive(a), _iprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _iprimitive(_ipseudo_rem(a, b))
    return tuple(-x for x in a) if a and a[-1] < 0 else a


def _icofactors(a: tuple, b: tuple) -> tuple:
    """(a / g, b / g) for g = _ipoly_gcd(a, b); content and sign stay on them."""
    g = _ipoly_gcd(a, b)
    return (a, b) if g == (1,) else (_iexact_div(a, g), _iexact_div(b, g))


class QtFunction(Immutable):
    """An element of Q(t) in canonical form: integer num and den, den of
    lowest exponent 0 with a positive leading coefficient, the two coprime
    once powers of t are cleared, and so are their contents (1/2 is 1 over
    the constant 2; 0 is 0/1).  So equality and hash are those of (num,
    den); `exact.rf_eq` compares these values too."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _LP_ONE):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = _LP_ZERO, _LP_ONE
        else:
            a, b = _icofactors(num._ints, den._ints)
            g = gcd(*a, *b) * (1 if b[-1] > 0 else -1)
            num = LaurentPoly(num.t_low - den.t_low, [x // g for x in a])
            den = LaurentPoly(0, [x // g for x in b])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def of(c) -> "QtFunction":
        """A value of the coefficient ring (or of this field) in Q(t)."""
        return QtFunction(c.num, c.den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "QtFunction") -> "QtFunction":
        qa, qb = _icofactors(self.den._ints, other.den._ints)
        # a/da + b/db = (a qb + b qa) / (da qb), with da qb = db qa
        red_b = LaurentPoly(0, qb)
        return QtFunction(self.num * red_b + other.num * LaurentPoly(0, qa), self.den * red_b)

    def __neg__(self) -> "QtFunction":
        return QtFunction(-self.num, self.den)

    def __sub__(self, other: "QtFunction") -> "QtFunction":
        return self + (-other)

    def __mul__(self, other: "QtFunction") -> "QtFunction":
        return QtFunction(self.num * other.num, self.den * other.den)

    def inv(self) -> "QtFunction":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero rational function")
        return QtFunction(self.den, self.num)

    eval = RationalFunction.eval  # num(t0) / den(t0), read off the two slots


def _convolve_reference(a: TorusElement, b: TorusElement) -> TorusElement:
    """Pair-by-pair product in Q(t), the oracle of `torus.convolve`: the
    coefficients of either operand may be ring or field values, and those
    of the result are `QtFunction` values."""
    a._check_compatible(b)
    n, bound = a.n, a.truncation
    lam = CyclicQuiver(n).lambda_form
    out: Dict[DimVector, QtFunction] = {}
    b_items = [(e, sum(e), QtFunction.of(c)) for e, c in b.terms.items()]
    for d, ca in a.terms.items():
        ca, td = QtFunction.of(ca), sum(d)
        for e, te, cb in b_items:
            if td + te > bound:
                continue
            c = ca * cb * QtFunction(LaurentPoly.t_power(lam(d, e)))
            f = tuple(x + y for x, y in zip(d, e))
            out[f] = out[f] + c if f in out else c
    return TorusElement(n, bound, out)
