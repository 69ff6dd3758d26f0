"""Truncated quantum torus and dilogarithm products.

Elements live in the span of symbols y^d, one per dimension vector d with
total <= D, with coefficients in Q(t).  Multiplication twists by the
antisymmetrised Euler form: y^d * y^e = t^(lambda(d,e)) * y^(d+e), and
keys whose total would exceed the truncation bound are dropped.  Since
lambda vanishes against delta, every y^(k*delta) is central.

The quantum dilogarithm of a single symbol is the truncated series

    E(y^d) = sum_m  t^(m^2) / ((q^m - q^(m-1)) ... (q^m - 1)) * y^(m*d)

with q = t^2, and the integration map sends the iso class M to
t^(chi(dim M, dim M)) / |Aut M|(q) * y^(dim M).

Cyclotomic invariant: both kinds of coefficient have a denominator that
is a power of t times a product of factors q^k - 1 = t^(2k) - 1, that is
a product of cyclotomic polynomials Phi_i(t), and sums and products keep
this form.  So ``convolve``, the integration sums and ``torus_inverse``
(through ``convolve``) sum every output coefficient in one canonical
reduction (``exact._cyclo_sum``, on integers), with no gcd.  A kernel term is
(exps, s, ints): t^s times the integer polynomial ints over prod
Phi_i^e_i.  The coefficients stay ``RationalFunction`` values; one made by
the kernel carries the Phi-exponents of its denominator, and one over 1
the empty vector, which ``convolve`` reads as they are, so no denominator
is expanded or factored between products.  ``convolve`` falls back to the
pair-by-pair ``_convolve_reference`` for an operand with a coefficient
that has no Phi-exponents (built neither by the kernel nor over 1, such as
a rational scalar 1/2).  The reduction is memoised on its term tuple,
which repeats: every E(y^d) has the same coefficients, so a chain of
products forms the same products of them at many keys and steps.  Every
factor of such a chain has the constant term 1, so ``convolve`` splits a
constant term equal to 1 off either operand: a key reached only by 1 * c
keeps the coefficient object c, with no kernel call, and every other
output key is one kernel call, past which the memo is the only shortcut.
A pair with the numerator 1 on one side takes the other numerator as it
is, with no convolution, and lambda(d, e) is d dotted with the row
``CyclicQuiver.lambda_row(e)``, once per key e.
The class sums of dimension vectors related by rotation and reversal of
Delta_n are equal, so ``integrate_iso_sum`` counts and reduces only one
representative per orbit and copies its coefficient to the rest.

The integration map has two entry points.  ``integrate_modules`` takes
explicit classes, each with an optional q-polynomial weight (the Hall
side of the integration identity).  ``integrate_multisets`` sums every
direct sum of given uniserials (``integrate_iso_sum`` over all of them,
``semistable_phase_factor`` over one phase) in one ``multiset_walk``
that carries dim M, ks and |Aut M| from each class to the next with one
summand, keys each class by one integer, builds no class, and hands the
kernel one term per (dim M, ks).
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul
from typing import Dict, Iterable, List, Optional, Tuple

from .exact import (GaussianRational, Immutable, LaurentPoly, RationalFunction,
                    RF_ONE, RF_ZERO, _LP_ONE, _cyclo_sum,
                    _exps_merge, _iconv, _q_factor_exps)
from .quiver import CyclicQuiver, DimVector, Indecomposable, ModuleIso, multiset_walk
from .stability import (StabilityFunction, _cross, _ray, charge_of,
                        is_semistable, stable_objects)


class TorusElement(Immutable):
    """A truncated quantum-torus element: dimension vector -> coefficient."""

    __slots__ = ("n", "truncation", "terms")

    def __init__(self, n: int, truncation: int,
                 terms: Optional[Dict[DimVector, RationalFunction]] = None):
        if truncation < 0:
            raise ValueError("truncation bound must be nonnegative")
        clean: Dict[DimVector, RationalFunction] = {}
        for d, c in (terms or {}).items():
            if len(d) != n:
                raise ValueError("key has the wrong number of vertices")
            if any(x < 0 for x in d):
                raise ValueError("negative entry in a dimension vector")
            if sum(d) > truncation or c.is_zero:
                continue
            clean[d] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _trusted(n: int, truncation: int,
                 terms: Dict[DimVector, RationalFunction]) -> "TorusElement":
        """An element whose keys are known to have n nonnegative entries
        and total <= truncation, as sums of such keys checked against the
        bound or rotations of such keys; only zero coefficients, as a
        cancelled bucket, drop out, told by their empty numerator."""
        out = object.__new__(TorusElement)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "truncation", truncation)
        object.__setattr__(out, "terms", {d: c for d, c in terms.items() if c.num._ints})
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one(n: int, truncation: int) -> "TorusElement":
        return TorusElement(n, truncation, {(0,) * n: RF_ONE})

    @staticmethod
    def monomial(n: int, truncation: int, d: DimVector,
                 coeff: RationalFunction = RF_ONE) -> "TorusElement":
        return TorusElement(n, truncation, {tuple(d): coeff})

    # -- ring structure -------------------------------------------------------

    def __add__(self, other: "TorusElement") -> "TorusElement":
        self._check_compatible(other)
        out = dict(self.terms)
        for d, c in other.terms.items():
            s = out.get(d)
            out[d] = c if s is None else s + c
        return TorusElement._trusted(self.n, self.truncation, out)

    def __neg__(self) -> "TorusElement":
        return TorusElement._trusted(self.n, self.truncation,
                                     {d: -c for d, c in self.terms.items()})

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        return convolve(self, other)

    def _check_compatible(self, other: "TorusElement") -> None:
        if self.n != other.n or self.truncation != other.truncation:
            raise ValueError("mismatched rank or truncation bound")

    def coefficient(self, d: DimVector) -> RationalFunction:
        return self.terms.get(tuple(d), RF_ZERO)

    @property
    def constant_term(self) -> RationalFunction:
        return self.terms.get((0,) * self.n, RF_ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusElement):
            return NotImplemented
        return (self.n == other.n and self.truncation == other.truncation
                and self.terms == other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms)
        return " + ".join(f"({self.terms[k]})*y^{list(k)}" for k in keys)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "truncation": self.truncation,
            "terms": [{"dim": list(d), "coeff": self.terms[d].to_json()}
                      for d in sorted(self.terms)],
        }


def convolve(a: TorusElement, b: TorusElement) -> TorusElement:
    """Graded product a * b.

    The term pairs are bucketed by output key and each bucket, as a
    tuple of terms, is summed in one canonical reduction by the cyclotomic
    kernel.  A constant term equal to 1 on either side is split off from
    the pair loop: each key of the other operand gets its product with
    that 1 as one term of its bucket, and a bucket that no other term
    joins is not reduced, its key keeping the operand's coefficient
    object.  An operand with a coefficient that has no Phi-exponents
    (built neither by the kernel nor over 1) takes the pair-by-pair path
    of :func:`_convolve_reference`.  The twist is one dot product per
    pair with the right key's row lambda(., e).
    """
    a._check_compatible(b)
    a_split = _cyclotomic_items(a)
    b_split = _cyclotomic_items(b)
    if a_split is None or b_split is None:
        return _convolve_reference(a, b)
    (a_items, a_unit), (b_items, b_unit) = a_split, b_split
    n, bound = a.n, a.truncation
    row = CyclicQuiver(n).lambda_row
    b_rows = [item + (row(item[0]),) for item in b_items]
    # a product 1 * c at key f (lambda(0, f) = lambda(f, 0) = 0) enters
    # the bucket of f where the pair loop would have met it, so the term
    # tuples and the key order are those of the full loop; passed[f]
    # keeps c, the output at f if no other term joins it
    buckets: Dict[DimVector, list] = {}
    passed: Dict[DimVector, RationalFunction] = {}
    if a_unit and b_unit:
        zero = (0,) * n
        buckets[zero], passed[zero] = [((), 0, (1,))], RF_ONE
    if a_unit:
        for e, _, eb, sb, nb in b_items:
            buckets[e], passed[e] = [(eb, sb, nb)], b.terms[e]
    for d, td, ea, sa, na in a_items:
        if b_unit:
            bucket = buckets.get(d)
            if bucket is None:
                buckets[d], passed[d] = [(ea, sa, na)], a.terms[d]
            else:
                bucket.append((ea, sa, na))
        for e, te, eb, sb, nb, r in b_rows:
            if td + te > bound:
                continue
            buckets.setdefault(tuple(map(add, d, e)), []).append(
                (_exps_merge(ea, eb), sa + sb + sum(map(mul, d, r)),
                 nb if na == (1,) else na if nb == (1,) else _iconv(na, nb)))
    out = {f: passed[f] if len(terms) == 1 and f in passed else _cyclo_sum(tuple(terms))
           for f, terms in buckets.items()}
    return TorusElement._trusted(n, bound, out)


def _cyclotomic_items(a: TorusElement) -> Optional[tuple]:
    """(items, unit): items holds (key, total, exps, t_low, ints) per
    term, the exponents those the coefficient carries, except a constant
    term equal to 1, which sets unit; None if a coefficient has no
    Phi-exponents (built neither by the kernel nor over 1)."""
    out = []
    unit = False
    for d, c in a.terms.items():
        exps = c._exps
        if exps is None:
            return None
        td = sum(d)
        if not td and c == RF_ONE:
            unit = True
            continue
        out.append((d, td, exps, c.num.t_low, c.num._ints))
    return out, unit


def _convolve_reference(a: TorusElement, b: TorusElement) -> TorusElement:
    """Pair-by-pair product in Q(t): the fallback of :func:`convolve` and
    the oracle its tests compare against."""
    a._check_compatible(b)
    n, bound = a.n, a.truncation
    lam = CyclicQuiver(n).lambda_form
    out: Dict[DimVector, RationalFunction] = {}
    b_items = [(e, sum(e), c) for e, c in b.terms.items()]
    for d, ca in a.terms.items():
        td = sum(d)
        for e, te, cb in b_items:
            if td + te > bound:
                continue
            c = ca * cb
            k = lam(d, e)
            if k:
                c = c.shifted(k)
            f = tuple(x + y for x, y in zip(d, e))
            s = out.get(f)
            out[f] = c if s is None else s + c
    return TorusElement(n, bound, out)


def torus_inverse(a: TorusElement) -> TorusElement:
    """Two-sided inverse by the geometric series.

    With a = c0 (1 + u), u without constant term, a^-1 is
    (sum_{j <= D} (-u)^j) c0^-1: c0 is central and u^(D+1) vanishes at
    truncation D.  The sum is D steps x <- c0^-1 - u x through `convolve`.
    """
    c0 = a.constant_term
    if c0.is_zero:
        raise ZeroDivisionError("constant term is zero; no inverse")
    n, bound = a.n, a.truncation
    scale = TorusElement.monomial(n, bound, (0,) * n, c0.inv())
    minus_u = -convolve(scale, TorusElement(n, bound, {d: c for d, c in a.terms.items()
                                                       if any(d)}))
    x = scale
    for _ in range(bound):
        x = scale + convolve(minus_u, x)
    return x


def apply_translate(a: TorusElement, k: int = 1) -> TorusElement:
    """Rotate every key by the translation (tau^k d)_j = d_{j+k mod n}.

    This is an algebra automorphism because lambda is rotation invariant.
    A key of `a` rotated by slicing is again a valid key of the same
    total, and the coefficients are unchanged, so the result is built by
    ``TorusElement._trusted`` with no key checked.
    """
    n = a.n
    k = k % n
    if k == 0:
        return a
    return TorusElement._trusted(n, a.truncation,
                                 {d[k:] + d[:k]: c for d, c in a.terms.items()})


# ----------------------------------------------------------------------
# Dilogarithms, integration, and stability products
# ----------------------------------------------------------------------

def dilog_coefficient(m: int) -> RationalFunction:
    """Coefficient of y^(m*d) in E(y^d): t^(m^2) / prod_{j<m} (q^m - q^j),
    that is t^m / prod_{k=1..m} (q^k - 1), one term of the kernel."""
    return _cyclo_sum(((_q_factor_exps(tuple(range(1, m + 1))), m, (1,)),))


def dilog(n: int, truncation: int, d: DimVector) -> TorusElement:
    """Truncated quantum dilogarithm E(y^d); d must be nonzero."""
    total = sum(d)
    if total == 0:
        raise ValueError("dilogarithm of the identity symbol")
    terms: Dict[DimVector, RationalFunction] = {}
    m = 0
    while m * total <= truncation:
        terms[tuple(m * x for x in d)] = dilog_coefficient(m)
        m += 1
    return TorusElement(n, truncation, terms)


def integrate_modules(q: CyclicQuiver, truncation: int, modules: Iterable[ModuleIso],
                      weights: Optional[Iterable[LaurentPoly]] = None) -> TorusElement:
    """Sum of w_M t^chi(dM,dM) / |Aut M|(q) * y^(dim M) over the classes M,
    w_M from `weights` (default 1); those above the truncation drop out.

    With |Aut M| = q^e * prod_{k in ks} (q^k - 1), each class is the term
    w_M t^(-2e) / prod (q^k - 1), and each dimension vector is summed by
    one kernel call, which adds the classes with equal ks first.
    """
    terms: Dict[DimVector, list] = {}
    for m, w in zip(modules, repeat(_LP_ONE) if weights is None else weights):
        d = q.dim_of(m)
        if sum(d) <= truncation and not w.is_zero:
            e, ks = q.aut_factors(m)
            terms.setdefault(d, []).append(
                (_q_factor_exps(ks), w.t_low - 2 * e, w._ints))
    return TorusElement._trusted(q.n, truncation, {
        d: _cyclo_sum(tuple(ts)).shifted(q.euler_form(d, d)) for d, ts in terms.items()})


def integrate(q: CyclicQuiver, m: ModuleIso, truncation: int) -> TorusElement:
    """Image of the iso class M: t^chi(dM,dM) / |Aut M|(q) * y^(dim M)."""
    return integrate_modules(q, truncation, [m])


def integrate_iso_sum(q: CyclicQuiver, truncation: int) -> TorusElement:
    """Sum of integrate over every iso class of total dim <= truncation,
    one :func:`integrate_multisets` walk over every uniserial that counts
    one dimension vector per dihedral orbit.  The zero class contributes
    the unit.

    Rotating the vertices, R(i, l) -> R(i+1, l), is a relabelling of
    Delta_n.  So is k-duality M -> DM followed by j -> -j, which turns
    the opposite quiver back into Delta_n and sends R(i, l) to R(1-i-l,
    l): the top of R(i, l) becomes the socle.  Both map the uniserials
    onto themselves, keep |Aut M| (Aut(DM) is Aut(M)^op) and chi(d, d),
    and send dim M to a rotation of d or of d reversed.  So they biject
    the classes of dimension d with those of each d' in its orbit, and
    the coefficients at d and d' are equal.
    """
    return integrate_multisets(q, q.enumerate_indecomposables(truncation), truncation,
                               dihedral=True)


def integrate_multisets(q: CyclicQuiver, parts: Iterable[Indecomposable],
                        truncation: int, dihedral: bool = False) -> TorusElement:
    """Sum of integrate over every direct sum of the distinct uniserials
    `parts` of total dim <= truncation, the zero class included, with no
    class built.

    One :func:`multiset_walk` carries each class's key and the e of
    |Aut M| = q^e * prod_{k in ks} (q^k - 1)
    (:meth:`CyclicQuiver.aut_exponents`) from each class to its children.
    The key is one integer: dim M, with digit d_j in base truncation + 1,
    plus above it the ks code, whose digit m - 1 counts the parts of
    multiplicity at least m, so that adding a summand adds its dim code
    and the constant of its multiplicity.  The walk counts
    the classes by (key, e); each key is one kernel term whose numerator
    sums count * t^(-2e), and each dimension vector one kernel call,
    shifted by t^chi(d, d).  The terms of a dimension vector go to the
    kernel sorted by ks code, one canonical order, so that dimension
    vectors with equal counts hand the kernel equal term tuples and its
    memo reduces them once.

    With `dihedral`, which needs `parts` closed under rotation and
    duality (see :func:`integrate_iso_sum`), only the classes of the
    least dim code of each dihedral orbit are counted and reduced, and
    the coefficient is copied to the rest of the orbit.  Without it,
    every dimension vector is counted: the oracle of the dihedral sum.
    """
    parts = sorted(parts)
    n, base = q.n, truncation + 1
    top = base ** n
    codes = [_code(q.dim_of_indec(r), base) for r in parts]
    copies = [0] + [top * base ** k for k in range(truncation)]
    walk = q.aut_exponents(parts,
                           multiset_walk([r.length for r in parts], truncation))
    # dim code -> the dimension vectors of its dihedral orbit at the
    # orbit's least code, () at the others
    orbits: Dict[int, tuple] = {0: ((0,) * n,)}
    counts: Dict[int, Dict[int, int]] = {0: {0: 1}}
    keys = [0] * (truncation + 1)
    for depth, i, m, e in walk:
        key = keys[depth] = keys[depth - 1] + codes[i] + copies[m]
        if dihedral:
            members = orbits.get(key % top)
            if members is None:
                members = _mark_orbit(orbits, key % top, n, base)
            if not members:
                continue
        by_e = counts.setdefault(key, {})
        by_e[e] = by_e.get(e, 0) + 1
    terms: Dict[int, list] = {}
    # sorted keys run by ks code, then dim code
    for key, by_e in sorted(counts.items()):
        hi = max(by_e)
        ints = [0] * (2 * (hi - min(by_e)) + 1)
        for e, count in by_e.items():
            ints[2 * (hi - e)] = count
        terms.setdefault(key % top, []).append(
            (_q_factor_exps(_ks_of(key // top, base)), -2 * hi, tuple(ints)))
    out = {}
    for code, ts in terms.items():
        members = orbits[code] if dihedral else (_digits(code, n, base),)
        c = _cyclo_sum(tuple(ts)).shifted(q.euler_form(members[0], members[0]))
        for d in members:
            out[d] = c
    return TorusElement._trusted(n, truncation, out)


def _code(d: DimVector, base: int) -> int:
    """The dim code of d: the integer with digit d_j in `base`."""
    return sum(x * base ** j for j, x in enumerate(d))


def _digits(code: int, n: int, base: int) -> DimVector:
    """The dimension vector with dim code `code`."""
    return tuple(code // base ** j % base for j in range(n))


def _mark_orbit(orbits: Dict[int, tuple], code: int, n: int, base: int) -> tuple:
    """Enter the dihedral orbit of the dim code `code` into `orbits`: its
    rotations and their reversals at the least code, () at the others;
    the entry of `code`."""
    twice = _digits(code, n, base) * 2
    images = {}
    for k in range(n):
        turned = twice[k:k + n]
        for x in (turned, turned[::-1]):
            images[_code(x, base)] = x
    for c in images:
        orbits[c] = ()
    orbits[min(images)] = tuple(images.values())
    return orbits[code]


def _ks_of(code: int, base: int) -> Tuple[int, ...]:
    """The ks of a ks code, ascending: k once for each part counted by
    digit k - 1, a part of multiplicity at least k."""
    ks: List[int] = []
    k = 0
    while code:
        code, c = divmod(code, base)
        k += 1
        ks += [k] * c
    return tuple(ks)


def ordered_product(factors: Iterable[TorusElement], n: int, truncation: int) -> TorusElement:
    acc = TorusElement.one(n, truncation)
    for f in factors:
        acc = acc * f
    return acc


def stable_dims(z: StabilityFunction, include_delta: bool = False) -> List[DimVector]:
    """Dimension vectors of the stable objects, phases strictly
    decreasing; the delta-stable one only with include_delta."""
    report = stable_objects(z)
    return [z.quiver.dim_of_indec(r) for r in report.stables
            if include_delta or r != report.delta_stable]


def ez_factors(z: StabilityFunction, truncation: int
               ) -> Tuple[List[DimVector], List[TorusElement]]:
    """Dimension vectors and dilogarithms of the stable objects, as
    :func:`stable_dims` orders them."""
    dims = stable_dims(z)
    return dims, [dilog(z.n, truncation, d) for d in dims]


def ez(z: StabilityFunction, truncation: int) -> TorusElement:
    """Dilogarithm product over stable objects of dimension != delta,
    phases strictly decreasing left to right."""
    return ordered_product(ez_factors(z, truncation)[1], z.n, truncation)


def phase_indecomposables(z: StabilityFunction, truncation: int,
                          phase: GaussianRational) -> List[Indecomposable]:
    """Semistable uniserials of length <= truncation with the given phase."""
    ray = _ray(phase)
    return [r for r in z.quiver.enumerate_indecomposables(truncation)
            if _cross(z._icharge(r.socle, r.length), ray) == 0 and is_semistable(z, r)]


def semistable_phase_factor(z: StabilityFunction, truncation: int,
                            phase: GaussianRational) -> TorusElement:
    """Integration of one phase subcategory: the sum of integrate over
    all semistables of that phase, direct sums included, as one
    :func:`integrate_multisets` walk over the semistable uniserials of the
    phase (a semistable of a discrete function is a direct sum of them)."""
    return integrate_multisets(z.quiver, phase_indecomposables(z, truncation, phase),
                               truncation)


def ez_delta(z: StabilityFunction, truncation: int) -> TorusElement:
    """Integration of the delta-phase subcategory."""
    return semistable_phase_factor(z, truncation, charge_of(z, z.quiver.delta))


def torus_diff(a: TorusElement, b: TorusElement,
               limit: Optional[int] = 20) -> List[dict]:
    """Keys where two elements disagree, for failure witnesses."""
    keys = sorted(set(a.terms) | set(b.terms))
    out = []
    for d in keys:
        ca = a.coefficient(d)
        cb = b.coefficient(d)
        if ca != cb:
            out.append({"dim": list(d), "left": ca.to_json(), "right": cb.to_json()})
            if limit is not None and len(out) >= limit:
                break
    return out
