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
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .exact import (GaussianRational, LaurentPoly, RationalFunction, RF_ONE,
                    RF_ZERO)
from .quiver import CyclicQuiver, DimVector, Indecomposable, ModuleIso
from .stability import (StabilityFunction, charge_of, charge_of_indec,
                        is_semistable, phase_eq, stable_objects)


class TorusElement:
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

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("TorusElement is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int, truncation: int) -> "TorusElement":
        return TorusElement(n, truncation, {})

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
        return TorusElement(self.n, self.truncation, out)

    def __neg__(self) -> "TorusElement":
        return TorusElement(self.n, self.truncation,
                            {d: -c for d, c in self.terms.items()})

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return self + (-other)

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

    @staticmethod
    def from_json(data: dict) -> "TorusElement":
        terms = {tuple(item["dim"]): RationalFunction.from_json(item["coeff"])
                 for item in data["terms"]}
        return TorusElement(int(data["n"]), int(data["truncation"]), terms)


def convolve(a: TorusElement, b: TorusElement, twist_sign: int = 1) -> TorusElement:
    """Graded product; twist_sign = -1 deliberately flips the twist and is
    only used by sabotage checks."""
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
            k = lam(d, e) * twist_sign
            if k:
                c = c.shifted(k)
            f = tuple(x + y for x, y in zip(d, e))
            s = out.get(f)
            out[f] = c if s is None else s + c
    return TorusElement(n, bound, out)


def torus_inverse(a: TorusElement) -> TorusElement:
    """Two-sided inverse, built degree by degree.

    Requires an invertible constant term; the inverse of the truncation
    of an invertible series is the truncation of its inverse.
    """
    n, bound = a.n, a.truncation
    lam = CyclicQuiver(n).lambda_form
    c0 = a.constant_term
    if c0.is_zero:
        raise ZeroDivisionError("constant term is zero; no inverse")
    c0_inv = c0.inv()
    zero_key = (0,) * n
    by_total: Dict[int, List[Tuple[DimVector, RationalFunction]]] = {}
    for d, c in a.terms.items():
        if d != zero_key:
            by_total.setdefault(sum(d), []).append((d, c))
    out: Dict[DimVector, RationalFunction] = {zero_key: c0_inv}
    for total in range(1, bound + 1):
        for f in _dim_vectors_with_total(n, total):
            acc = RF_ZERO
            for td, items in by_total.items():
                if td > total:
                    continue
                for d, cd in items:
                    e = tuple(x - y for x, y in zip(f, d))
                    if any(x < 0 for x in e):
                        continue
                    ce = out.get(e)
                    if ce is None:
                        continue
                    term = cd * ce
                    k = lam(d, e)
                    if k:
                        term = term.shifted(k)
                    acc = acc + term
            if not acc.is_zero:
                out[f] = -(c0_inv * acc)
    return TorusElement(n, bound, out)


def _dim_vectors_with_total(n: int, total: int) -> Iterable[DimVector]:
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _dim_vectors_with_total(n - 1, total - first):
            yield (first,) + rest


def apply_translate(a: TorusElement, k: int = 1) -> TorusElement:
    """Rotate every key by the translation (tau d)_j = d_{j+1 mod n}.

    This is an algebra automorphism because lambda is rotation invariant.
    """
    n = a.n
    k = k % n
    if k == 0:
        return a
    out = {tuple(d[(j + k) % n] for j in range(n)): c for d, c in a.terms.items()}
    return TorusElement(n, a.truncation, out)


# ----------------------------------------------------------------------
# Dilogarithms, integration, and stability products
# ----------------------------------------------------------------------

def dilog_coefficient(m: int) -> RationalFunction:
    """Coefficient of y^(m*d) in E(y^d): t^(m^2) / prod_j (q^m - q^j)."""
    if m == 0:
        return RF_ONE
    den = LaurentPoly.one()
    for j in range(m):
        den = den * (LaurentPoly.q_power(m) - LaurentPoly.q_power(j))
    return RationalFunction(LaurentPoly.t_power(m * m), den)


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


def integrate_modules(q: CyclicQuiver, truncation: int,
                      modules: Iterable[ModuleIso]) -> TorusElement:
    """Sum of the images t^chi(dM,dM) / |Aut M|(q) * y^(dim M) over the
    given iso classes; classes above the truncation bound drop out."""
    acc: Dict[DimVector, RationalFunction] = {}
    for m in modules:
        d = q.dim_of(m)
        if sum(d) > truncation:
            continue
        c = RationalFunction(LaurentPoly.t_power(q.euler_form(d, d)), q.aut_poly(m))
        s = acc.get(d)
        acc[d] = c if s is None else s + c
    return TorusElement(q.n, truncation, acc)


def integrate(q: CyclicQuiver, m: ModuleIso, truncation: int) -> TorusElement:
    """Image of the iso class M: t^chi(dM,dM) / |Aut M|(q) * y^(dim M)."""
    return integrate_modules(q, truncation, [m])


def integrate_iso_sum(q: CyclicQuiver, truncation: int,
                      keep: Optional[Callable[[ModuleIso], bool]] = None) -> TorusElement:
    """Sum of integrate over every iso class of total dim <= truncation
    passing the filter.  The zero class contributes the unit."""
    modules: Iterable[ModuleIso] = q.enumerate_iso_classes(truncation)
    if keep is not None:
        modules = (m for m in modules if keep(m))
    return integrate_modules(q, truncation, modules)


def ordered_product(factors: Iterable[TorusElement], n: int, truncation: int) -> TorusElement:
    acc = TorusElement.one(n, truncation)
    for f in factors:
        acc = acc * f
    return acc


def ez_factors(z: StabilityFunction, truncation: int, include_delta: bool = False
               ) -> Tuple[List[DimVector], List[TorusElement]]:
    """Dimension vectors and dilogarithms of the stable objects, phases
    strictly decreasing; the delta-stable one only with include_delta."""
    report = stable_objects(z)
    dims = [z.quiver.dim_of_indec(r) for r in report.stables
            if include_delta or r != report.delta_stable]
    return dims, [dilog(z.n, truncation, d) for d in dims]


def ez(z: StabilityFunction, truncation: int) -> TorusElement:
    """Dilogarithm product over stable objects of dimension != delta,
    phases strictly decreasing left to right."""
    return ordered_product(ez_factors(z, truncation)[1], z.n, truncation)


def phase_indecomposables(z: StabilityFunction, truncation: int,
                          phase: GaussianRational) -> List[Indecomposable]:
    """Semistable uniserials of length <= truncation with the given phase."""
    return [r for r in z.quiver.enumerate_indecomposables(truncation)
            if phase_eq(charge_of_indec(z, r), phase) and is_semistable(z, r)]


def multisets_with_budget(parts: List[Indecomposable], budget: int,
                          weight: Callable[[Indecomposable], int]) -> Iterable[ModuleIso]:
    """All multisets of the given parts with total weight <= budget."""

    def extend(idx: int, left: int, acc: List[Indecomposable]):
        yield ModuleIso.of(*acc)
        for i in range(idx, len(parts)):
            w = weight(parts[i])
            if w <= left:
                acc.append(parts[i])
                yield from extend(i, left - w, acc)
                acc.pop()

    yield from extend(0, budget, [])


def semistable_phase_factor(z: StabilityFunction, truncation: int,
                            phase: GaussianRational) -> TorusElement:
    """Integration of one phase subcategory: the sum of integrate over
    all semistables of that phase, direct sums included."""
    parts = phase_indecomposables(z, truncation, phase)
    return integrate_modules(z.quiver, truncation,
                             multisets_with_budget(parts, truncation, lambda r: r.length))


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
