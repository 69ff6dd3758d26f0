"""The quantum torus at a point t = t0, the oracle of the torus layer's values.

Evaluation at a rational t0 that is neither 0 nor a root of unity is a
ring map Q(t) -> Q, so every product of the torus over Q(t), evaluated
key by key at t0, is the product in the torus over Q twisted by
t0^lambda.  This module computes in that torus with no code from the
polynomial stack: an element is a dict of dimension vector -> Fraction,
lambda comes from the Euler form written out here, and a coefficient of
the torus layer is evaluated from the integers of its numerator and its
Phi-exponents alone, never from its expanded denominator.
"""

from fractions import Fraction
from typing import Dict, Sequence, Tuple

Key = Tuple[int, ...]
PointElement = Dict[Key, Fraction]


def euler_form(d: Sequence[int], e: Sequence[int]) -> int:
    """chi(d, e) = sum_a d_a e_a - sum over the arrows a -> a - 1 (mod n)
    of d_a e_(a-1), vertices counted from 0."""
    n = len(d)
    return (sum(d[a] * e[a] for a in range(n))
            - sum(d[a] * e[(a - 1) % n] for a in range(n)))


def twist(d: Key, e: Key) -> int:
    """lambda(d, e) = chi(d, e) - chi(e, d)."""
    return euler_form(d, e) - euler_form(e, d)


def dilog_at(t0: Fraction, d: Key, truncation: int) -> PointElement:
    """E(y^d) at t0: c_m y^(m d) with c_0 = 1 and
    c_m = c_(m-1) t0 / (t0^(2m) - 1)."""
    out = {}
    c, m = Fraction(1), 0
    while m * sum(d) <= truncation:
        out[tuple(m * x for x in d)] = c
        m += 1
        c = c * t0 / (t0 ** (2 * m) - 1)
    return out


def product_at(t0: Fraction, a: PointElement, b: PointElement, truncation: int) -> PointElement:
    """a * b, each pair twisted by t0^lambda(d, e), keys above the truncation dropped."""
    out: PointElement = {}
    for d, x in a.items():
        for e, y in b.items():
            if sum(d) + sum(e) <= truncation:
                f = tuple(u + v for u, v in zip(d, e))
                out[f] = out.get(f, 0) + x * y * t0 ** twist(d, e)
    return out


def ordered_product_at(t0: Fraction, dims: Sequence[Key], n: int,
                       truncation: int) -> PointElement:
    """E(y^d1) * E(y^d2) * ... at t0, left to right."""
    acc = {(0,) * n: Fraction(1)}
    for d in dims:
        acc = product_at(t0, acc, dilog_at(t0, d, truncation), truncation)
    return acc


def inverse_at(t0: Fraction, a: PointElement, n: int, truncation: int) -> PointElement:
    """a^-1 by the geometric series: a = c0 (1 + u), a^-1 = sum_j (-u)^j c0^-1."""
    zero = (0,) * n
    scale = 1 / a[zero]
    minus_u = {d: -x * scale for d, x in a.items() if d != zero}
    out, power = {zero: scale}, {zero: scale}
    for _ in range(truncation):
        power = product_at(t0, minus_u, power, truncation)
        for d, x in power.items():
            out[d] = out.get(d, 0) + x
    return out


def _moebius(m: int) -> int:
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def phi_at(t0: Fraction, i: int) -> Fraction:
    """Phi_i(t0) = prod_{d | i} (t0^d - 1)^mu(i/d)."""
    out = Fraction(1)
    for d in range(1, i + 1):
        if i % d == 0:
            out *= (t0 ** d - 1) ** _moebius(i // d)
    return out


def poly_at(t0: Fraction, p) -> Fraction:
    """A Laurent polynomial at t0, from its integers."""
    return sum(Fraction(x) * t0 ** (p.t_low + k) for k, x in enumerate(p._ints))


def coefficient_at(t0: Fraction, c) -> Fraction:
    """A coefficient of the torus layer at t0: num(t0) from the integers of
    its numerator, over prod Phi_i(t0)^e_i from its exponents `_exps`."""
    value = poly_at(t0, c.num)
    for i, e in c._exps:
        value /= phi_at(t0, i) ** e
    return value


def element_at(t0: Fraction, a) -> PointElement:
    """A TorusElement evaluated key by key."""
    return {d: coefficient_at(t0, c) for d, c in a.terms.items()}


def same_at_point(x: PointElement, y: PointElement) -> bool:
    """Key-by-key equality, a key missing on one side counting as 0."""
    return all(x.get(d, 0) == y.get(d, 0) for d in set(x) | set(y))
