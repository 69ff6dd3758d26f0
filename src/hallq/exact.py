"""Exact arithmetic tower for the coefficient field Q(t).

Everything downstream works over the field of rational functions in one
formal variable t, with the convention q = t**2, so integer and
half-integer powers of q are both plain powers of t.  Layers:

* big rationals -- stdlib :class:`fractions.Fraction`
* Gaussian rationals -- exact complex numbers used as central charges
* Laurent polynomials in t with integer coefficients
* the fraction field Q(t), kept in canonical reduced form with integer
  numerator and denominator, so a rational scalar lives in the denominator

Reduction to canonical form needs polynomial gcds over Z.  There is one,
the primitive pseudo-remainder gcd ``_ipoly_gcd``; ``_icofactors`` divides
it out of both inputs in the ``RationalFunction`` constructor and ``+``.
No CLI command reaches them: only the public API does (the tests' oracles
use it), and the torus fallback ``_convolve_reference``, which a product
takes only for a coefficient with no Phi-exponents (built neither by the
kernel nor over 1, such as 1/2).  The torus's sums have cyclotomic
denominators, which the private kernel ``_cyclo_sum`` cancels by exact
division alone, each division by Phi_i after a fold test: Phi_i divides
t^i - 1, so it divides p exactly when it divides p mod (t^i - 1), of
degree < i.  The fold test decides, and the division is exact.  Ahead of
it, one integer rules most Phi_i out: the value p(X) at X = 2^64, the
point of the heuristic gcd of Char, Geddes and Gonnet.  Phi_i is monic,
so Phi_i | p gives Phi_i(X) | p(X), and a nonzero p(X) mod Phi_i(X)
proves that Phi_i does not divide p.  The certificate only ever says
"does not divide".  When the remainder r of p by Phi_i is nonzero with
coefficients far below X, 0 < |r(X)| < Phi_i(X) and Phi_i is ruled out.
So the dilogarithm products and iso-class sums of the benchmark's
commands run no fold test, and each one the integration sums run divides.
The kernel is memoised on its one argument, a tuple of terms (exps, s,
ints) with a tuple numerator, which is its only entry: dilogarithm
products and rotated class sums hand it the same term tuples again and
again.
Sharing a result is exact, since the reduction is a pure function of its
terms and the result is immutable.
A kernel result holds its denominator only as the exponent vector of its
factors Phi_i, which the next product reads directly; reading ``den``, as
the JSON output or a hash does, takes the polynomial from the memo of
``_cyclo_den`` (one pass per binomial t^d - 1 of the product).

No floating point is used anywhere; phase comparisons between Gaussian
rationals are decided by exact cross products.  All values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, index, sub
from typing import Iterable, Optional, Sequence, Union

Rat = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function (or Laurent polynomial) at a pole."""


class PhaseDomainError(ValueError):
    """A charge fell outside the closed upper half plane slit at zero."""


class BudgetError(ValueError):
    """An enumeration or a search exceeded its budget; the CLI maps it to
    exit code 2."""


class Immutable:
    """Base of the value classes: each sets its `__slots__` once, when it
    is built, through `object.__setattr__`; assignment afterwards raises.
    Equality and hash compare the tuple `_astuple()` within one class; a
    class on a hot path overrides them with direct field comparisons."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        """The public slots in slot order; a slot named with a leading `_`
        is private (a cache derived from them, or a form of them) and is
        left out."""
        return tuple([getattr(self, k) for k in self.__slots__ if not k.startswith("_")])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__
                           if not k.startswith("_"))
        return f"{type(self).__name__}({fields})"


def frac_str(x: Rat) -> str:
    """Render a rational as 'p' or 'p/q' (canonical, reduced)."""
    return str(Fraction(x))


# ----------------------------------------------------------------------
# Gaussian rationals and exact phase comparison
# ----------------------------------------------------------------------

class GaussianRational(Immutable):
    """An exact complex number re + im*i with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @staticmethod
    def of(re: Rat, im: Rat = 0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def scale(self, k: Rat) -> "GaussianRational":
        f = Fraction(k)
        return GaussianRational(self.re * f, self.im * f)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def cross(self, other: "GaussianRational") -> Fraction:
        """re(self)*im(other) - im(self)*re(other), exact."""
        return self.re * other.im - self.im * other.re

    def to_json(self) -> list:
        return [frac_str(self.re), frac_str(self.im)]

    @staticmethod
    def from_json(data: Sequence[str]) -> "GaussianRational":
        if len(data) != 2:
            raise ValueError("gaussian rational must be a [re, im] pair")
        return GaussianRational(Fraction(data[0]), Fraction(data[1]))

    def __str__(self) -> str:
        return f"({frac_str(self.re)}) + ({frac_str(self.im)})*i"


def require_phase_domain(z: GaussianRational) -> None:
    # admissible: im > 0, or im == 0 with re > 0 (phase in [0, pi))
    if z.im > 0:
        return
    if z.im == 0 and z.re > 0:
        return
    raise PhaseDomainError(f"charge {z} has no phase in [0, pi)")


def phase_cmp(z: GaussianRational, w: GaussianRational) -> int:
    """-1, 0, +1 according to arg(z) <, =, > arg(w); args in [0, pi).

    For z, w in the closed upper half plane minus the nonpositive reals,
    arg(z) < arg(w) holds exactly when the cross product
    re(z)*im(w) - im(z)*re(w) is positive.
    """
    require_phase_domain(z)
    require_phase_domain(w)
    c = z.cross(w)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


# ----------------------------------------------------------------------
# Integer polynomial helpers (dense, ascending, private)
# ----------------------------------------------------------------------
# A polynomial is a tuple of ints with nonzero last entry; () is zero.


def _itrim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _iconv(a: Sequence[int], b: Sequence[int]) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _itrim(out)


def _iadd_at(acc: list, off: int, a: Sequence[int]) -> None:
    end = off + len(a)
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    acc[off:end] = map(add, acc[off:end], a)


def _icontent(a: Sequence[int]) -> int:
    g = 0
    for x in a:
        g = gcd(g, abs(x))
        if g == 1:
            return 1
    return g


def _iprimitive(a: Sequence[int]) -> tuple:
    g = _icontent(a)
    if g <= 1:
        return tuple(a)
    return tuple(x // g for x in a)


def _ipseudo_rem(u: Sequence[int], v: Sequence[int]) -> tuple:
    # scaled remainder of u by v; agrees with the true remainder up to a
    # nonzero rational factor, which is all a gcd chain needs
    r = list(u)
    dv = len(v) - 1
    lv = v[-1]
    while len(r) - 1 >= dv:
        if r[-1] == 0:
            r.pop()
            continue
        lead = r[-1]
        shift = len(r) - 1 - dv
        for i in range(len(r)):
            r[i] *= lv
        for j in range(len(v)):
            r[shift + j] -= lead * v[j]
        r.pop()
    return _itrim(r)


def _ipoly_gcd(a: Sequence[int], b: Sequence[int]) -> tuple:
    """Primitive gcd with positive leading coefficient; () only if both zero."""
    a = _iprimitive(a)
    b = _iprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _ipseudo_rem(a, b)
        a, b = b, _iprimitive(r)
    if a and a[-1] < 0:
        a = tuple(-x for x in a)
    return a


def _iexact_div(a: Sequence[int], b: Sequence[int]) -> tuple:
    """Quotient a // b assuming exact division in Z[x]."""
    if not a:
        return ()
    r = list(a)
    lb = b[-1]
    out = [0] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = r[k + len(b) - 1]
        if c % lb != 0:
            raise ArithmeticError("inexact polynomial division")
        c //= lb
        out[k] = c
        if c:
            for j in range(len(b)):
                r[k + j] -= c * b[j]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return _itrim(out)


def _icofactors(a: tuple, b: tuple) -> tuple:
    """(a / g, b / g) for g = _ipoly_gcd(a, b); content and sign stay on them."""
    g = _ipoly_gcd(a, b)
    if g == (1,):
        return a, b
    return _iexact_div(a, g), _iexact_div(b, g)


# ----------------------------------------------------------------------
# Laurent polynomials in t over Z
# ----------------------------------------------------------------------

class LaurentPoly(Immutable):
    """A Laurent polynomial in t with integer coefficients.

    ``t_low`` is the exponent of the first stored coefficient; the first
    and last stored integers are nonzero (the zero polynomial stores
    nothing), so equality is structural.  Rational scalars of Q(t) live in
    the denominator of a :class:`RationalFunction`.
    """

    __slots__ = ("t_low", "_ints")

    def __init__(self, t_low: int, ints: Sequence[int]):
        ints = list(map(index, ints))
        lead = 0
        while ints and ints[0] == 0:
            ints.pop(0)
            lead += 1
        while ints and ints[-1] == 0:
            ints.pop()
        object.__setattr__(self, "t_low", t_low + lead if ints else 0)
        object.__setattr__(self, "_ints", tuple(ints))

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _LP_ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _LP_ONE

    @staticmethod
    def t_power(k: int) -> "LaurentPoly":
        return LaurentPoly(k, (1,))

    @staticmethod
    def q_power(k: int) -> "LaurentPoly":
        """t**(2k); q means t squared throughout."""
        return LaurentPoly(2 * k, (1,))

    @staticmethod
    def constant(c: int) -> "LaurentPoly":
        return LaurentPoly(0, (c,))

    @staticmethod
    def from_q_coeffs(coeffs: Iterable[int]) -> "LaurentPoly":
        """Polynomial in q = t**2 from ascending integer coefficients."""
        out = []
        for c in coeffs:
            out.append(c)
            out.append(0)
        if out:
            out.pop()
        return LaurentPoly(0, out)

    # -- inspection -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def t_high(self) -> int:
        if not self._ints:
            return 0
        return self.t_low + len(self._ints) - 1

    @property
    def coefficients(self) -> tuple:
        """Coefficients as ints, ascending from t_low."""
        return self._ints

    def coefficient(self, k: int) -> int:
        i = k - self.t_low
        if 0 <= i < len(self._ints):
            return self._ints[i]
        return 0

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.t_low, other.t_low)
        out = [0] * (max(self.t_high, other.t_high) - lo + 1)
        _iadd_at(out, self.t_low - lo, self._ints)
        _iadd_at(out, other.t_low - lo, other._ints)
        return LaurentPoly(lo, out)

    def __neg__(self) -> "LaurentPoly":
        if self.is_zero:
            return self
        return LaurentPoly(self.t_low, [-x for x in self._ints])

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return _LP_ZERO
        return LaurentPoly(self.t_low + other.t_low, _iconv(self._ints, other._ints))

    def shifted(self, k: int) -> "LaurentPoly":
        if self.is_zero or k == 0:
            return self
        return LaurentPoly(self.t_low + k, self._ints)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = _LP_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def eval(self, t0: Rat) -> Fraction:
        t0 = Fraction(t0)
        if self.is_zero:
            return Fraction(0)
        if t0 == 0:
            if self.t_low < 0:
                raise PoleError("negative power of t evaluated at t = 0")
            return Fraction(self._ints[0]) if self.t_low == 0 else Fraction(0)
        acc = Fraction(0)
        for x in reversed(self._ints):
            acc = acc * t0 + x
        return acc * t0 ** self.t_low

    def eval_even_at_q(self, q0: Rat) -> Fraction:
        """Evaluate a polynomial supported on even powers of t at t**2 = q0."""
        q0 = Fraction(q0)
        acc = Fraction(0)
        for i, x in enumerate(self._ints):
            if x == 0:
                continue
            e = self.t_low + i
            if e % 2 != 0:
                raise ValueError("odd power of t; not a polynomial in q")
            acc += x * q0 ** (e // 2)
        return acc

    # -- comparisons & misc ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.t_low == other.t_low and self._ints == other._ints

    def __hash__(self) -> int:
        return hash((self.t_low, self._ints))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, x in enumerate(self._ints):
            if x == 0:
                continue
            e = self.t_low + i
            if e == 0:
                parts.append(str(x))
            else:
                head = "" if x == 1 else ("-" if x == -1 else f"{x}*")
                parts.append(f"{head}t^{e}" if e != 1 else f"{head}t")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def to_json(self) -> dict:
        return {"t_low": self.t_low, "coeffs": list(map(str, self._ints))}

    @staticmethod
    def from_json(data: dict) -> "LaurentPoly":
        """The inverse of to_json; a coefficient that is not an integer
        raises ValueError."""
        return LaurentPoly(int(data["t_low"]), [int(c) for c in data["coeffs"]])


@lru_cache(maxsize=4096)
def _den_strs(ints: tuple) -> tuple:
    """A denominator's coefficients as strings.  Denominators repeat across
    the terms of an element (227 distinct among the 18,564 of ez(6, 12)),
    so RationalFunction.to_json renders each once."""
    return tuple(map(str, ints))


_LP_ZERO = LaurentPoly(0, ())
_LP_ONE = LaurentPoly(0, (1,))


# ----------------------------------------------------------------------
# Rational functions in t
# ----------------------------------------------------------------------

def _normal_form(shift: int, a: tuple, b: tuple) -> tuple:
    """(num, den) of t^shift a / b for a and b coprime: their common
    content and the sign of b's leading coefficient divided out of both."""
    g = gcd(_icontent(a), _icontent(b))
    if b[-1] < 0:
        g = -g
    if g != 1:
        a, b = [x // g for x in a], [x // g for x in b]
    return LaurentPoly(shift, a), LaurentPoly(0, b)


class RationalFunction(Immutable):
    """An element of Q(t) in canonical form.

    Invariants: num and den have integer coefficients; den is nonzero, with
    lowest exponent 0 and a positive leading coefficient; num and den are
    coprime once powers of t are cleared, and so are their contents; the
    zero element is 0/1.  So a rational scalar such as 1/2 is held as 1 over
    the constant 2.  With this normal form equality is structural;
    :func:`rf_eq` offers the cross-multiplication test that never relies
    on it.

    The denominator has one home.  A result of the cyclotomic kernel, and
    any value over 1, holds the exponent vector ``_exps`` of den = prod
    Phi_i^e_i (() for 1), and ``den`` reads it from the memo of
    :func:`_cyclo_den`; any other value holds its denominator ``_den``.
    Two factored values compare by (num, exponents), which the unique
    factorisation into the irreducible Phi_i makes the same test as (num,
    den); the hash is that of (num, den) either way.
    """

    __slots__ = ("num", "_den", "_exps")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _LP_ONE):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = _LP_ZERO, _LP_ONE
        else:
            a, b = _icofactors(num._ints, den._ints)
            num, den = _normal_form(num.t_low - den.t_low, a, b)
        self._fill(num, den, None)

    def _fill(self, num: LaurentPoly, den: Optional[LaurentPoly],
              exps: Optional[tuple]) -> None:
        """Set the slots from num and one of den and exps; a denominator 1
        is held as the exponents ()."""
        if den is not None and den._ints == (1,):
            den, exps = None, ()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_exps", exps)

    @staticmethod
    def _trusted(num: LaurentPoly, den: Optional[LaurentPoly],
                 exps: Optional[tuple] = None) -> "RationalFunction":
        """A value known to be canonical, given by its denominator or by
        the exponent vector of a cyclotomic one (den None)."""
        out = object.__new__(RationalFunction)
        out._fill(num, den, exps)
        return out

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "RationalFunction":
        return RF_ZERO

    @staticmethod
    def constant(c: Rat) -> "RationalFunction":
        f = Fraction(c)
        return RationalFunction(LaurentPoly.constant(f.numerator),
                                LaurentPoly.constant(f.denominator))

    @staticmethod
    def t_power(k: int) -> "RationalFunction":
        return RationalFunction._trusted(LaurentPoly.t_power(k), _LP_ONE)

    # -- inspection -------------------------------------------------------

    @property
    def den(self) -> LaurentPoly:
        exps = self._exps
        return self._den if exps is None else _cyclo_den(exps)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        da, db = self.den, other.den
        qa, qb = _icofactors(da._ints, db._ints)
        # a/da + b/db = (a qb + b qa) / (da qb), with da qb = db qa
        red_b = LaurentPoly(0, qb)
        num = self.num * red_b + other.num * LaurentPoly(0, qa)
        return RationalFunction(num, da * red_b)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._trusted(-self.num, self._den, self._exps)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def inv(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero rational function")
        n, d = self.num, self.den  # coprime already: no gcd
        return RationalFunction._trusted(*_normal_form(-n.t_low, d._ints, n._ints))

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        return self * other.inv()

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return self.inv() ** (-n)
        # powers of coprime polynomials stay coprime, and so do their
        # contents; the leading coefficient of den stays positive
        return RationalFunction._trusted(self.num ** n, self.den ** n)

    def shifted(self, k: int) -> "RationalFunction":
        """Multiply by t**k (cheap; canonical form is preserved)."""
        if k == 0 or self.is_zero:
            return self
        return RationalFunction._trusted(self.num.shifted(k), self._den, self._exps)

    def eval(self, t0: Rat) -> Fraction:
        t0 = Fraction(t0)
        d = self.den.eval(t0)
        if d == 0:
            raise PoleError(f"pole at t = {t0}")
        return self.num.eval(t0) / d

    # -- comparisons & misc -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self._exps is not None and other._exps is not None:
            return self.num == other.num and self._exps == other._exps
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if self._exps == ():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"

    def to_json(self) -> dict:
        """The denominator's strings come from a cache, as a fresh list."""
        den = self.den
        return {"num": self.num.to_json(),
                "den": {"t_low": den.t_low, "coeffs": list(_den_strs(den._ints))}}

    @staticmethod
    def from_json(data: dict) -> "RationalFunction":
        return RationalFunction(LaurentPoly.from_json(data["num"]),
                                LaurentPoly.from_json(data["den"]))


RF_ZERO = RationalFunction._trusted(_LP_ZERO, _LP_ONE)
RF_ONE = RationalFunction._trusted(_LP_ONE, _LP_ONE)


# ----------------------------------------------------------------------
# Sums over cyclotomic denominators (private kernel of the torus)
# ----------------------------------------------------------------------
# A denominator prod_i Phi_i(t)^e_i is held as its exponent vector, a
# tuple of (i, e_i) pairs with i ascending and every e_i > 0; () is 1.
# Since each Phi_i is irreducible over Q, a sum lifted to the
# exponent-wise maximum of its denominators is brought to lowest terms by
# exact division by the Phi_i alone, with no gcd.


def _cyclotomic(i: int) -> tuple:
    """Phi_i(t), ascending, read from the memo of :func:`_cyclo_den`."""
    return _cyclo_den(((i, 1),))._ints


def _moebius(m: int) -> int:
    """The Moebius function mu(m) of m >= 1."""
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


@lru_cache(maxsize=None)
def _cyclo_den(exps: tuple) -> LaurentPoly:
    """The monic denominator prod Phi_i^e_i.

    Phi_i = prod_{d | i} (t^d - 1)^mu(i/d), so the product is prod_d
    (t^d - 1)^a_d with a_d = sum_{d | i} mu(i/d) e_i.  Each binomial factor
    is one pass over the coefficients: p t^d - p to multiply, and the
    recurrence q_j = q_{j-d} - p_j for the exact quotient q = p / (t^d - 1).
    The multiplications come first, so each division is exact."""
    a: dict = {}
    for i, e in exps:
        for d in range(1, i + 1):
            if i % d == 0:
                a[d] = a.get(d, 0) + _moebius(i // d) * e
    p = [1]
    for d, k in a.items():
        for _ in range(k):
            p = list(map(sub, [0] * d + p, p + [0] * d))
    for d, k in a.items():
        for _ in range(-k):
            q = [-x for x in p[:d]]
            for j in range(d, len(p) - d, d):
                q.extend(map(sub, q[j - d:j], p[j:j + d]))
            p = q[:len(p) - d]
    return LaurentPoly(0, p)


@lru_cache(maxsize=None)
def _exps_merge(a: tuple, b: tuple, op=add) -> tuple:
    """Exponent vectors combined entrywise: add for a product, max for an lcm."""
    out = dict(a)
    for i, e in b:
        out[i] = op(out.get(i, 0), e)
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _exps_sub(a: tuple, b: tuple) -> tuple:
    """a - b for b <= a entrywise."""
    have = dict(b)
    return tuple((i, e - have.get(i, 0)) for i, e in a if e > have.get(i, 0))


@lru_cache(maxsize=None)
def _q_factor_exps(ks: tuple) -> tuple:
    """Exponents of prod_{k in ks} (q^k - 1), as q^k - 1 = prod_{i | 2k} Phi_i."""
    out = ()
    for k in ks:
        out = _exps_merge(out, tuple((i, 1) for i in range(1, 2 * k + 1) if 2 * k % i == 0))
    return out


def _fold_divisible(p: Sequence[int], i: int) -> bool:
    """Whether Phi_i divides p, decided on the fold r_j = sum_k p[j + k*i],
    the remainder of p by t^i - 1: Phi_i divides t^i - 1, so it divides p
    exactly when it divides r, of degree < i."""
    r = _itrim([sum(p[j::i]) for j in range(min(i, len(p)))])
    phi = _cyclotomic(i)
    if len(r) < len(phi):
        return not r
    try:
        _iexact_div(r, phi)
    except ArithmeticError:
        return False
    return True


def _at_x(p: Sequence[int]) -> int:
    """p(X) at the certificate's point X = 2^64, by Horner with shifts."""
    v = 0
    for c in reversed(p):
        v = (v << 64) + c
    return v


def _divide_out(p: tuple, v: int, i: int, most: int) -> tuple:
    """(p / Phi_i^e, its value at X, e) for the largest e <= most with
    Phi_i^e dividing p, given v = p(X) at X = 2^64.

    The value is a certificate of non-divisibility: Phi_i is monic, so
    Phi_i | p in Z[t] gives Phi_i(X) | p(X), and a nonzero p(X) mod
    Phi_i(X) proves that Phi_i does not divide p, with no fold test.  It
    never says "divides": when the remainder is 0, the fold test decides,
    so each division it allows is exact; an inexact one raises
    ArithmeticError.  After each division the value is divided by
    Phi_i(X) too."""
    phi = _cyclotomic(i)
    phi_x = _at_x(phi)
    e = 0
    while e < most and len(phi) <= len(p) and v % phi_x == 0 and _fold_divisible(p, i):
        p = _iexact_div(p, phi)
        v //= phi_x
        e += 1
    return p, v, e


@lru_cache(maxsize=None)
def _cyclo_sum(terms: tuple) -> RationalFunction:
    """Canonical sum of the terms (exps, s, ints), each meaning
    t^s * ints / prod Phi_i^e_i with ints a tuple of ascending integer
    coefficients.

    The tuple of terms is the memo key, so a term tuple reduced before in
    the process costs one lookup.  This is exact: the reduction is a pure
    function of its terms, and a RationalFunction is immutable, so one
    result can be shared.

    Terms over one denominator are added first; each such group is lifted
    to the exponent-wise maximum of all denominators, and every Phi_i is
    then cancelled from the integer numerator by exact division, each
    division tried only once the fold test of :func:`_divide_out` allows it.
    A group of one term (most groups of a torus sum) is lifted and added at
    its shift directly, with no sum of its own; no group is lifted whose
    denominator is the maximum.  The numerator's value at X = 2^64 is
    taken once, and :func:`_divide_out` rules out each Phi_i that leaves
    a nonzero remainder there without a fold test.
    """
    groups: dict = {}
    for term in terms:
        groups.setdefault(term[0], []).append(term)
    lo = min([s for _, s, _ in terms], default=0)
    top = ()
    for exps in groups:
        top = _exps_merge(top, exps, max)
    total: list = []
    for exps, group in groups.items():
        if len(group) == 1:
            _, s, a = group[0]
            at = s - lo
        else:
            a, at = [], 0
            for _, s, b in group:
                _iadd_at(a, s - lo, b)
        if exps != top:
            a = _iconv(a, _cyclo_den(_exps_sub(top, exps))._ints)
        _iadd_at(total, at, a)
    num = _itrim(total)
    if not num:
        return RF_ZERO
    k = next(j for j, x in enumerate(num) if x)
    num, lo = num[k:], lo + k
    left = top
    if len(num) > 1 and top:  # no Phi_i divides a monomial
        v = _at_x(num)
        left = []
        for i, e in top:
            num, v, done = _divide_out(num, v, i, e)
            if done < e:
                left.append((i, e - done))
        left = tuple(left)
    return RationalFunction._trusted(LaurentPoly(lo, num), None, left)


# ----------------------------------------------------------------------
# Equality without the canonical form
# ----------------------------------------------------------------------

def rf_eq(a: RationalFunction, b: RationalFunction) -> bool:
    """Equality by cross multiplication; independent of canonical form."""
    return a.num * b.den == b.num * a.den
