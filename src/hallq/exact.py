"""Exact arithmetic tower for the coefficient field Q(t).

Everything downstream works over the field of rational functions in one
formal variable t, with the convention q = t**2, so integer and
half-integer powers of q are both plain powers of t.  Layers:

* big rationals -- stdlib :class:`fractions.Fraction`
* Gaussian rationals -- exact complex numbers used as central charges
* Laurent polynomials in t with rational coefficients
* the fraction field Q(t), kept in canonical reduced form

Reduction to canonical form needs polynomial gcds over Z.  There is one,
the primitive pseudo-remainder gcd ``_ipoly_gcd``; ``_icofactors`` divides
it out of both inputs in the ``RationalFunction`` constructor and ``+``;
only the public API (the tests' oracles use it) and the torus fallback
``_convolve_reference`` reach them, no CLI command.  The torus's sums have
cyclotomic denominators, which the private kernel ``_cyclo_sum`` cancels
by exact division alone, each division by Phi_i after a fold test: Phi_i
divides t^i - 1, so it divides p exactly when it divides p mod (t^i - 1),
of degree < i; the fold rules divisions out, exact division decides.
The kernel is memoised on its input, the tuple of its terms with each
numerator as a tuple: dilogarithm products and rotated class sums hand it
the same term lists again and again.  Sharing a result is exact, since the
reduction is a pure function of its terms and the result is immutable.

No floating point is used anywhere; phase comparisons between Gaussian
rationals are decided by exact cross products.  All values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add
from typing import Iterable, Optional, Sequence, Union

Rat = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function (or Laurent polynomial) at a pole."""


class PhaseDomainError(ValueError):
    """A charge fell outside the closed upper half plane slit at zero."""


class Immutable:
    """Base of the value classes: each sets its `__slots__` once, in
    `__init__`, through `object.__setattr__`; assignment afterwards raises.
    Equality and hash compare the tuple `_astuple()` within one class; a
    class on a hot path overrides them with direct field comparisons."""

    __slots__ = ()

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


def frac_parse(s: str) -> Fraction:
    return Fraction(s)


# ----------------------------------------------------------------------
# Gaussian rationals and exact phase comparison
# ----------------------------------------------------------------------

class GaussianRational(Immutable):
    """An exact complex number re + im*i with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def _astuple(self) -> tuple:
        return self.re, self.im

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
        return GaussianRational(frac_parse(data[0]), frac_parse(data[1]))

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


def phase_lt(z: GaussianRational, w: GaussianRational) -> bool:
    return phase_cmp(z, w) < 0


def phase_le(z: GaussianRational, w: GaussianRational) -> bool:
    return phase_cmp(z, w) <= 0


def phase_eq(z: GaussianRational, w: GaussianRational) -> bool:
    return phase_cmp(z, w) == 0


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
# Laurent polynomials in t over Q
# ----------------------------------------------------------------------

class LaurentPoly(Immutable):
    """A Laurent polynomial in t with rational coefficients.

    Stored as an integer coefficient vector with a single positive
    denominator, content-reduced, so equality is structural.  ``t_low``
    is the exponent of the first stored coefficient; the first and last
    stored integers are nonzero (the zero polynomial stores nothing).
    """

    __slots__ = ("t_low", "_ints", "_den")

    def __init__(self, t_low: int, ints: Sequence[int], den: int = 1):
        ints = list(ints)
        lead = 0
        while ints and ints[0] == 0:
            ints.pop(0)
            lead += 1
        while ints and ints[-1] == 0:
            ints.pop()
        if not ints:
            object.__setattr__(self, "t_low", 0)
            object.__setattr__(self, "_ints", ())
            object.__setattr__(self, "_den", 1)
            return
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            ints = [-x for x in ints]
        g = gcd(_icontent(ints), den)
        if g > 1:
            ints = [x // g for x in ints]
            den //= g
        object.__setattr__(self, "t_low", t_low + lead)
        object.__setattr__(self, "_ints", tuple(ints))
        object.__setattr__(self, "_den", den)

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
    def constant(c: Rat) -> "LaurentPoly":
        f = Fraction(c)
        return LaurentPoly(0, (f.numerator,), f.denominator)

    @staticmethod
    def from_fractions(t_low: int, coeffs: Iterable[Rat]) -> "LaurentPoly":
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        return LaurentPoly(t_low, [f.numerator * (den // f.denominator) for f in fracs], den)

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
        """Coefficients as Fractions, ascending from t_low."""
        d = self._den
        return tuple(Fraction(x, d) for x in self._ints)

    def coefficient(self, k: int) -> Fraction:
        i = k - self.t_low
        if 0 <= i < len(self._ints):
            return Fraction(self._ints[i], self._den)
        return Fraction(0)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.t_low, other.t_low)
        hi = max(self.t_high, other.t_high)
        da, db = self._den, other._den
        g = gcd(da, db)
        l = da // g * db
        ma, mb = l // da, l // db
        out = [0] * (hi - lo + 1)
        for i, x in enumerate(self._ints):
            out[self.t_low - lo + i] += x * ma
        for i, x in enumerate(other._ints):
            out[other.t_low - lo + i] += x * mb
        return LaurentPoly(lo, out, l)

    def __neg__(self) -> "LaurentPoly":
        if self.is_zero:
            return self
        return LaurentPoly(self.t_low, [-x for x in self._ints], self._den)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return _LP_ZERO
        return LaurentPoly(self.t_low + other.t_low,
                           _iconv(self._ints, other._ints),
                           self._den * other._den)

    def shifted(self, k: int) -> "LaurentPoly":
        if self.is_zero or k == 0:
            return self
        return LaurentPoly(self.t_low + k, self._ints, self._den)

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
            return Fraction(self._ints[0], self._den) if self.t_low == 0 else Fraction(0)
        acc = Fraction(0)
        for x in reversed(self._ints):
            acc = acc * t0 + x
        return acc / self._den * t0 ** self.t_low

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
        return acc / self._den

    # -- comparisons & misc ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.t_low == other.t_low and self._ints == other._ints
                and self._den == other._den)

    def __hash__(self) -> int:
        return hash((self.t_low, self._ints, self._den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, x in enumerate(self._ints):
            if x == 0:
                continue
            c = Fraction(x, self._den)
            e = self.t_low + i
            if e == 0:
                parts.append(frac_str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{frac_str(c)}*")
                parts.append(f"{head}t^{e}" if e != 1 else f"{head}t")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def to_json(self) -> dict:
        """Coefficients as frac_str renders them; integers need no Fraction."""
        d = self._den
        if d == 1:
            return {"t_low": self.t_low, "coeffs": [str(x) for x in self._ints]}
        return {"t_low": self.t_low, "coeffs": [frac_str(Fraction(x, d)) for x in self._ints]}

    @staticmethod
    def from_json(data: dict) -> "LaurentPoly":
        return LaurentPoly.from_fractions(int(data["t_low"]),
                                          [frac_parse(c) for c in data["coeffs"]])


_LP_ZERO = LaurentPoly(0, ())
_LP_ONE = LaurentPoly(0, (1,))


# ----------------------------------------------------------------------
# Rational functions in t
# ----------------------------------------------------------------------

def _normal_form(shift: int, a: tuple, da: int, b: tuple, db: int) -> tuple:
    """(num, den) of t^shift (a/da) / (b/db), a and b coprime, as
    [a*db / (da*b_lead)] t^shift / monic(b); LaurentPoly fixes the sign."""
    return LaurentPoly(shift, [x * db for x in a], da * b[-1]), LaurentPoly(0, b, b[-1])


class RationalFunction(Immutable):
    """An element of Q(t) in canonical form.

    Invariants: den is nonzero with lowest exponent 0 and leading
    coefficient 1; gcd(num, den) = 1 once powers of t are cleared; the
    zero element is 0/1.  With this normal form equality is structural;
    :func:`rf_eq` offers the cross-multiplication test that never relies
    on it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _LP_ONE):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            object.__setattr__(self, "num", _LP_ZERO)
            object.__setattr__(self, "den", _LP_ONE)
            return
        a, b = _icofactors(num._ints, den._ints)
        num, den = _normal_form(num.t_low - den.t_low, a, num._den, b, den._den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _trusted(num: LaurentPoly, den: LaurentPoly) -> "RationalFunction":
        out = object.__new__(RationalFunction)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "RationalFunction":
        return RF_ZERO

    @staticmethod
    def constant(c: Rat) -> "RationalFunction":
        return RationalFunction(LaurentPoly.constant(c))

    @staticmethod
    def t_power(k: int) -> "RationalFunction":
        return RationalFunction._trusted(LaurentPoly.t_power(k), _LP_ONE)

    # -- inspection -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        pa, pb = self.den._ints, other.den._ints
        qa, qb = _icofactors(pa, pb)
        # reduced cofactors as monic-free Laurent polys (scalars handled by ctor)
        red_b = LaurentPoly(0, qb, other.den._den)
        red_a = LaurentPoly(0, qa, self.den._den)
        num = self.num * red_b + other.num * red_a
        den = self.den * red_b
        return RationalFunction(num, den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._trusted(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def inv(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero rational function")
        n, d = self.num, self.den  # coprime already: no gcd
        return RationalFunction._trusted(*_normal_form(-n.t_low, d._ints, d._den, n._ints, n._den))

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        return self * other.inv()

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return self.inv() ** (-n)
        # powers of coprime polynomials stay coprime, of a monic one monic
        return RationalFunction._trusted(self.num ** n, self.den ** n)

    def shifted(self, k: int) -> "RationalFunction":
        """Multiply by t**k (cheap; canonical form is preserved)."""
        if k == 0 or self.is_zero:
            return self
        return RationalFunction._trusted(self.num.shifted(k), self.den)

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
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if self.den == _LP_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

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


@lru_cache(maxsize=None)
def _cyclotomic(i: int) -> tuple:
    """Phi_i(t) = (t^i - 1) / prod_{d | i, d < i} Phi_d(t)."""
    out = (-1,) + (0,) * (i - 1) + (1,)
    for d in range(1, i):
        if i % d == 0:
            out = _iexact_div(out, _cyclotomic(d))
    return out


@lru_cache(maxsize=None)
def _cyclo_den(exps: tuple) -> LaurentPoly:
    """The monic denominator prod Phi_i^e_i; its exponents are recorded."""
    if not exps:
        return _LP_ONE
    i, e = exps[-1]
    rest = exps[:-1] + (((i, e - 1),) if e > 1 else ())
    out = LaurentPoly(0, _iconv(_cyclo_den(rest)._ints, _cyclotomic(i)))
    _CYCLO_EXPS[out._ints] = exps
    return out


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


def _divide_out(p: tuple, i: int, most: int) -> tuple:
    """(p / Phi_i^e, e) for the largest e <= most with Phi_i^e dividing p.

    Each division of p is tried only after the fold test has not ruled
    it out; the exact division then decides."""
    phi = _cyclotomic(i)
    e = 0
    while e < most and len(phi) <= len(p) and _fold_divisible(p, i):
        try:
            p = _iexact_div(p, phi)
        except ArithmeticError:
            break
        e += 1
    return p, e


# denominator coefficients -> exponent vector, or None if the denominator
# is not a product of cyclotomic polynomials
_CYCLO_EXPS: dict = {(1,): ()}


def _cyclo_exponents(den: LaurentPoly) -> Optional[tuple]:
    p = den._ints
    if p not in _CYCLO_EXPS:
        found = []
        i = 1
        # phi(i) >= 4 i / 15 for i < 210, so a factor Phi_i of a remainder
        # of degree g has i < 4 g; larger indices are not tried (None)
        while p[-1] == 1 and abs(p[0]) == 1 and len(p) > 1 and i < 4 * len(p):
            p, e = _divide_out(p, i, len(p))
            if e:
                found.append((i, e))
            i += 1
        _CYCLO_EXPS[den._ints] = tuple(found) if p == (1,) else None
    return _CYCLO_EXPS[den._ints]


def _iadd_at(acc: list, off: int, a: Sequence[int]) -> None:
    end = off + len(a)
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    acc[off:end] = map(add, acc[off:end], a)


def _cyclo_sum(terms: Iterable[tuple]) -> RationalFunction:
    """Canonical sum of the terms (exps, s, a, da), each meaning
    t^s * (a / da) / prod Phi_i^e_i with a ascending integer coefficients
    (a list or a tuple).

    The terms, each numerator made a tuple, are the key of the memoised
    :func:`_cyclo_reduce`, so a term list reduced before in the process
    costs one lookup.  This is exact: the reduction is a pure function of
    its terms, and a RationalFunction is immutable, so one result can be
    shared.
    """
    return _cyclo_reduce(tuple([(exps, s, tuple(a), da) for exps, s, a, da in terms]))


@lru_cache(maxsize=None)
def _cyclo_reduce(terms: tuple) -> RationalFunction:
    """The reduction behind :func:`_cyclo_sum`, of a tuple of terms.

    Terms over one denominator are added first; each such group is lifted
    to the exponent-wise maximum of all denominators, and every Phi_i is
    then cancelled from the integer numerator by exact division, each
    division tried only once the fold test of :func:`_divide_out` allows it.
    """
    groups: dict = {}
    lo, den = None, 1
    for term in terms:
        exps, s, _, da = term
        groups.setdefault(exps, []).append(term)
        if lo is None or s < lo:
            lo = s
        if da != den:
            den = den * da // gcd(den, da)
    top = ()
    for exps in groups:
        top = _exps_merge(top, exps, max)
    total: list = []
    for exps, group in groups.items():
        acc: list = []
        for _, s, a, da in group:
            _iadd_at(acc, s - lo, a if da == den else [x * (den // da) for x in a])
        lift = _exps_sub(top, exps)
        _iadd_at(total, 0, _iconv(_itrim(acc), _cyclo_den(lift)._ints) if lift else acc)
    num = _itrim(total)
    if not num:
        return RF_ZERO
    k = next(j for j, x in enumerate(num) if x)
    num, lo = num[k:], lo + k
    left = top
    if len(num) > 1:  # no Phi_i divides a monomial
        left = []
        for i, e in top:
            num, done = _divide_out(num, i, e)
            if done < e:
                left.append((i, e - done))
        left = tuple(left)
    return RationalFunction._trusted(LaurentPoly(lo, num, den), _cyclo_den(left))


# ----------------------------------------------------------------------
# Operation-style aliases.  The classes above carry the arithmetic; these
# names give a stable functional surface that the tests pin down.
# ----------------------------------------------------------------------

def rf_add(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    return a + b


def rf_mul(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    return a * b


def rf_neg(a: RationalFunction) -> RationalFunction:
    return -a


def rf_inv(a: RationalFunction) -> RationalFunction:
    return a.inv()


def rf_eq(a: RationalFunction, b: RationalFunction) -> bool:
    """Equality by cross multiplication; independent of canonical form."""
    return a.num * b.den == b.num * a.den


def rf_eval(a: RationalFunction, t0: Rat) -> Fraction:
    return a.eval(t0)
