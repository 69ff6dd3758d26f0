"""Tests for exact Gaussian-rational phases and Laurent rational functions."""

import contextlib
import io
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import assume, example, given, strategies as st

from hallq import cli, exact, hall, quiver, stability, torus, verify
from hallq.exact import (
    GaussianRational,
    LaurentPoly,
    PhaseDomainError,
    PoleError,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    frac_str,
    phase_cmp,
    rf_eq,
)


def g(re, im):
    return GaussianRational(Fraction(re), Fraction(im))


def rf(num_low, num_coeffs, den_low=0, den_coeffs=(1,)):
    return RationalFunction(
        LaurentPoly(num_low, num_coeffs), LaurentPoly(den_low, den_coeffs)
    )


# t / (t^2 - 1)
RF_EX = rf(1, [1], 0, [-1, 0, 1])


# ----------------------------------------------------------------------
# Phase comparison
# ----------------------------------------------------------------------

def test_phase_lt_examples():
    assert phase_cmp(g(2, 1), g(1, 2)) < 0
    assert phase_cmp(g(1, 2), g(-2, 1)) < 0
    assert phase_cmp(g(-2, 1), g(1, 2)) > 0


def test_phase_irreflexive():
    z = g(3, 4)
    assert phase_cmp(z, z) == 0


def test_phase_scaling_invariant():
    assert phase_cmp(g(2, 1), g(4, 2)) == 0
    assert phase_cmp(g(4, 2), g(2, 1)) == 0


def test_phase_domain_errors():
    with pytest.raises(PhaseDomainError):
        phase_cmp(g(0, 0), g(1, 1))
    with pytest.raises(PhaseDomainError):
        phase_cmp(g(1, 1), g(-1, 0))
    with pytest.raises(PhaseDomainError):
        phase_cmp(g(1, -1), g(1, 1))


def test_phase_boundary_positive_real_axis():
    # re > 0, im == 0 is the minimum phase
    assert phase_cmp(g(5, 0), g(1, 1)) < 0
    assert phase_cmp(g(5, 0), g(7, 0)) == 0


rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=16
)

upper_half = st.builds(
    GaussianRational,
    st.fractions(min_value=-8, max_value=8, max_denominator=16),
    st.fractions(min_value=Fraction(1, 16), max_value=8, max_denominator=16),
)


@given(upper_half, upper_half)
def test_phase_trichotomy(z, w):
    assert phase_cmp(z, w) in (-1, 0, 1)
    assert (phase_cmp(z, w) == 0) == (z.cross(w) == 0)


@given(upper_half, upper_half, upper_half)
def test_phase_transitive(a, b, c):
    if phase_cmp(a, b) < 0 and phase_cmp(b, c) < 0:
        assert phase_cmp(a, c) < 0


@given(upper_half, upper_half)
def test_phase_cmp_antisymmetric(z, w):
    assert phase_cmp(z, w) == -phase_cmp(w, z)


# ----------------------------------------------------------------------
# Gaussian rational arithmetic
# ----------------------------------------------------------------------

def test_gaussian_ops():
    assert g(2, 1) + g(-2, 1) == g(0, 2)
    assert g(2, 1) - g(2, 1) == g(0, 0)
    assert -g(2, 1) == g(-2, -1)
    assert g(2, 1).scale(3) == g(6, 3)
    assert g(0, 0).is_zero
    assert not g(1, 0).is_zero


def test_gaussian_cross():
    assert g(2, 1).cross(g(1, 2)) == 3
    assert g(1, 2).cross(g(2, 4)) == 0


def test_gaussian_json_round_trip():
    z = GaussianRational(Fraction(-3, 2), Fraction(5, 7))
    assert GaussianRational.from_json(z.to_json()) == z
    assert z.to_json() == ["-3/2", "5/7"]


def test_frac_str_parse():
    assert frac_str(Fraction(3, 2)) == "3/2"
    assert frac_str(Fraction(4)) == "4"
    for x in (Fraction(-3, 2), Fraction(7)):
        assert Fraction(frac_str(x)) == x


# ----------------------------------------------------------------------
# Laurent polynomials
# ----------------------------------------------------------------------

def test_laurent_normalizes_and_trims():
    p = LaurentPoly(0, [0, 2, 0, 0])
    assert p.t_low == 1
    assert p.coefficients == (Fraction(2),)
    assert LaurentPoly(3, [0, 0]).is_zero


def test_zero_denominator_raises_for_every_numerator():
    for ints in ([1], [], [0, 0], [0, 3, 0]):
        for zero in ([], [0, 0]):
            with pytest.raises(ZeroDivisionError):
                RationalFunction(LaurentPoly(0, ints), LaurentPoly(2, zero))


def test_laurent_arithmetic():
    t = LaurentPoly.t_power(1)
    one = LaurentPoly.one()
    assert t * t == LaurentPoly.t_power(2)
    assert t + t == LaurentPoly(1, [2])
    assert t - t == LaurentPoly.zero()
    assert (t + one) * (t - one) == LaurentPoly(0, [-1, 0, 1])
    assert t ** 0 == one
    assert t.shifted(-3) == LaurentPoly.t_power(-2)


def test_laurent_q_power_doubles():
    assert LaurentPoly.q_power(2) == LaurentPoly.t_power(4)


def test_laurent_from_q_coeffs():
    # 1 + q becomes 1 + t^2
    p = LaurentPoly.from_q_coeffs([1, 1])
    assert p == LaurentPoly(0, [1, 0, 1])


def test_laurent_eval():
    p = LaurentPoly(-1, [1, 0, 1])  # t^-1 + t
    assert p.eval(2) == Fraction(5, 2)
    with pytest.raises(PoleError):
        p.eval(0)


def test_laurent_eval_even_at_q():
    p = LaurentPoly.q_power(1) + LaurentPoly.one()
    assert p.eval_even_at_q(3) == 4


def test_laurent_json_round_trip():
    p = LaurentPoly(-2, [1, 0, -6])
    assert p.to_json() == {"t_low": -2, "coeffs": ["1", "0", "-6"]}
    assert LaurentPoly.from_json(p.to_json()) == p
    assert LaurentPoly.from_json({"t_low": 3, "coeffs": []}).is_zero
    # the coefficients are integers: a rational one is refused
    with pytest.raises(ValueError):
        LaurentPoly.from_json({"t_low": 1, "coeffs": ["1/4", "5"]})
    with pytest.raises(TypeError):
        LaurentPoly.constant(Fraction(1, 2))
    # ... and so is one handed to the constructor, when it is built
    with pytest.raises(TypeError):
        LaurentPoly(0, [Fraction(1, 2)])
    with pytest.raises(TypeError):
        LaurentPoly(-1, [1, 0, 2.0])


# ----------------------------------------------------------------------
# Rational functions
# ----------------------------------------------------------------------

def test_rf_mul_cancels_to_one():
    # (t/(t^2-1)) * ((t^2-1)/t) == 1
    a = RF_EX
    b = rf(0, [-1, 0, 1], 1, [1])
    assert a * b == RF_ONE


def test_rf_eq_common_factor():
    # 2t/(2t^2-2) == t/(t^2-1)
    a = rf(1, [2], 0, [-2, 0, 2])
    assert rf_eq(a, RF_EX)


def test_rf_eq_rejects_different():
    # t/(t^2-1) != 1/(t-1)
    b = rf(0, [1], 0, [-1, 1])
    assert not rf_eq(RF_EX, b)


def test_rf_eval():
    assert RF_EX.eval(2) == Fraction(2, 3)
    with pytest.raises(PoleError):
        RF_EX.eval(1)


def test_rf_inverse():
    a = RF_EX
    assert a * a.inv() == RF_ONE
    with pytest.raises(ZeroDivisionError):
        RF_ZERO.inv()


def test_rf_canonical_form_is_unique():
    # equal values hash and compare equal after construction
    a = rf(1, [2], 0, [-2, 0, 2])
    assert a == RF_EX
    assert hash(a) == hash(RF_EX)


def test_rf_json_round_trip():
    a = rf(-1, [1, 2], 0, [3, 0, 1])
    assert RationalFunction.from_json(a.to_json()) == a


def test_rf_to_json_hands_out_fresh_renderings():
    # the denominator's strings come from a shared cache: changing what
    # one call returned must not reach the renderings of later calls
    a = rf(-1, [1, 2], 0, [3, 0, 1])
    b = RationalFunction(LaurentPoly(1, [1]), LaurentPoly(0, [3, 6]))  # t / (3 (1 + 2t))
    for x in (a, b, RF_ONE):
        want = x.to_json()
        assert want == {"num": x.num.to_json(), "den": x.den.to_json()}
        got = x.to_json()
        got["den"]["coeffs"].append("7")
        got["den"]["coeffs"][0] = "9"
        got["den"]["t_low"] = 5
        got["num"]["coeffs"].clear()
        del got["den"]
        assert x.to_json() == want
        assert type(x.to_json()["den"]["coeffs"]) is list
    assert b.to_json()["den"] == {"t_low": 0, "coeffs": ["3", "6"]}


def test_rf_division_and_powers():
    a = RF_EX
    assert a / a == RF_ONE
    assert a ** 2 == a * a
    assert a ** -1 == a.inv()
    assert a ** 0 == RF_ONE


def test_rf_shifted():
    assert RationalFunction.t_power(2).shifted(3) == RationalFunction.t_power(5)


small_poly = st.builds(
    LaurentPoly,
    st.integers(min_value=-3, max_value=3),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4),
)

nonzero_poly = small_poly.filter(lambda p: not p.is_zero)

rationals_fn = st.builds(RationalFunction, small_poly, nonzero_poly)
nonzero_fn = st.builds(RationalFunction, nonzero_poly, nonzero_poly)


@given(rationals_fn, rationals_fn, rationals_fn)
def test_rf_field_axioms(a, b, c):
    assert rf_eq(a + b, b + a)
    assert rf_eq(a * b, b * a)
    assert rf_eq((a + b) + c, a + (b + c))
    assert rf_eq((a * b) * c, a * (b * c))
    assert rf_eq(a * (b + c), a * b + a * c)
    assert rf_eq(a + -a, RF_ZERO)
    assert rf_eq(a - a, RF_ZERO)
    assert rf_eq(a + RF_ZERO, a)
    assert rf_eq(a * RF_ONE, a)


@given(nonzero_fn)
def test_rf_multiplicative_inverse(a):
    assert rf_eq(a * a.inv(), RF_ONE)


# polynomials with an integer content of either sign, so that the
# constructor and inv must divide out a common content and a sign
content_poly = st.builds(
    lambda p, c: p * LaurentPoly.constant(c),
    small_poly,
    st.integers(min_value=-6, max_value=6).filter(bool),
)
nonzero_content_poly = content_poly.filter(lambda p: not p.is_zero)


@given(nonzero_content_poly, nonzero_content_poly)
@example(LaurentPoly(2, [9, -6]), LaurentPoly(-1, [-10, 0, 6]))
@example(LaurentPoly(-3, [-5]), LaurentPoly(0, [6, 3]))
def test_rf_inverse_equals_the_swapped_construction(num, den):
    # inv skips the gcd: t-shifts, negative leading coefficients and
    # integer content must still come out in the constructor's form
    a = RationalFunction(num, den)
    assert a.inv() == RationalFunction(a.den, a.num)


def _check_canonical(x):
    # den of lowest exponent 0 with a positive leading coefficient; num and
    # den coprime, and so are their contents
    den = x.den
    assert den.t_low == 0 and den.coefficient(den.t_high) > 0
    assert exact._ipoly_gcd(x.num._ints, den._ints) == (1,)
    assert gcd(exact._icontent(x.num._ints), exact._icontent(den._ints)) == 1


@given(rationals_fn, nonzero_fn, st.integers(-3, 3), st.integers(-3, 3))
def test_rf_operations_return_the_canonical_form(a, b, k, s):
    # every result is a fixed point of the constructor, in its canonical
    # form; rf_eq alone would not see this
    for r in (a + b, a - b, a * b, b.inv(), a / b, b ** k, a ** abs(k), a.shifted(s)):
        assert r == RationalFunction(r.num, r.den)
        _check_canonical(r)


@given(content_poly, nonzero_content_poly, nonzero_content_poly, content_poly, st.booleans())
@example(LaurentPoly(0, [-6, 4]), LaurentPoly(1, [-4, 0, -2]), LaurentPoly(0, [-3]),
         LaurentPoly.zero(), True)
@example(LaurentPoly(0, [2]), LaurentPoly(0, [4]), LaurentPoly(0, [3, 3]),
         LaurentPoly(0, [1]), False)
def test_constructor_gives_the_canonical_form(a, b, m, c, same):
    # x = a / b; y is x's value over another denominator when `same`, else
    # another value over it; the constructor brings both to one form
    x = RationalFunction(a, b)
    y = RationalFunction(a * m if same else c, b * m)
    for z in (x, y):
        _check_canonical(z)
        assert RationalFunction.from_json(z.to_json()) == z
    assert (x == y) == rf_eq(x, y)
    if same:
        assert x == y and hash(x) == hash(y)


def _random_rf(rng):
    num = LaurentPoly(
        rng.randint(-3, 3), [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
    )
    den = LaurentPoly.zero()
    while den.is_zero:
        den = LaurentPoly(
            rng.randint(-3, 3), [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        )
    return RationalFunction(num, den)


def test_rf_eq_matches_pointwise_evaluation():
    # equality agrees with evaluation at three points away from all poles
    rng = random.Random(17)
    points = (Fraction(5, 3), Fraction(-7, 2), Fraction(11, 4))
    checked = 0
    while checked < 1000:
        a = _random_rf(rng)
        b = _random_rf(rng)
        try:
            vals_a = [a.eval(x) for x in points]
            vals_b = [b.eval(x) for x in points]
        except PoleError:
            continue
        if rf_eq(a, b):
            assert vals_a == vals_b
        else:
            assert vals_a != vals_b
        checked += 1


# ----------------------------------------------------------------------
# Cofactors of the integer polynomial gcd
# ----------------------------------------------------------------------

def _check_cofactors(a, b):
    ca, cb = exact._icofactors(a, b)
    g = exact._ipoly_gcd(a, b)
    assert exact._iconv(g, ca) == a
    assert exact._iconv(g, cb) == b
    return g, ca, cb


# integer polynomials with nonzero constant and leading terms, as
# RationalFunction hands them to the kernel
int_poly = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5).map(
    tuple).filter(lambda p: p[0] != 0 and p[-1] != 0)


@given(int_poly, int_poly, int_poly)
def test_igcd_cofactors_matches_prs_on_shared_factor(f, a, b):
    fa, fb = exact._iconv(f, a), exact._iconv(f, b)
    g, _, _ = _check_cofactors(fa, fb)
    exact._iexact_div(g, exact._iprimitive(f))  # raises unless f divides the gcd


def test_igcd_cofactors_one_coefficient_inputs():
    for a, b in [((5,), (1, 2, 3)), ((-3, 1, 2), (-4,)), ((-4,), (6,))]:
        assert _check_cofactors(a, b) == ((1,), a, b)


def test_igcd_cofactors_coprime_and_negative_leading():
    assert _check_cofactors((1, 1), (2, 1)) == ((1,), (1, 1), (2, 1))
    assert _check_cofactors((1, 0, 1), (1, 1))[0] == (1,)
    # -(t + 1)(t + 2) and (t + 1)(3 - t): gcd t + 1, signs stay on the cofactors
    a = exact._iconv((-1, -1), (2, 1))
    b = exact._iconv((1, 1), (3, -1))
    assert _check_cofactors(a, b) == ((1, 1), (-2, -1), (3, -1))
    # content is kept on the cofactors, not on the primitive gcd
    assert _check_cofactors((6, 6), (-4, -4)) == ((1, 1), (6,), (-4,))
    # (t^2 - 1)(t^2 + t + 1) and (t^2 - 1)(2 - 3t)
    a = exact._iconv((-1, 0, 1), (1, 1, 1))
    b = exact._iconv((-1, 0, 1), (2, -3))
    assert _check_cofactors(a, b) == ((-1, 0, 1), (1, 1, 1), (2, -3))


@given(st.integers(-3, 3), st.lists(st.integers(-60, 60), min_size=1, max_size=6))
def test_laurent_to_json_matches_frac_str(t_low, ints):
    p = LaurentPoly(t_low, ints)
    assert p.to_json() == {"t_low": p.t_low,
                           "coeffs": [frac_str(c) for c in p.coefficients]}


# ----------------------------------------------------------------------
# Sums over cyclotomic denominators against RationalFunction
# ----------------------------------------------------------------------

def test_cyclotomic_polynomials_multiply_to_t_power_minus_one():
    for n in range(1, 41):
        prod = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = exact._iconv(prod, exact._cyclotomic(d))
        assert prod == (-1,) + (0,) * (n - 1) + (1,)
    assert exact._cyclotomic(105)[7] == -2  # the first coefficient outside -1, 0, 1


cyclo_exps = st.dictionaries(st.sampled_from((1, 2, 3, 4, 6, 8, 12)), st.integers(1, 2),
                             max_size=3).map(lambda d: tuple(sorted(d.items())))
cyclo_term = st.tuples(cyclo_exps, st.integers(-4, 4),
                       st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(tuple))


def _rf_of_term(exps, s, a):
    return RationalFunction(LaurentPoly(s, a), exact._cyclo_den(exps))


def _rf_sum(terms):
    out = RF_ZERO
    for term in terms:
        out = out + _rf_of_term(*term)
    return out


@given(st.lists(cyclo_term, min_size=1, max_size=6))
def test_cyclo_sum_matches_rational_function_sum(terms):
    assert exact._cyclo_sum(tuple(terms)) == _rf_sum(terms)


@given(cyclo_term, cyclo_term)
def test_cyclo_sum_cancels_to_canonical_form(x, y):
    # x * phi / phi and x + y - y must both come back as x, canonically
    exps, s, a = x
    lifted = exact._exps_merge(exps, ((3, 1), (4, 2)))
    a_lift = exact._iconv(a, exact._cyclo_den(((3, 1), (4, 2)))._ints)
    assert exact._cyclo_sum(((lifted, s, a_lift),)) == _rf_of_term(*x)
    terms = (x, y, _negated(y))
    assert exact._cyclo_sum(terms) == _rf_of_term(*x)


# ----------------------------------------------------------------------
# The fold test ahead of each Phi_i trial division
# ----------------------------------------------------------------------

def _divides(p, i):
    try:
        exact._iexact_div(p, exact._cyclotomic(i))
    except ArithmeticError:
        return False
    return True


@given(st.integers(1, 30), st.integers(1, 3),
       st.lists(st.integers(-9, 9), min_size=1, max_size=8).filter(any))
def test_fold_test_passes_every_multiple_of_phi(i, e, g):
    p = exact._itrim(list(g))
    for _ in range(e):
        p = exact._iconv(p, exact._cyclotomic(i))
    assert exact._fold_divisible(p, i)
    q, v, done = exact._divide_out(p, exact._at_x(p), i, e)
    assert done == e and v == exact._at_x(q)
    for _ in range(e):
        q = exact._iconv(q, exact._cyclotomic(i))
    assert q == p


def test_a_fold_test_that_passes_everything_makes_the_kernel_raise(monkeypatch):
    # the fold test decides and the division is exact: if the test lets
    # Phi_1 = t - 1 through for p = (X - 2) + t^2, the inexact division
    # raises instead of leaving a value that is not in lowest terms.  p(X)
    # = X^2 + X - 2 is a multiple of Phi_1(X) = X - 1 although Phi_1 does
    # not divide p (p(1) = X - 1), so the certificate lets Phi_1 through
    # to the fold test
    p = (X - 2, 0, 1)
    assert exact._at_x(p) % exact._at_x(exact._cyclotomic(1)) == 0
    term = (((1, 1),), 0, p)
    assert exact._cyclo_sum.__wrapped__((term,))._exps == ((1, 1),)
    monkeypatch.setattr(exact, "_fold_divisible", lambda p, i: True)
    with pytest.raises(ArithmeticError):
        exact._cyclo_sum.__wrapped__((term,))


@given(st.integers(1, 30),
       st.lists(st.integers(-3, 3), min_size=2, max_size=40).filter(lambda p: p[-1] != 0),
       st.integers(0, 3), st.integers(0, 80), st.sampled_from((-1, 1)))
def test_fold_test_agrees_with_exact_division(i, p, kind, at, sign):
    # random polynomials are almost never multiples of Phi_i, so half the
    # cases are p * Phi_i (kind 2) or p * Phi_i with one coefficient moved
    # by sign (kind 3)
    if kind >= 2:
        p = list(exact._iconv(p, exact._cyclotomic(i)))
        if kind == 3:
            p[at % len(p)] += sign
    p = exact._itrim(p)
    assume(p)
    assert exact._fold_divisible(p, i) == _divides(p, i)


def test_fold_test_agrees_on_near_multiples():
    # random polynomials of high degree are almost never multiples of Phi_i,
    # so also try multiples plus a small perturbation, each way round
    rng = random.Random(11)
    for _ in range(400):
        i = rng.randint(2, 30)
        g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 12))] + [1]
        p = list(exact._iconv(g, exact._cyclotomic(i)))
        if rng.random() < 0.5:
            p[rng.randrange(len(p))] += rng.choice((-1, 1))
        p = exact._itrim(p)
        if p:
            assert exact._fold_divisible(p, i) == _divides(p, i)


# ----------------------------------------------------------------------
# The certificate ahead of the fold test: p(X) mod Phi_i(X) at X = 2^64
# ----------------------------------------------------------------------

X = 2 ** 64
near_x = st.one_of(st.integers(-9, 9), st.integers(X - 9, X + 9), st.integers(-X - 9, -X + 9),
                   st.integers(-2 ** 70, 2 ** 70))


def _certificate_rejects(p, i):
    return exact._at_x(p) % exact._at_x(exact._cyclotomic(i)) != 0


@given(st.integers(1, 30), st.lists(near_x, min_size=1, max_size=10).filter(any),
       st.integers(0, 3), st.integers(0, 2), st.integers(0, 40), st.sampled_from((-1, 1)))
@example(1, [1, 0, 1], 0, 0, 0, 1)
@example(1, [X - 2, 0, 1], 0, 0, 0, 1)
@example(3, [1, 1], 3, 2, 1, -1)
def test_certificate_rejects_only_what_the_fold_test_rejects(i, g, kind, e, at, sign):
    # kind 0: g itself; 1: g * Phi_i^e; 2: that with one coefficient moved
    # by sign; 3: that plus sign * (X - t) t^at, which leaves the value at
    # X unchanged, so only the fold test can reject it
    p = list(g)
    if kind >= 1:
        for _ in range(e):
            p = list(exact._iconv(p, exact._cyclotomic(i)))
    if kind == 2:
        p[at % len(p)] += sign
    if kind == 3:
        p += [0] * (at + 2 - len(p))
        p[at] += sign * X
        p[at + 1] -= sign
    p = exact._itrim(p)
    assume(p)
    if _certificate_rejects(p, i):
        assert not exact._fold_divisible(p, i)
    # the whole path, certificate then fold test, decides as exact division
    q, v, done = exact._divide_out(p, exact._at_x(p), i, 1)
    assert done == _divides(p, i) and v == exact._at_x(q)


def _split_sum(top, num, part, shift):
    """Terms whose sum is num / prod Phi^top: `part` t^shift over `exps`,
    a proper factor of top, and the rest over top itself; two single-term
    groups, one lifted and one not."""
    exps, a = part
    lifted = exact._iconv(a, exact._cyclo_den(exact._exps_sub(top, exps))._ints)
    rest = list(num) + [0] * (shift + len(lifted))
    for j, c in enumerate(lifted):
        rest[shift + j] -= c
    return ((top, 0, exact._itrim(rest)), (exps, shift, a))


def _phis(*idx):
    out = (1,)
    for i in idx:
        out = exact._iconv(out, exact._cyclotomic(i))
    return out


@pytest.mark.parametrize("top, num, part", [
    # Phi_4 cancels; at shift 0, 1/((t - 1)(t^2 + 1)) + t/((t + 1)(t^2 + 1)) = 1/(t^2 - 1)
    (((1, 1), (2, 1), (4, 1)), _phis(4), (((1, 1), (4, 1)), (1,))),
    (((1, 1), (2, 1), (4, 1)), exact._iconv(_phis(4), (2, 1)), (((1, 1), (2, 1)), (1, -1, 3))),
    # Phi_3 Phi_6 cancels
    (((1, 1), (3, 1), (6, 1)), exact._iconv(_phis(3, 6), (1, -2)), (((3, 1),), (4, 1))),
    # a squared Phi_2: both factors cancel, or one does and the certificate
    # rules out the second
    (((2, 2), (3, 1)), exact._iconv(_phis(2, 2), (3, 0, 1)), (((2, 1),), (1, 5))),
    (((2, 2), (3, 1)), exact._iconv(_phis(2), (3, 0, 1)), (((3, 1),), (-2, 1, 1))),
    (((1, 3), (4, 2)), exact._iconv(_phis(1, 1, 4), (1, 1, 1)), (((4, 1),), (7,))),
])
@pytest.mark.parametrize("shift", [0, 2])
def test_cancelling_sums_test_each_factor_that_divides_and_no_other(monkeypatch, top, num,
                                                                    part, shift):
    terms = _split_sum(top, num, part, shift)
    calls = []
    fold = exact._fold_divisible
    monkeypatch.setattr(exact, "_fold_divisible",
                        lambda p, i: calls.append(i) or fold(p, i))
    got = _factored(terms)
    assert got == _rf_sum(terms) == _rf_of_term(top, 0, num)
    divided = sum(e for _, e in top) - sum(e for _, e in got._exps)
    assert divided > 0
    # the small cofactors leave a nonzero remainder at X for every Phi_i
    # that does not divide, so each fold test is a division
    assert len(calls) == divided


def _run_cold(argv):
    """Run a CLI command with every memo of the package cleared first."""
    for mod in (exact, hall, quiver, stability, torus, verify):
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.mark.parametrize("argv, divides", [
    (["verify", "invariance", "--n", "4", "--trunc", "8", "--trials", "2"], False),
    (["verify", "hn-identity", "--n", "4", "--trunc", "7", "--trials", "1"], False),
    (["verify", "integration", "--n", "3"], True),
])
def test_the_certificate_leaves_a_fold_test_only_where_a_factor_divides(monkeypatch, argv,
                                                                        divides):
    # no Phi_i cancels from any sum of a dilogarithm product or an
    # iso-class sum, and the certificate rules each one out alone; the
    # integration sums do cancel, and each fold test there is a division
    calls = []
    fold = exact._fold_divisible
    monkeypatch.setattr(exact, "_fold_divisible",
                        lambda p, i: calls.append(fold(p, i)) or calls[-1])
    _run_cold(argv)
    assert exact._cyclo_sum.cache_info().misses > 0
    assert all(calls) and bool(calls) == divides


# ----------------------------------------------------------------------
# The kernel's memo: one reduction per distinct term tuple
# ----------------------------------------------------------------------

def test_cyclo_sum_memo_tells_every_key_field_apart():
    # each variant differs from `first` in one field of one term; with all
    # of them memoised, each must still come back as its own sum
    other = (((3, 1),), 0, (2, 1))
    first = ((((1, 1), (2, 1)), 1, (1, -2, 3)), other)
    variants = [
        ((((1, 1), (2, 1)), 2, (1, -2, 3)), other),  # the shift s
        ((((1, 1), (2, 1)), 1, (1, -2, 4)), other),  # one numerator entry
        ((((1, 1), (4, 1)), 1, (1, -2, 3)), other),  # the exponents exps
    ]
    exact._cyclo_sum.cache_clear()
    for terms in [first] + variants:
        exact._cyclo_sum(terms)
    assert exact._cyclo_sum.cache_info().misses == 1 + len(variants)
    want = _rf_sum(first)
    assert exact._cyclo_sum(first) == want
    for terms in variants:
        got = exact._cyclo_sum(terms)
        assert got == _rf_sum(terms) and got != want
    assert exact._cyclo_sum.cache_info().misses == 1 + len(variants)


# ----------------------------------------------------------------------
# Factored denominators: binomial expansion and kernel results
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _phi_by_division(i):
    """Phi_i as (t^i - 1) / prod_{d | i, d < i} Phi_d, by exact division."""
    out = (-1,) + (0,) * (i - 1) + (1,)
    for d in range(1, i):
        if i % d == 0:
            out = exact._iexact_div(out, _phi_by_division(d))
    return out


@given(st.dictionaries(st.integers(1, 24), st.integers(1, 4), max_size=4))
@example({})
@example({1: 4, 2: 3, 3: 1, 6: 2})
@example({12: 1, 24: 2})
def test_cyclo_den_matches_the_product_of_phis(exps):
    exps = tuple(sorted(exps.items()))
    want = (1,)
    for i, e in exps:
        for _ in range(e):
            want = exact._iconv(want, _phi_by_division(i))
    assert exact._cyclo_den.__wrapped__(exps) == LaurentPoly(0, want)
    assert exact._cyclo_den(exps) == LaurentPoly(0, want)


def _factored(terms):
    """The kernel's reduction of `terms`, made afresh (past the memo)."""
    return exact._cyclo_sum.__wrapped__(tuple(terms))


def _negated(term):
    exps, s, a = term
    return exps, s, tuple(-c for c in a)


@given(st.lists(cyclo_term, min_size=1, max_size=4), st.lists(cyclo_term, max_size=3),
       st.booleans())
def test_factored_results_agree_with_the_constructor(xs, extra, same):
    # y is x's value by another term list when `same`, else another sum
    ys = xs[::-1] + extra + [_negated(t) for t in extra] if same else extra or xs[:1]
    x, y = _factored(xs), _factored(ys)
    rx, ry = _rf_sum(xs), _rf_sum(ys)  # by the constructor and +, with the gcd
    # a kernel value holds its denominator as exponents alone
    assert x._exps is not None and y._exps is not None
    assert x._den is None and y._den is None
    # both factored: equality by exponents
    assert (x == y) == (y == x) == (rx == ry)
    assert (x != y) == (rx != ry)
    # one factored, one not: equality by the expanded denominators
    assert x == rx and rx == x and y == ry and ry == y
    assert hash(x) == hash(rx) and hash(y) == hash(ry)
    assert x.to_json() == rx.to_json()
    assert x.eval(Fraction(3, 2)) == rx.eval(Fraction(3, 2))
    assert x + y == rx + ry and x * y == rx * ry
    for z in (-x, x.shifted(3)):
        assert z._exps == x._exps
    assert -x == -rx and x.shifted(3) == rx.shifted(3)


@given(st.lists(cyclo_term, min_size=1, max_size=4))
def test_reading_den_changes_neither_equality_nor_hash(terms):
    a, b = _factored(terms), _factored(terms)
    assume(not a.is_zero)
    exps = a._exps
    assert a is not b and a == b
    den = a.den
    # den is read from the memo of the exponents, and no slot is written
    assert den == exact._cyclo_den(exps) and a.den is den and a._exps == exps
    assert a._den is None and b._den is None
    assert a == b and b == a
    assert hash(b) == hash(a) == hash((a.num, den))
    c = _factored(terms)
    assert hash(c) == hash(a) and c == _rf_sum(terms)


def test_values_over_one_carry_the_empty_exponents():
    # the torus reads `_exps` alone: a value over 1 carries (), however it
    # is built; one over another denominator not built by the kernel, a
    # rational scalar included, holds that denominator and None
    x = RationalFunction(LaurentPoly(-2, [3, 0, -1]))
    t3 = RationalFunction.t_power(3)
    over_one = [x, RationalFunction(LaurentPoly(1, [10]), LaurentPoly(0, [5])), t3,
                RationalFunction.constant(-7), RationalFunction.constant(Fraction(6, 3)),
                RationalFunction.constant(0), t3.inv(), rf(2, [3], 0, [3]).inv(),
                rf(0, [1], 0, [1, 1, 1]).inv(), rf(0, [1], 0, [-1]).inv(),
                x ** 3, t3 ** -2, x * x, x + t3, x - x, -x, x.shifted(2), RF_ZERO, RF_ONE,
                RationalFunction.from_json(x.to_json())]
    for c in over_one:
        assert c.den == LaurentPoly.one() and c._exps == () and c._den is None
    assert RationalFunction.constant(5)._exps == ()
    over_phi3 = rf(1, [2, -1], 0, [1, 1, 1])
    half = RationalFunction.constant(Fraction(1, 2))
    for c in (over_phi3, over_phi3 * x, over_phi3 ** 2, over_phi3 + t3,
              RationalFunction.from_json(over_phi3.to_json()), half, half * x, -half,
              RationalFunction(LaurentPoly(1, [2]), LaurentPoly(0, [5])),
              RationalFunction.constant(Fraction(-7, 3)), rf(2, [3], 0, [2]).inv()):
        assert c._exps is None and c._den is not None and c.den != LaurentPoly.one()
    assert half.num == LaurentPoly.one() and half.den == LaurentPoly.constant(2)
