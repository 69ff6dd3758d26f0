"""Tests for exact Gaussian-rational phases and Laurent rational functions."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from hallq import exact
from hallq.exact import (
    GaussianRational,
    LaurentPoly,
    PhaseDomainError,
    PoleError,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    frac_parse,
    frac_str,
    phase_cmp,
    phase_eq,
    phase_le,
    phase_lt,
    rf_add,
    rf_eq,
    rf_eval,
    rf_inv,
    rf_mul,
    rf_neg,
)
from hallq.quiver import CyclicQuiver
from hallq.torus import dilog_coefficient


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
    assert phase_lt(g(2, 1), g(1, 2))
    assert phase_lt(g(1, 2), g(-2, 1))
    assert not phase_lt(g(-2, 1), g(1, 2))


def test_phase_irreflexive():
    z = g(3, 4)
    assert not phase_lt(z, z)
    assert phase_eq(z, z)


def test_phase_scaling_invariant():
    assert phase_eq(g(2, 1), g(4, 2))
    assert phase_le(g(2, 1), g(4, 2))


def test_phase_domain_errors():
    with pytest.raises(PhaseDomainError):
        phase_lt(g(0, 0), g(1, 1))
    with pytest.raises(PhaseDomainError):
        phase_lt(g(1, 1), g(-1, 0))
    with pytest.raises(PhaseDomainError):
        phase_cmp(g(1, -1), g(1, 1))


def test_phase_boundary_positive_real_axis():
    # re > 0, im == 0 is the minimum phase
    assert phase_lt(g(5, 0), g(1, 1))
    assert phase_eq(g(5, 0), g(7, 0))


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
    outcomes = [phase_lt(z, w), phase_eq(z, w), phase_lt(w, z)]
    assert outcomes.count(True) == 1


@given(upper_half, upper_half, upper_half)
def test_phase_transitive(a, b, c):
    if phase_lt(a, b) and phase_lt(b, c):
        assert phase_lt(a, c)


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
    assert frac_parse("-3/2") == Fraction(-3, 2)
    assert frac_parse("7") == Fraction(7)


# ----------------------------------------------------------------------
# Laurent polynomials
# ----------------------------------------------------------------------

def test_laurent_normalizes_and_trims():
    p = LaurentPoly(0, [0, 2, 0, 0])
    assert p.t_low == 1
    assert p.coefficients == (Fraction(2),)
    assert LaurentPoly(3, [0, 0]).is_zero


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
    p = LaurentPoly.from_fractions(-2, [Fraction(1, 2), Fraction(0), Fraction(-3)])
    assert LaurentPoly.from_json(p.to_json()) == p


# ----------------------------------------------------------------------
# Rational functions
# ----------------------------------------------------------------------

def test_rf_mul_cancels_to_one():
    # (t/(t^2-1)) * ((t^2-1)/t) == 1
    a = RF_EX
    b = rf(0, [-1, 0, 1], 1, [1])
    assert rf_mul(a, b) == RF_ONE


def test_rf_eq_common_factor():
    # 2t/(2t^2-2) == t/(t^2-1)
    a = rf(1, [2], 0, [-2, 0, 2])
    assert rf_eq(a, RF_EX)


def test_rf_eq_rejects_different():
    # t/(t^2-1) != 1/(t-1)
    b = rf(0, [1], 0, [-1, 1])
    assert not rf_eq(RF_EX, b)


def test_rf_eval():
    assert rf_eval(RF_EX, 2) == Fraction(2, 3)
    with pytest.raises(PoleError):
        rf_eval(RF_EX, 1)


def test_rf_inverse():
    a = RF_EX
    assert rf_mul(a, rf_inv(a)) == RF_ONE
    with pytest.raises(ZeroDivisionError):
        rf_inv(RF_ZERO)


def test_rf_canonical_form_is_unique():
    # equal values hash and compare equal after construction
    a = rf(1, [2], 0, [-2, 0, 2])
    assert a == RF_EX
    assert hash(a) == hash(RF_EX)


def test_rf_json_round_trip():
    a = rf(-1, [1, 2], 0, [3, 0, 1])
    assert RationalFunction.from_json(a.to_json()) == a


def test_rf_division_and_powers():
    a = RF_EX
    assert a / a == RF_ONE
    assert a ** 2 == rf_mul(a, a)
    assert a ** -1 == rf_inv(a)
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
    assert rf_eq(rf_add(a, b), rf_add(b, a))
    assert rf_eq(rf_mul(a, b), rf_mul(b, a))
    assert rf_eq(rf_add(rf_add(a, b), c), rf_add(a, rf_add(b, c)))
    assert rf_eq(rf_mul(rf_mul(a, b), c), rf_mul(a, rf_mul(b, c)))
    assert rf_eq(rf_mul(a, rf_add(b, c)), rf_add(rf_mul(a, b), rf_mul(a, c)))
    assert rf_eq(rf_add(a, rf_neg(a)), RF_ZERO)
    assert rf_eq(rf_add(a, RF_ZERO), a)
    assert rf_eq(rf_mul(a, RF_ONE), a)


@given(nonzero_fn)
def test_rf_multiplicative_inverse(a):
    assert rf_eq(rf_mul(a, rf_inv(a)), RF_ONE)


# numerators with rational content, so inv must carry the integer
# denominators across
content_poly = st.builds(
    LaurentPoly,
    st.integers(min_value=-3, max_value=3),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=6),
).filter(lambda p: not p.is_zero)


@given(content_poly, content_poly)
@example(LaurentPoly(2, [3, -2], 4), LaurentPoly(-1, [5, 0, -3], 6))
@example(LaurentPoly(-3, [-1], 5), LaurentPoly(0, [2, 1], 3))
def test_rf_inverse_equals_the_swapped_construction(num, den):
    # inv skips the gcd: t-shifts, negative leading coefficients and
    # rational content must still come out in the constructor's form
    a = RationalFunction(num, den)
    assert a.inv() == RationalFunction(a.den, a.num)


@given(rationals_fn, nonzero_fn, st.integers(-3, 3), st.integers(-3, 3))
def test_rf_operations_return_the_canonical_form(a, b, k, s):
    # every result is a fixed point of the constructor, with a monic
    # denominator of lowest exponent 0; rf_eq alone would not see this
    for r in (a + b, a - b, a * b, b.inv(), a / b, b ** k, a ** abs(k), a.shifted(s)):
        assert r == RationalFunction(r.num, r.den)
        assert r.den.t_low == 0
        assert r.den.coefficient(r.den.t_high) == 1


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
            vals_a = [rf_eval(a, x) for x in points]
            vals_b = [rf_eval(b, x) for x in points]
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


@given(st.integers(-3, 3), st.lists(st.integers(-60, 60), min_size=1, max_size=6),
       st.integers(1, 36))
def test_laurent_to_json_matches_frac_str(t_low, ints, den):
    p = LaurentPoly(t_low, ints, den)
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


def _occurring_denominators():
    # products of (q^k - 1), the dilogarithm denominators prod_j (q^m - q^j)
    # for m <= 8, and |Aut M|(q) for the iso classes of total <= 4 at n = 3
    q_minus_1 = [LaurentPoly.from_q_coeffs([-1] + [0] * (k - 1) + [1]) for k in range(1, 7)]
    dens = []
    prod = LaurentPoly.one()
    for p in q_minus_1:
        prod = prod * p
        dens.append(prod)
    dens += [q_minus_1[1] * q_minus_1[1] * q_minus_1[2], q_minus_1[0] * q_minus_1[3]]
    dens += [dilog_coefficient(m).den for m in range(1, 9)]
    quiver = CyclicQuiver(3)
    dens += [quiver.aut_poly(m) for m in quiver.enumerate_iso_classes(4)]
    return sorted({d._ints for d in dens})


def test_cyclo_exponents_of_occurring_denominators():
    for ints in _occurring_denominators():
        den = LaurentPoly(0, ints)
        exps = exact._cyclo_exponents(den)
        assert exps is not None and exact._cyclo_den(exps) == den
    q3 = LaurentPoly.from_q_coeffs([-1, 0, 0, 1])  # q^3 - 1 = Phi_1 Phi_2 Phi_3 Phi_6
    assert exact._cyclo_exponents(q3) == ((1, 1), (2, 1), (3, 1), (6, 1))
    assert exact._cyclo_exponents(LaurentPoly(0, exact._cyclotomic(105))) == ((105, 1),)


def test_cyclo_exponents_refuse_other_denominators():
    mixed = exact._iconv(exact._cyclotomic(6), (1, 1, 0, 1))  # Phi_6 (t^3 + t + 1)
    for ints in [(-3, 1), (2, 1, 1), (1, -3, 1), (1, 1, 0, 1), mixed, (-1, 2)]:
        assert exact._cyclo_exponents(LaurentPoly(0, ints)) is None
    # Phi_210 has degree 48, so index 210 is past the indices tried (< 4 * 49)
    assert exact._cyclo_exponents(LaurentPoly(0, exact._cyclotomic(210))) is None


cyclo_exps = st.dictionaries(st.sampled_from((1, 2, 3, 4, 6, 8, 12)), st.integers(1, 2),
                             max_size=3).map(lambda d: tuple(sorted(d.items())))
cyclo_term = st.tuples(cyclo_exps, st.integers(-4, 4),
                       st.lists(st.integers(-6, 6), min_size=1, max_size=5),
                       st.integers(1, 4))


def _rf_of_term(exps, s, a, da):
    return RationalFunction(LaurentPoly(s, a, da), exact._cyclo_den(exps))


def _rf_sum(terms):
    out = RF_ZERO
    for term in terms:
        out = out + _rf_of_term(*term)
    return out


@given(st.lists(cyclo_term, min_size=1, max_size=6))
def test_cyclo_sum_matches_rational_function_sum(terms):
    assert exact._cyclo_sum(terms) == _rf_sum(terms)


@given(cyclo_term, cyclo_term)
def test_cyclo_sum_cancels_to_canonical_form(x, y):
    # x * phi / phi and x + y - y must both come back as x, canonically
    exps, s, a, da = x
    lifted = exact._exps_merge(exps, ((3, 1), (4, 2)))
    a_lift = exact._iconv(a, exact._cyclo_den(((3, 1), (4, 2)))._ints)
    assert exact._cyclo_sum([(lifted, s, a_lift, da)]) == _rf_of_term(*x)
    ey, sy, ay, dy = y
    terms = [x, y, (ey, sy, [-c for c in ay], dy)]
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
    q, done = exact._divide_out(p, i, e)
    assert done == e
    for _ in range(e):
        q = exact._iconv(q, exact._cyclotomic(i))
    assert q == p


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
# The kernel's memo: one reduction per distinct term list
# ----------------------------------------------------------------------

def test_cyclo_sum_memo_tells_every_key_field_apart():
    # each variant differs from `first` in one field of one term; with all
    # of them memoised, each must still come back as its own sum
    other = (((3, 1),), 0, (2, 1), 1)
    first = [(((1, 1), (2, 1)), 1, (1, -2, 3), 2), other]
    variants = [
        [(((1, 1), (2, 1)), 2, (1, -2, 3), 2), other],  # the shift s
        [(((1, 1), (2, 1)), 1, (1, -2, 4), 2), other],  # one numerator entry
        [(((1, 1), (2, 1)), 1, (1, -2, 3), 3), other],  # the integer denominator da
        [(((1, 1), (4, 1)), 1, (1, -2, 3), 2), other],  # the exponents exps
    ]
    exact._cyclo_reduce.cache_clear()
    for terms in [first] + variants:
        exact._cyclo_sum(terms)
    assert exact._cyclo_reduce.cache_info().misses == 1 + len(variants)
    want = _rf_sum(first)
    assert exact._cyclo_sum(first) == want
    for terms in variants:
        got = exact._cyclo_sum(terms)
        assert got == _rf_sum(terms) and got != want
    assert exact._cyclo_reduce.cache_info().misses == 1 + len(variants)


@given(st.lists(cyclo_term, min_size=1, max_size=4))
def test_cyclo_sum_takes_list_and_tuple_numerators_alike(terms):
    as_tuples = [(exps, s, tuple(a), da) for exps, s, a, da in terms]
    got = exact._cyclo_sum(terms)
    assert got == _rf_sum(terms)
    assert exact._cyclo_sum(as_tuples) is got
    assert exact._cyclo_sum(tuple(as_tuples)) is got
