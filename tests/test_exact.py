"""Tests for exact Gaussian-rational phases and Laurent rational functions."""

import contextlib
import io
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import assume, example, given, strategies as st

from hallq import cli, exact, hall, oracles, quiver, stability, torus, verify
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
from hallq.oracles import QtFunction

QT_ZERO, QT_ONE = QtFunction(LaurentPoly.zero()), QtFunction(LaurentPoly.one())


def g(re, im):
    return GaussianRational(Fraction(re), Fraction(im))


def qt(num_low, num_coeffs, den_low=0, den_coeffs=(1,)):
    """A value of the oracle field Q(t)."""
    return QtFunction(LaurentPoly(num_low, num_coeffs), LaurentPoly(den_low, den_coeffs))


def _field(x):
    """A ring value in the oracle field.  The ring's canonical form is the
    field's (its den is monic), so x must come as the field's (num, den):
    a value the kernel left unreduced fails here."""
    f = QtFunction.of(x)
    assert (f.num, f.den) == (x.num, x.den)
    return f


# t / (t^2 - 1), a value of the ring
RF_EX = RationalFunction(LaurentPoly(1, [1]), ((1, 1), (2, 1)))


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

def test_gaussian_cross():
    assert g(2, 1).cross(g(1, 2)) == 3
    assert g(1, 2).cross(g(2, 4)) == 0


def test_gaussian_json_round_trip():
    z = GaussianRational(Fraction(-3, 2), Fraction(5, 7))
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
                QtFunction(LaurentPoly(0, ints), LaurentPoly(2, zero))


def test_laurent_arithmetic():
    t = LaurentPoly.t_power(1)
    one = LaurentPoly.one()
    assert t * t == LaurentPoly.t_power(2)
    assert t + t == LaurentPoly(1, [2])
    assert t - t == LaurentPoly.zero()
    assert (t + one) * (t - one) == LaurentPoly(0, [-1, 0, 1])
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
    assert LaurentPoly(3, []).to_json() == {"t_low": 0, "coeffs": []}
    # the coefficients are integers: a rational one is refused
    with pytest.raises(TypeError):
        LaurentPoly.constant(Fraction(1, 2))
    # ... and so is one handed to the constructor, when it is built
    with pytest.raises(TypeError):
        LaurentPoly(0, [Fraction(1, 2)])
    with pytest.raises(TypeError):
        LaurentPoly(-1, [1, 0, 2.0])


# ----------------------------------------------------------------------
# Values of the ring Z[t^+-1][1/Phi_i]
# ----------------------------------------------------------------------

def test_rf_mul_cancels_to_one():
    # (t/(t^2-1)) * ((t^2-1)/t) == 1
    a = RF_EX
    b = RationalFunction(LaurentPoly(-1, [-1, 0, 1]))
    assert a * b == RF_ONE


def test_rf_eq_common_factor():
    # 2t/(2t^2-2) in Q(t) == t/(t^2-1) in the ring
    a = qt(1, [2], 0, [-2, 0, 2])
    assert rf_eq(a, RF_EX) and rf_eq(RF_EX, a)


def test_rf_eq_rejects_different():
    # t/(t^2-1) != 1/(t-1)
    b = RationalFunction(LaurentPoly(0, [1]), ((1, 1),))
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
    # (1 + 2t) / Phi_1 and 2 have no inverse in the ring; Phi_2 = 1 + t has
    # one, but inv takes monomial numerators only
    for c in (RationalFunction(LaurentPoly(0, [1, 2]), ((1, 1),)), RationalFunction.constant(2),
              RationalFunction(LaurentPoly(0, [1, 1]))):
        with pytest.raises(ArithmeticError, match="inv takes only"):
            c.inv()


def test_rf_canonical_form_is_unique():
    # equal values hash and compare equal after construction: t Phi_3 over
    # Phi_1 Phi_2 Phi_3 cancels to t over Phi_1 Phi_2
    a = RationalFunction(LaurentPoly(1, [1, 1, 1]), [(1, 1), (2, 1), (3, 1)])
    assert a == RF_EX and a._exps == ((1, 1), (2, 1))
    assert hash(a) == hash(RF_EX)


def test_constructor_refuses_malformed_exponent_vectors():
    one = LaurentPoly.one()
    for exps in (((0, 1),), ((2, 1), (1, 1)), ((1, 1), (1, 2)), ((3, 0),), ((3, -1),)):
        with pytest.raises(ValueError, match="exponent vector"):
            RationalFunction(one, exps)
    with pytest.raises(TypeError):
        RationalFunction(one, ((Fraction(3, 2), 1),))


def test_rf_json_round_trip():
    a = RationalFunction(LaurentPoly(-1, [1, 2]), ((3, 1),))
    assert a.to_json() == {"num": {"t_low": -1, "coeffs": ["1", "2"]},
                           "den": {"t_low": 0, "coeffs": ["1", "1", "1"]}}


def test_rf_to_json_hands_out_fresh_renderings():
    # the denominator's strings come from a shared cache: changing what
    # one call returned must not reach the renderings of later calls
    a = RationalFunction(LaurentPoly(-1, [1, 2]), ((3, 1),))
    b = RationalFunction(LaurentPoly(1, [3]), ((1, 1), (2, 1)))  # 3t / (t^2 - 1)
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
    assert b.to_json()["den"] == {"t_low": 0, "coeffs": ["-1", "0", "1"]}


def test_rf_shifted():
    assert RationalFunction.t_power(2).shifted(3) == RationalFunction.t_power(5)


def test_constant_takes_integers_only():
    assert RationalFunction.constant(-7) == RationalFunction(LaurentPoly.constant(-7))
    assert RationalFunction.constant(0) == RF_ZERO
    for c in (Fraction(1, 2), Fraction(6, 3), 0.5):
        with pytest.raises(TypeError):
            RationalFunction.constant(c)


# Random values of the ring: numerators with negative t_low, over
# products of Phi_i for i up to 12, some of them a numerator times one of
# its own Phi_i, so that the constructor and the sums cancel it
RING_IDS = tuple(range(1, 13))


def _random_ring_value(rng):
    exps = tuple((i, rng.randint(1, 3)) for i in RING_IDS if rng.random() < 0.25)
    ints = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
    if exps and rng.random() < 0.3:
        ints = exact._iconv(ints, exact._cyclotomic(rng.choice(exps)[0]))
    return RationalFunction(LaurentPoly(rng.randint(-4, 3), ints), exps)


def _random_unit(rng):
    exps = tuple((i, rng.randint(1, 2)) for i in RING_IDS if rng.random() < 0.25)
    return RationalFunction(LaurentPoly(rng.randint(-4, 4), [rng.choice((1, -1))]), exps)


def test_ring_operations_match_the_oracle_field():
    # sums, differences and products of random ring values, and inverses of
    # units, equal the results of Q(t) over the gcd, and stay in the ring:
    # each result carries its tuple of Phi-exponents
    rng = random.Random(36)
    cancelled = 0
    for _ in range(400):
        a, b = _random_ring_value(rng), _random_ring_value(rng)
        if rng.random() < 0.3:
            # a = c + d and b = -d for a d over one Phi_j: a + b is c, so
            # the sum cancels Phi_j unless c's denominator has it
            c = a
            d = RationalFunction(LaurentPoly(rng.randint(-3, 3), [rng.randint(1, 5)]),
                                 ((rng.choice(RING_IDS), 1),))
            a, b = c + d, -d
            assert a + b == c
        fa, fb = _field(a), _field(b)
        for got, want in ((a * b, fa * fb), (a + b, fa + fb), (a - b, fa - fb),
                          (b - a, fb - fa), (-a, -fa)):
            assert type(got._exps) is tuple
            assert _field(got) == want
            assert got.num == want.num and got.den == want.den
        cancelled += (a + b)._exps != exact._exps_merge(a._exps, b._exps, max)
        u = _random_unit(rng)
        inv = u.inv()
        assert inv._exps == () and _field(inv) == _field(u).inv()
        assert u * inv == RF_ONE and inv * u == RF_ONE
        assert (-u).inv() == -inv
    assert cancelled > 40


@given(st.integers(-4, 4), st.sampled_from((1, -1)),
       st.dictionaries(st.sampled_from(RING_IDS), st.integers(1, 3), max_size=4))
@example(2, -1, {1: 1, 2: 1})
@example(-3, 1, {})
def test_rf_inverse_equals_the_swapped_construction(k, sign, exps):
    # inv of a unit +-t^k over prod Phi_i^e_i skips every gcd: the t-shift
    # and the sign must still come out as in the oracle field's inverse
    a = RationalFunction(LaurentPoly(k, [sign]), sorted(exps.items()))
    got = a.inv()
    assert _field(got) == QtFunction(a.den, a.num)
    assert got._exps == () and got.num.t_low == -k and got.num.coefficients[-1] == sign


def test_exact_defines_no_polynomial_gcd():
    # the ring needs none: the gcd chain and its normal form are the
    # oracle field's, and a value holds its numerator and exponents only
    for name in ("_ipoly_gcd", "_icofactors", "_ipseudo_rem", "_iprimitive", "gcd"):
        assert not hasattr(exact, name) and hasattr(oracles, name)
    assert not hasattr(exact, "_icontent") and not hasattr(exact, "_normal_form")
    assert RationalFunction.__slots__ == ("num", "_exps")


# ----------------------------------------------------------------------
# The oracle field Q(t)
# ----------------------------------------------------------------------

small_poly = st.builds(
    LaurentPoly,
    st.integers(min_value=-3, max_value=3),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4),
)

nonzero_poly = small_poly.filter(lambda p: not p.is_zero)

rationals_fn = st.builds(QtFunction, small_poly, nonzero_poly)
nonzero_fn = st.builds(QtFunction, nonzero_poly, nonzero_poly)


@given(rationals_fn, rationals_fn, rationals_fn)
def test_rf_field_axioms(a, b, c):
    assert rf_eq(a + b, b + a)
    assert rf_eq(a * b, b * a)
    assert rf_eq((a + b) + c, a + (b + c))
    assert rf_eq((a * b) * c, a * (b * c))
    assert rf_eq(a * (b + c), a * b + a * c)
    assert rf_eq(a + -a, QT_ZERO)
    assert rf_eq(a - a, QT_ZERO)
    assert rf_eq(a + QT_ZERO, a)
    assert rf_eq(a * QT_ONE, a)


@given(nonzero_fn)
def test_rf_multiplicative_inverse(a):
    assert rf_eq(a * a.inv(), QT_ONE)


# polynomials with an integer content of either sign, so that the
# constructor must divide out a common content and a sign
content_poly = st.builds(
    lambda p, c: p * LaurentPoly.constant(c),
    small_poly,
    st.integers(min_value=-6, max_value=6).filter(bool),
)
nonzero_content_poly = content_poly.filter(lambda p: not p.is_zero)


def _check_canonical(x):
    # den of lowest exponent 0 with a positive leading coefficient; num and
    # den coprime, and so are their contents
    den = x.den
    assert den.t_low == 0 and den.coefficient(den.t_high) > 0
    assert oracles._ipoly_gcd(x.num._ints, den._ints) == (1,)
    assert gcd(*x.num._ints, *den._ints) == 1


@given(rationals_fn, nonzero_fn, st.integers(-3, 3))
def test_rf_operations_return_the_canonical_form(a, b, s):
    # every result is a fixed point of the constructor, in its canonical
    # form; rf_eq alone would not see this
    t_s = QtFunction(LaurentPoly.t_power(s))
    for r in (a + b, a - b, a * b, b.inv(), a * b.inv(), b * b * b, a * t_s):
        assert r == QtFunction(r.num, r.den)
        _check_canonical(r)


@given(content_poly, nonzero_content_poly, nonzero_content_poly, content_poly, st.booleans())
@example(LaurentPoly(0, [-6, 4]), LaurentPoly(1, [-4, 0, -2]), LaurentPoly(0, [-3]),
         LaurentPoly.zero(), True)
@example(LaurentPoly(0, [2]), LaurentPoly(0, [4]), LaurentPoly(0, [3, 3]),
         LaurentPoly(0, [1]), False)
@example(LaurentPoly(2, [9, -6]), LaurentPoly(-1, [-10, 0, 6]), LaurentPoly(0, [1]),
         LaurentPoly(-3, [-5]), False)
def test_constructor_gives_the_canonical_form(a, b, m, c, same):
    # x = a / b; y is x's value over another denominator when `same`, else
    # another value over it; the constructor brings both to one form
    x = QtFunction(a, b)
    y = QtFunction(a * m if same else c, b * m)
    for z in (x, y):
        _check_canonical(z)
        assert QtFunction(z.num, z.den) == z
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
    return QtFunction(num, den)


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
    ca, cb = oracles._icofactors(a, b)
    g = oracles._ipoly_gcd(a, b)
    assert exact._iconv(g, ca) == a
    assert exact._iconv(g, cb) == b
    return g, ca, cb


# integer polynomials with nonzero constant and leading terms
int_poly = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5).map(
    tuple).filter(lambda p: p[0] != 0 and p[-1] != 0)


@given(int_poly, int_poly, int_poly)
def test_igcd_cofactors_matches_prs_on_shared_factor(f, a, b):
    fa, fb = exact._iconv(f, a), exact._iconv(f, b)
    g, _, _ = _check_cofactors(fa, fb)
    exact._iexact_div(g, oracles._iprimitive(f))  # raises unless f divides the gcd


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
# Sums over cyclotomic denominators against the oracle field
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
    """A kernel term as a value of Q(t)."""
    return QtFunction(LaurentPoly(s, a), exact._cyclo_den(exps))


def _rf_sum(terms):
    """The sum of kernel terms in Q(t), by the gcd."""
    out = QT_ZERO
    for term in terms:
        out = out + _rf_of_term(*term)
    return out


@given(st.lists(cyclo_term, min_size=1, max_size=6))
def test_cyclo_sum_matches_rational_function_sum(terms):
    assert _field(exact._cyclo_sum(tuple(terms))) == _rf_sum(terms)


@given(cyclo_term, cyclo_term)
def test_cyclo_sum_cancels_to_canonical_form(x, y):
    # x * phi / phi and x + y - y must both come back as x, canonically
    exps, s, a = x
    lifted = exact._exps_merge(exps, ((3, 1), (4, 2)))
    a_lift = exact._iconv(a, exact._cyclo_den(((3, 1), (4, 2)))._ints)
    assert _field(exact._cyclo_sum(((lifted, s, a_lift),))) == _rf_of_term(*x)
    terms = (x, y, _negated(y))
    assert _field(exact._cyclo_sum(terms)) == _rf_of_term(*x)


# ----------------------------------------------------------------------
# Kronecker form: polynomials as their values at X = 2^b
# ----------------------------------------------------------------------

X = 2 ** 64
near_x = st.one_of(st.integers(-9, 9), st.integers(X - 9, X + 9), st.integers(-X - 9, -X + 9),
                   st.integers(-2 ** 70, 2 ** 70))


def _at(ints, b):
    """ints(X) at X = 2^b, by the definition."""
    return sum(c << b * j for j, c in enumerate(ints))


@pytest.mark.parametrize("b", [64, 128])
@given(data=st.data())
def test_pack_and_unpack_round_trip(b, data):
    # entries below 2^(b-2) in size, negative and zero ones included; the
    # top one nonzero
    entry = st.one_of(st.integers(-3, 3), st.integers(-2 ** (b - 2) + 1, 2 ** (b - 2) - 1))
    ints = data.draw(st.lists(entry, min_size=1, max_size=12).filter(lambda a: a[-1]))
    v = exact._pack(ints, b)
    assert v == _at(ints, b)
    assert exact._unpack(v, b) == ints


@given(st.lists(near_x, max_size=8), st.sampled_from((64, 128)))
@example([X // 2 - 1, -X // 2], 64)
@example([-1, X // 2], 64)
def test_pack_is_the_value_at_x_for_entries_of_any_size(ints, b):
    assert exact._pack(ints, b) == _at(ints, b)


wide_entry = st.one_of(st.integers(-6, 6), st.integers(2 ** 62 - 9, 2 ** 62 + 9),
                       st.integers(-2 ** 62 - 9, -2 ** 62 + 9), st.integers(-2 ** 80, 2 ** 80))
wide_term = st.tuples(cyclo_exps, st.integers(-4, 4), st.lists(wide_entry, max_size=5).map(tuple))


@given(st.lists(wide_term, min_size=1, max_size=5), st.booleans())
def test_cyclo_sum_matches_the_gcd_sum_at_any_coefficient_size(terms, cancel):
    # the oracle is the constructor and + of the field QtFunction, with
    # the gcd, which shares no packing code with the kernel; zero terms (empty
    # or all-zero numerators) are drawn, and with `cancel` the negated
    # terms follow, so that the sum is 0
    if cancel:
        terms = terms + [_negated(t) for t in terms[::-1]]
    got = _factored(terms)
    assert _field(got) == _rf_sum(terms)
    assert got.is_zero or not cancel


@given(st.lists(wide_term, min_size=1, max_size=5), st.booleans(), st.integers(0, 2))
def test_kernel_numerators_are_what_the_validating_constructor_builds(terms, cancel, lift):
    # the kernel builds its numerator unchecked; rebuilt by the validating
    # constructor from its t_low and entries it is the same polynomial: a
    # tuple of ints with nonzero ends, also after a wider rerun, for a
    # monomial, and after divisions by Phi_i (`lift` multiplies the first
    # term's numerator and denominator by Phi_3, or by Phi_3 Phi_4, so
    # that the sum has factors to divide out)
    if lift:
        extra = ((3, 1), (4, 1))[:lift]
        exps, s, a = terms[0]
        terms = [(exact._exps_merge(exps, extra), s,
                  exact._iconv(a, exact._cyclo_den(extra)._ints))] + terms[1:]
    if cancel:
        terms = terms + [_negated(t) for t in terms[1:]]
    got = _factored(terms).num
    ints = got.coefficients
    assert got == LaurentPoly(got.t_low, ints)
    assert type(ints) is tuple and all(type(c) is int for c in ints)
    assert not ints or (ints[0] and ints[-1])
    assert ints or got.t_low == 0


def _count_reruns(mp):
    """A list that gets the width of each kernel call from now on that
    reruns wider: the rerun calls the kernel by its name in `exact`, which
    the torus does not use."""
    kernel = exact._cyclo_sum
    widths = []
    mp.setattr(exact, "_cyclo_sum", lambda terms, b: widths.append(b) or kernel(terms, b))
    return widths


@pytest.mark.parametrize("top, widths", [
    (2 ** 62 - 1, []),  # the bound 2^62 - 1 is below 2^(64-2)
    (2 ** 62, [72]),  # 63 bits, and 63 + 2 rounded up to whole bytes
    (2 ** 70 + 1, [80]),
])
def test_a_sum_past_the_bound_reruns_once_at_the_width_it_asks_for(monkeypatch, top, widths):
    # the bound is sum ||a||_inf ||cofactor||_1 over the groups: top * 1
    # for the group over the common denominator Phi_1 Phi_2, 0 for the
    # zero numerator over Phi_2, whose cofactor Phi_1 has norm 2
    terms = ((((1, 1), (2, 1)), 0, (top, 0, -1)), (((2, 1),), 3, (0,)))
    kernel = exact._cyclo_sum
    got_widths = _count_reruns(monkeypatch)
    got = kernel.__wrapped__(terms)
    assert _field(got) == _rf_sum(terms)
    assert got_widths == widths


# ----------------------------------------------------------------------
# Exact division by each Phi_i, behind the certificate p(X) mod Phi_i(X)
# ----------------------------------------------------------------------

def _divides(p, i):
    try:
        exact._iexact_div(p, exact._cyclotomic(i))
    except ArithmeticError:
        return False
    return True


def _count_divisions(mp):
    """A list that gets, for each exact division tried from now on,
    whether it divided."""
    tried = []
    div = exact._iexact_div

    def counted(a, b):
        try:
            out = div(a, b)
        except ArithmeticError:
            tried.append(False)
            raise
        tried.append(True)
        return out

    mp.setattr(exact, "_iexact_div", counted)
    return tried


def _certificate_rejects(p, i):
    """p(X) mod Phi_i(X) != 0 at X = 2^64, by the definition of the value."""
    return _at(p, 64) % _at(exact._cyclotomic(i), 64) != 0


@given(st.integers(1, 30), st.integers(1, 3),
       st.lists(st.integers(-9, 9), min_size=1, max_size=8).filter(any))
def test_divide_out_removes_every_multiple_of_phi(i, e, g):
    # g Phi_i^e over Phi_i^(e+1): each of the e copies is divided out, and
    # one more where Phi_i divides g; the value follows each division, so
    # each division tried divides
    p = exact._itrim(list(g))
    for _ in range(e):
        p = exact._iconv(p, exact._cyclotomic(i))
    with pytest.MonkeyPatch.context() as mp:
        tried = _count_divisions(mp)
        got = _factored([(((i, e + 1),), 0, p)])
    assert _field(got) == _rf_of_term(((i, 1),), 0, g)
    assert tried == [True] * (e + 1 - dict(got._exps).get(i, 0))


# 5 C = X - 1 with C below 2^62: the polynomial C (1 + t + t^2 + t^3 + t^4)
# has the value C Phi_5(X), a multiple of Phi_1(X) = X - 1, since
# Phi_5(X) = 5 mod X - 1; but Phi_1 does not divide it (its value at 1 is
# X - 1)
C5 = (X - 1) // 5


def test_a_division_the_certificate_lets_through_can_be_refused(monkeypatch):
    # the coefficients are below the bound, so the sum stays at X = 2^64:
    # the certificate lets Phi_1 through, the one division tried is
    # refused, and Phi_1 stays in the denominator
    p = (C5,) * 5
    assert 5 * C5 == X - 1 and C5 < 2 ** 62
    assert not _certificate_rejects(p, 1)
    tried = _count_divisions(monkeypatch)
    got = _factored([(((1, 1),), 0, p)])
    assert got._exps == ((1, 1),) and got.num == LaurentPoly(0, p)
    assert tried == [False]


@given(st.integers(1, 30), st.lists(near_x, min_size=1, max_size=10).filter(any),
       st.integers(0, 3), st.integers(0, 2), st.integers(0, 40), st.sampled_from((-1, 1)))
@example(1, [1, 0, 1], 0, 0, 0, 1)
@example(1, [X - 2, 0, 1], 0, 0, 0, 1)
@example(1, [C5] * 5, 0, 0, 0, 1)
@example(3, [1, 1], 3, 2, 1, -1)
def test_certificate_rejects_only_what_exact_division_rejects(i, g, kind, e, at, sign):
    # kind 0: g itself; 1: g * Phi_i^e; 2: that with one coefficient moved
    # by sign; 3: that plus sign * (X - t) t^at, which leaves the value at
    # X = 2^64 unchanged
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
        assert not _divides(p, i)
    # the whole path, at the width the sum asks for, certificate then
    # division, decides as exact division
    got = _factored([(((i, 1),), 0, p)])
    assert (got._exps == ()) == _divides(p, i)
    assert _field(got) == _rf_of_term(((i, 1),), 0, p)


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
    want = _rf_sum(terms)
    assert want == _rf_of_term(top, 0, num)
    tried = _count_divisions(monkeypatch)
    got = _factored(terms)
    assert _field(got) == want
    divided = sum(e for _, e in top) - sum(e for _, e in got._exps)
    assert divided > 0
    # the small cofactors leave a nonzero remainder at X for every Phi_i
    # that does not divide, so each division tried divides
    assert tried == [True] * divided


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
    # the certificate is the kernel's only test ahead of a division: no
    # Phi_i cancels from any sum of a dilogarithm product or an iso-class
    # sum, and the certificate rules each one out alone; the integration
    # sums do cancel, and each division tried there divides, so no
    # division is refused; no sum needs digits wider than 64 bits
    kernel = exact._cyclo_sum
    tried = _count_divisions(monkeypatch)
    widths = _count_reruns(monkeypatch)
    _run_cold(argv)
    assert kernel.cache_info().misses > 0
    assert False not in tried and (True in tried) == divides
    assert widths == []


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
    assert _field(exact._cyclo_sum(first)) == want
    for terms in variants:
        got = exact._cyclo_sum(terms)
        assert _field(got) == _rf_sum(terms) and _field(got) != want
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
    rx, ry = _rf_sum(xs), _rf_sum(ys)  # by the field's constructor and +, with the gcd
    # a kernel value holds its denominator as exponents alone
    assert type(x._exps) is tuple and type(y._exps) is tuple
    # equality by (num, exponents) is equality of the values
    assert (x == y) == (y == x) == (rx == ry)
    assert (x != y) == (rx != ry)
    # the kernel's canonical form is the field's: den is monic, so no
    # content is left to divide out
    assert (x.num, x.den) == (rx.num, rx.den) and (y.num, y.den) == (ry.num, ry.den)
    assert x.to_json() == {"num": rx.num.to_json(), "den": rx.den.to_json()}
    assert x.eval(Fraction(3, 2)) == rx.eval(Fraction(3, 2))
    assert _field(x + y) == rx + ry and _field(x * y) == rx * ry
    for z in (-x, x.shifted(3)):
        assert z._exps == x._exps
    assert _field(-x) == -rx
    assert _field(x.shifted(3)) == rx * QtFunction(LaurentPoly.t_power(3))


@given(st.lists(cyclo_term, min_size=1, max_size=4))
def test_reading_den_changes_neither_equality_nor_hash(terms):
    a, b = _factored(terms), _factored(terms)
    assume(not a.is_zero)
    exps = a._exps
    assert a is not b and a == b
    den = a.den
    # den is read from the memo of the exponents, and no slot is written
    assert den == exact._cyclo_den(exps) and a.den is den and a._exps == exps
    assert a == b and b == a
    assert hash(b) == hash(a) == hash((a.num, exps))
    c = _factored(terms)
    assert hash(c) == hash(a) and _field(c) == _rf_sum(terms)


def test_values_over_one_carry_the_empty_exponents():
    # the torus reads `_exps` alone: a value over 1 carries (), however it
    # is built, and every other value the exponents of its denominator
    x = RationalFunction(LaurentPoly(-2, [3, 0, -1]))
    t3 = RationalFunction.t_power(3)
    phi3 = LaurentPoly(0, [1, 1, 1])
    over_phi3 = RationalFunction(LaurentPoly(1, [2, -1]), ((3, 1),))
    over_one = [x, RationalFunction(LaurentPoly(1, [10])), t3,
                RationalFunction.constant(-7), RationalFunction.constant(0), t3.inv(),
                over_phi3 * RationalFunction(phi3), RationalFunction(phi3 * x.num, ((3, 1),)),
                RationalFunction(LaurentPoly(2, [-1]), ((1, 1), (3, 2))).inv(),
                x * x * x, t3.inv() * t3.inv(), x + t3, x - x, -x, x.shifted(2), RF_ZERO,
                RF_ONE, RationalFunction(x.num), over_phi3 - over_phi3]
    for c in over_one:
        assert c.den == LaurentPoly.one() and c._exps == ()
    for c in (over_phi3, over_phi3 * x, over_phi3 + t3, -over_phi3, over_phi3.shifted(-2)):
        assert c._exps == ((3, 1),) and c.den == phi3
    assert (over_phi3 * over_phi3)._exps == ((3, 2),)
