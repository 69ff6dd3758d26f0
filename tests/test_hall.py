"""Tests for finite-field counting: realizations, Hom/Ext ranks, Hall numbers."""

import itertools

import pytest
from hypothesis import given, strategies as st

from hallq.exact import LaurentPoly, RationalFunction, rf_eq
from hallq.hall import (
    Budget,
    BudgetError,
    CATALOG_BUDGET,
    DEFAULT_BUDGET,
    ENV_BUDGET,
    FiniteFieldRep,
    HallPolynomial,
    InterpolationError,
    budget_from_env,
    check_integration_homomorphism,
    hall_count,
    interpolate_hall,
    iso_class_of,
    next_prime,
    realize,
    submodule_census,
    _lagrange,
    _newton,
)
from hallq.oracles import count_automorphisms, hom_ext_oracle
from hallq.quiver import CyclicQuiver, ModuleIso

from census_reference import _submodule_census_reference

Q2 = CyclicQuiver(2)
Q3 = CyclicQuiver(3)


def m_of(q, *pairs):
    return ModuleIso.of(*(q.R(s, l) for s, l in pairs))


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------

def test_budget_widened():
    b = Budget().widened(6, 13)
    assert b.hall_total == 6 and b.hall_prime == 13
    assert b.aut_total == 6 and b.aut_prime == 13
    assert Budget().widened(1, 1) == Budget()


def test_budget_from_env(monkeypatch):
    monkeypatch.delenv(ENV_BUDGET, raising=False)
    assert budget_from_env(DEFAULT_BUDGET) == DEFAULT_BUDGET
    monkeypatch.setenv(ENV_BUDGET, "13")
    assert budget_from_env(DEFAULT_BUDGET).hall_prime == 13
    monkeypatch.setenv(ENV_BUDGET, "6,17")
    b = budget_from_env(DEFAULT_BUDGET)
    assert b.hall_total == 6 and b.hall_prime == 17
    monkeypatch.setenv(ENV_BUDGET, "nonsense")
    with pytest.raises(ValueError):
        budget_from_env(DEFAULT_BUDGET)


def test_next_prime():
    assert next_prime(11) == 13
    assert next_prime(2) == 3
    assert next_prime(1) == 2


# ----------------------------------------------------------------------
# Matrix realizations
# ----------------------------------------------------------------------

def test_realize_simple():
    rep = realize(Q3, ModuleIso.of(Q3.simple(1)), 2)
    assert rep.dims == (1, 0, 0)
    assert all(not any(any(row) for row in mat) for mat in rep.maps)
    assert rep.check_nilpotent()


def test_realize_length_two():
    rep = realize(Q3, ModuleIso.of(Q3.R(1, 2)), 3)
    assert rep.dims == (1, 1, 0)
    # the only arrow action is V_2 -> V_1
    assert rep.maps[1] == ((1,),)
    assert rep.check_nilpotent()


def test_realize_shapes_and_nilpotency():
    rep = realize(Q3, ModuleIso.of(Q3.R(1, 4)), 5)
    assert rep.dims == (2, 1, 1)
    for v in range(3):
        mat = rep.maps[v]
        assert len(mat) == rep.dims[rep.target(v)]
        for row in mat:
            assert len(row) == rep.dims[v]
    assert rep.check_nilpotent()


def test_realize_rejects_composite_modulus():
    with pytest.raises(ValueError):
        realize(Q3, ModuleIso.of(Q3.simple(1)), 4)


def test_non_nilpotent_rep_detected():
    # identity action around the cycle is not an object of the category
    loop = FiniteFieldRep(2, 3, (1, 1), (((1,),), ((1,),)))
    assert not loop.check_nilpotent()


# ----------------------------------------------------------------------
# Iso-class recovery
# ----------------------------------------------------------------------

def test_iso_class_round_trip_small():
    for p in (2, 3):
        for m in Q3.enumerate_iso_classes(4):
            assert iso_class_of(realize(Q3, m, p)) == m


def test_iso_class_round_trip_n2():
    for m in Q2.enumerate_iso_classes(4):
        assert iso_class_of(realize(Q2, m, 2)) == m


def test_iso_class_zero():
    rep = realize(Q3, ModuleIso.zero(), 2)
    assert iso_class_of(rep) == ModuleIso.zero()


# ----------------------------------------------------------------------
# Hom/Ext oracle
# ----------------------------------------------------------------------

def test_hom_ext_anchor_values():
    s1 = ModuleIso.of(Q3.simple(1))
    s3 = ModuleIso.of(Q3.simple(3))
    assert hom_ext_oracle(Q3, s1, s1) == (1, 0)
    # Ext^1(S_1, S_3) is spanned by R(3,2)
    assert hom_ext_oracle(Q3, s1, s3) == (0, 1)
    r12 = ModuleIso.of(Q3.R(1, 2))
    r22 = ModuleIso.of(Q3.R(2, 2))
    assert hom_ext_oracle(Q3, r12, r22) == (1, 1)


def test_hom_matches_closed_form():
    for n in (2, 3):
        q = CyclicQuiver(n)
        indecs = q.enumerate_indecomposables(2 * n)
        for a, b in itertools.product(indecs, repeat=2):
            hom, _ = hom_ext_oracle(q, ModuleIso.of(a), ModuleIso.of(b))
            assert hom == q.hom_dim(a, b)


def test_hom_minus_ext_is_euler_form():
    indecs = Q3.enumerate_indecomposables(5)
    for a, b in itertools.product(indecs[:10], repeat=2):
        hom, ext = hom_ext_oracle(Q3, ModuleIso.of(a), ModuleIso.of(b))
        da, db = Q3.dim_of_indec(a), Q3.dim_of_indec(b)
        assert hom - ext == Q3.euler_form(da, db)


def test_hom_ext_field_independent():
    pairs = [
        (m_of(Q3, (1, 2), (2, 1)), m_of(Q3, (3, 3))),
        (m_of(Q3, (1, 1), (1, 1)), m_of(Q3, (1, 2))),
        (m_of(Q3, (2, 4)), m_of(Q3, (2, 2), (1, 1))),
    ]
    for a, b in pairs:
        over_q = hom_ext_oracle(Q3, a, b)
        for p in (2, 3):
            assert hom_ext_oracle(Q3, a, b, p) == over_q


def test_hom_ext_additive_in_summands():
    a = m_of(Q3, (1, 2), (2, 1))
    b = m_of(Q3, (3, 3))
    ha, ea = hom_ext_oracle(Q3, m_of(Q3, (1, 2)), b)
    hb, eb = hom_ext_oracle(Q3, m_of(Q3, (2, 1)), b)
    assert hom_ext_oracle(Q3, a, b) == (ha + hb, ea + eb)


# ----------------------------------------------------------------------
# Automorphism counting
# ----------------------------------------------------------------------

def test_count_automorphisms_anchors():
    assert count_automorphisms(Q3, m_of(Q3, (1, 1)), 2) == 1
    assert count_automorphisms(Q3, m_of(Q3, (1, 1), (1, 1)), 2) == 6
    # |Aut(R(1,2) + S_1)| = q(q-1)^2
    assert count_automorphisms(Q3, m_of(Q3, (1, 2), (1, 1)), 2) == 2


def test_count_automorphisms_matches_polynomial():
    for p in (2, 3):
        for m in Q3.enumerate_iso_classes(3):
            if m.is_zero:
                continue
            assert count_automorphisms(Q3, m, p) == Q3.aut_value(m, p)


def test_count_automorphisms_budget_guards():
    with pytest.raises(BudgetError):
        count_automorphisms(Q3, m_of(Q3, (1, 5)), 2)
    with pytest.raises(BudgetError):
        count_automorphisms(Q3, m_of(Q3, (1, 1)), 5)
    tight = Budget(aut_space=2)
    with pytest.raises(BudgetError):
        count_automorphisms(Q3, m_of(Q3, (1, 1), (1, 1)), 2, budget=tight)


# ----------------------------------------------------------------------
# Submodule census and Hall numbers
# ----------------------------------------------------------------------

def test_census_of_square_of_simple():
    rows = submodule_census(3, m_of(Q3, (1, 1), (1, 1)), 2)
    as_dict = {(l, m): c for l, m, c in rows}
    s1 = m_of(Q3, (1, 1))
    s11 = m_of(Q3, (1, 1), (1, 1))
    assert as_dict[(ModuleIso.zero(), s11)] == 1
    assert as_dict[(s1, s1)] == 3
    assert as_dict[(s11, ModuleIso.zero())] == 1


def test_census_respects_arrow_invariance():
    # R(1,2) has a unique proper nonzero submodule, the socle
    rows = submodule_census(3, m_of(Q3, (1, 2)), 5)
    as_dict = {(l, m): c for l, m, c in rows}
    assert as_dict[(m_of(Q3, (1, 1)), m_of(Q3, (2, 1)))] == 1
    assert len(rows) == 3


@pytest.mark.parametrize("n,totals,primes", [
    (2, (0, 1, 2, 3), (2, 3, 5)),
    (3, (0, 1, 2, 3), (2, 3, 5)),
    (4, (0, 1, 2, 3), (2, 3, 5)),
    (2, (4,), (2, 3)),
    (3, (4,), (2, 3)),
])
def test_census_matches_reference(n, totals, primes):
    q = CyclicQuiver(n)
    bigs = [m for m in q.enumerate_iso_classes(max(totals))
            if sum(q.dim_of(m)) in totals]
    for big in bigs:
        for p in primes:
            assert submodule_census(n, big, p) == _submodule_census_reference(n, big, p), (big, p)


def test_hall_count_anchors():
    s1, s2 = m_of(Q3, (1, 1)), m_of(Q3, (2, 1))
    r12 = m_of(Q3, (1, 2))
    assert hall_count(Q3, s1, s2, r12, 5) == 1
    assert hall_count(Q3, s2, s1, r12, 5) == 0
    assert hall_count(Q3, s2, s1, ModuleIso.of(Q3.simple(1), Q3.simple(2)), 5) == 1
    for p in (2, 3, 5):
        assert hall_count(Q3, s1, s1, m_of(Q3, (1, 1), (1, 1)), p) == p + 1


def test_hall_count_uniserial_chain():
    # the submodules of R(1,3) are exactly S_1, R(1,2), R(1,3)
    r13 = m_of(Q3, (1, 3))
    assert hall_count(Q3, m_of(Q3, (1, 1)), m_of(Q3, (2, 2)), r13, 3) == 1
    assert hall_count(Q3, m_of(Q3, (2, 2)), m_of(Q3, (1, 1)), r13, 3) == 0


def test_hall_count_dimension_mismatch():
    with pytest.raises(ValueError):
        hall_count(Q3, m_of(Q3, (1, 1)), m_of(Q3, (1, 1)), m_of(Q3, (1, 2)), 3)


def test_hall_count_budget():
    big = m_of(Q3, (1, 3), (1, 2))
    with pytest.raises(BudgetError):
        hall_count(Q3, m_of(Q3, (1, 3)), m_of(Q3, (1, 2)), big, 3)
    with pytest.raises(BudgetError):
        hall_count(Q3, m_of(Q3, (1, 1)), m_of(Q3, (2, 1)), m_of(Q3, (1, 2)), 7)


def test_hall_count_nonprime():
    with pytest.raises(ValueError):
        hall_count(Q3, m_of(Q3, (1, 1)), m_of(Q3, (2, 1)), m_of(Q3, (1, 2)), 4)


# ----------------------------------------------------------------------
# Interpolation
# ----------------------------------------------------------------------

def test_interpolate_constant_polynomial():
    phi = interpolate_hall(Q3, m_of(Q3, (1, 1)), m_of(Q3, (2, 1)),
                           m_of(Q3, (1, 2)), (2, 3))
    assert phi.coeffs == (1,)
    assert phi.eval_q(97) == 1
    assert phi.nodes[-1][0] == 5


def test_interpolate_linear_polynomial():
    s1 = m_of(Q3, (1, 1))
    phi = interpolate_hall(Q3, s1, s1, m_of(Q3, (1, 1), (1, 1)), (2, 3))
    assert phi.coeffs == (1, 1)
    assert phi.as_laurent() == LaurentPoly(0, [1, 0, 1])


def test_interpolate_holdout_catches_underfitting():
    # two nodes cannot pin down the quartic Gaussian binomial
    s11 = m_of(Q2, (1, 1), (1, 1))
    big = m_of(Q2, (1, 1), (1, 1), (1, 1), (1, 1))
    with pytest.raises(InterpolationError):
        interpolate_hall(Q2, s11, s11, big, (2, 3))


def test_interpolate_gaussian_binomial():
    s11 = m_of(Q2, (1, 1), (1, 1))
    big = m_of(Q2, (1, 1), (1, 1), (1, 1), (1, 1))
    phi = interpolate_hall(Q2, s11, s11, big, (2, 3, 5, 7, 11))
    assert phi.coeffs == (1, 1, 2, 1, 1)


def test_interpolate_validation_prime_must_be_held_out():
    s1 = m_of(Q3, (1, 1))
    with pytest.raises(ValueError):
        interpolate_hall(Q3, s1, s1, m_of(Q3, (1, 1), (1, 1)), (2, 3),
                         validate_prime=3)
    with pytest.raises(ValueError):
        interpolate_hall(Q3, s1, s1, m_of(Q3, (1, 1), (1, 1)), (2,))


def test_interpolation_error_messages(monkeypatch):
    s1 = m_of(Q3, (1, 1))
    big = m_of(Q3, (1, 1), (1, 1))
    counts = {2: 0, 3: 1, 5: 0, 7: 0}
    monkeypatch.setattr("hallq.hall.hall_count",
                        lambda q, sub, quo, big, p, budget: counts[p])
    nodes = [(2, 0), (3, 1), (5, 0)]
    with pytest.raises(InterpolationError) as err:
        interpolate_hall(Q3, s1, s1, big, (2, 3, 5))
    assert str(err.value) == (f"non-integer coefficients {_lagrange(nodes)}; "
                              "add more primes")
    assert "Fraction(" in str(err.value)
    counts.update({3: 0, 5: 1})
    with pytest.raises(InterpolationError,
                       match=r"^holdout mismatch at p=5: poly gives 0, count is 1$"):
        interpolate_hall(Q3, s1, s1, big, (2, 3))


NODES = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=2, max_size=6,
                 unique=True)


@given(NODES, st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=6, max_size=6))
def test_newton_matches_lagrange_on_integer_polynomials(xs, coeffs):
    coeffs = coeffs[:len(xs)]
    points = [(x, sum(c * x ** k for k, c in enumerate(coeffs))) for x in xs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    assert _newton(points) == [int(c) for c in _lagrange(points)] == coeffs


@given(NODES, st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=6, max_size=6))
def test_newton_refuses_exactly_the_non_integral_fits(xs, ys):
    points = list(zip(xs, ys))
    fractions = _lagrange(points)
    newton = _newton(points)
    if all(c.denominator == 1 for c in fractions):
        assert newton == [int(c) for c in fractions]
    else:
        assert newton is None


def test_hall_polynomial_json():
    phi = HallPolynomial(m_of(Q3, (1, 1)), m_of(Q3, (2, 1)), m_of(Q3, (1, 2)),
                         (1,), ((2, 1), (3, 1)))
    data = phi.to_json()
    assert data["coeffs"] == [1]
    assert data["N"] == [[1, 2]]


# ----------------------------------------------------------------------
# The integration map respects products
# ----------------------------------------------------------------------

def test_integration_homomorphism_basic_pairs():
    ok, report = check_integration_homomorphism(Q3, m_of(Q3, (1, 1)), m_of(Q3, (2, 1)))
    assert ok
    assert report["ok"]
    ok, _ = check_integration_homomorphism(Q3, m_of(Q3, (1, 1)), m_of(Q3, (3, 1)))
    assert ok
    ok, _ = check_integration_homomorphism(Q2, m_of(Q2, (1, 2)), m_of(Q2, (1, 1)))
    assert ok


def test_integration_homomorphism_with_zero():
    ok, _ = check_integration_homomorphism(Q3, ModuleIso.zero(), m_of(Q3, (1, 2)))
    assert ok


def test_integration_homomorphism_twist_flip_fails():
    ok, _ = check_integration_homomorphism(Q3, m_of(Q3, (1, 1)), m_of(Q3, (2, 1)),
                                           twist_sign=-1)
    assert not ok


def test_integration_homomorphism_budget():
    big = m_of(Q3, (1, 3))
    with pytest.raises(BudgetError):
        check_integration_homomorphism(Q3, big, big, budget=Budget(hall_total=4))
