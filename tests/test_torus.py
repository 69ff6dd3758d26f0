"""Tests for the truncated quantum torus and dilogarithm series."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from hallq import cli, exact, torus
from hallq.exact import (
    LaurentPoly,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    rf_eq,
)
from hallq.quiver import CyclicQuiver, ModuleIso, multisets_with_budget
from hallq.stability import NotDiscreteError, StabilityFunction, charge_of, random_discrete
from hallq.torus import (
    TorusElement,
    _convolve_reference,
    apply_translate,
    convolve,
    dilog,
    dilog_coefficient,
    ez,
    ez_delta,
    ez_factors,
    integrate,
    integrate_iso_sum,
    integrate_modules,
    integrate_multisets,
    ordered_product,
    phase_indecomposables,
    semistable_phase_factor,
    stable_dims,
    torus_diff,
    torus_inverse,
)
from hallq.verify import _pentagon_candidates

import torus_at_point

Q2 = CyclicQuiver(2)
Q3 = CyclicQuiver(3)


def mono(n, trunc, d, coeff=RF_ONE):
    return TorusElement.monomial(n, trunc, d, coeff)


def rf_t(k):
    return RationalFunction.t_power(k)


# ----------------------------------------------------------------------
# Torus element basics
# ----------------------------------------------------------------------

def test_monomial_and_coefficient():
    x = mono(3, 6, (1, 0, 0))
    assert x.coefficient((1, 0, 0)) == RF_ONE
    assert x.coefficient((0, 1, 0)) == RF_ZERO


def test_zero_one_constants():
    z = TorusElement.zero(3, 6)
    o = TorusElement.one(3, 6)
    assert not z
    assert o.constant_term == RF_ONE
    assert o + z == o


def test_monomials_beyond_truncation_vanish():
    x = mono(2, 2, (2, 1))
    assert x == TorusElement.zero(2, 2)


def test_additive_group_ops():
    a = mono(3, 6, (1, 0, 0))
    b = mono(3, 6, (0, 1, 0), rf_t(2))
    s = a + b
    assert s.coefficient((1, 0, 0)) == RF_ONE
    assert s.coefficient((0, 1, 0)) == rf_t(2)
    assert s - b == a
    assert a + (-a) == TorusElement.zero(3, 6)


def test_negative_dims_rejected():
    with pytest.raises(ValueError):
        mono(3, 6, (-1, 0, 0))
    with pytest.raises(ValueError):
        mono(3, 6, (1, 0))


def test_mixed_truncations_rejected():
    with pytest.raises(ValueError):
        mono(3, 6, (1, 0, 0)) + mono(3, 4, (1, 0, 0))


def test_json_round_trip():
    x = mono(3, 6, (1, 1, 0), rf_t(1)) + mono(3, 6, (0, 0, 2))
    assert TorusElement.from_json(x.to_json()) == x


# ----------------------------------------------------------------------
# Twisted product
# ----------------------------------------------------------------------

def test_twist_on_unit_vectors():
    # y^{e1} y^{e2} = t y^{e1+e2} for n = 3
    a = mono(3, 6, (1, 0, 0))
    b = mono(3, 6, (0, 1, 0))
    prod = a * b
    assert prod.coefficient((1, 1, 0)) == rf_t(1)
    rev = b * a
    assert rev.coefficient((1, 1, 0)) == rf_t(-1)


def test_twist_antisymmetry_in_general():
    a = mono(3, 8, (2, 0, 1))
    b = mono(3, 8, (0, 1, 1))
    k = Q3.lambda_form((2, 0, 1), (0, 1, 1))
    assert (a * b).coefficient((2, 1, 2)) == rf_t(k)
    assert (b * a).coefficient((2, 1, 2)) == rf_t(-k)


def test_delta_powers_are_central():
    d = mono(3, 9, (1, 1, 1))
    d2 = mono(3, 9, (2, 2, 2))
    x = mono(3, 9, (1, 0, 2), rf_t(3)) + mono(3, 9, (0, 1, 0))
    for c in (d, d2):
        assert c * x == x * c


def test_product_truncates():
    a = mono(2, 2, (1, 0))
    b = mono(2, 2, (1, 1))
    assert a * b == TorusElement.zero(2, 2)


def test_product_bilinear():
    a = mono(3, 6, (1, 0, 0))
    b = mono(3, 6, (0, 1, 0))
    c = mono(3, 6, (0, 0, 1))
    assert a * (b + c) == a * b + a * c


def test_associativity_random():
    rng = random.Random(5)
    dims = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
    els = []
    for _ in range(3):
        x = TorusElement.zero(3, 5)
        for d in rng.sample(dims, 3):
            x = x + mono(3, 5, d, rf_t(rng.randint(-2, 2)))
        els.append(x)
    a, b, c = els
    assert (a * b) * c == a * (b * c)


def test_convolve_flip_changes_twist():
    a = mono(3, 6, (1, 0, 0))
    b = mono(3, 6, (0, 1, 0))
    # lambda is antisymmetric: swapping the operands flips the twist
    flipped = convolve(b, a)
    assert flipped.coefficient((1, 1, 0)) == rf_t(-1)


def test_n2_torus_is_commutative():
    a = mono(2, 4, (1, 0)) + mono(2, 4, (1, 1), rf_t(2))
    b = mono(2, 4, (0, 1), rf_t(-1)) + mono(2, 4, (2, 0))
    assert a * b == b * a


def test_ordered_product():
    factors = [mono(3, 6, (1, 0, 0)), mono(3, 6, (0, 1, 0)), mono(3, 6, (0, 0, 1))]
    out = ordered_product(factors, 3, 6)
    # lambda(e1,e2) = 1 and lambda(e1+e2, e3) = 0
    assert out.coefficient((1, 1, 1)) == rf_t(1)
    assert ordered_product([], 3, 6) == TorusElement.one(3, 6)


def test_truncation_zero_keeps_constants_only():
    a = TorusElement.one(3, 0) + mono(3, 0, (1, 0, 0))
    assert a == TorusElement.one(3, 0)
    assert a * a == TorusElement.one(3, 0)


# ----------------------------------------------------------------------
# Inversion
# ----------------------------------------------------------------------

def test_inverse_of_geometric_series():
    one = TorusElement.one(3, 4)
    a = one + mono(3, 4, (1, 0, 0))
    inv = torus_inverse(a)
    # lambda(e1, e1) = 0, so inversion is the alternating geometric series
    for k in range(5):
        want = RF_ONE if k % 2 == 0 else RationalFunction.constant(-1)
        assert inv.coefficient((k, 0, 0)) == want
    assert a * inv == one


def test_inverse_requires_invertible_constant_term():
    a = mono(3, 4, (1, 0, 0))
    with pytest.raises(ZeroDivisionError):
        torus_inverse(a)


def test_inverse_with_nontrivial_constant():
    a = mono(3, 4, (0, 0, 0), rf_t(2)) + mono(3, 4, (0, 1, 0), rf_t(-1))
    inv = torus_inverse(a)
    assert a * inv == TorusElement.one(3, 4)
    assert inv * a == TorusElement.one(3, 4)


def test_dilog_times_inverse_is_one():
    e = dilog(3, 6, (1, 0, 0))
    assert e * torus_inverse(e) == TorusElement.one(3, 6)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_inverse_is_two_sided_on_ez_products(n):
    trunc = 2 * n
    a = ez(random_discrete(n, 5), trunc)
    inv = torus_inverse(a)
    assert a * inv == TorusElement.one(n, trunc)
    assert inv * a == TorusElement.one(n, trunc)


def test_inverse_with_constant_outside_the_cyclotomic_invariant():
    # (1 + 2t)/(3 - t) has a non-cyclotomic denominator, so the geometric
    # series runs through the pair-by-pair fallback of convolve
    c0 = RationalFunction(LaurentPoly(0, [1, 2]), LaurentPoly(0, [3, -1]))
    a = mono(3, 5, (0, 0, 0), c0) + ez(random_discrete(3, 1), 5) - TorusElement.one(3, 5)
    inv = torus_inverse(a)
    assert inv.constant_term == c0.inv()
    assert a * inv == TorusElement.one(3, 5)
    assert inv * a == TorusElement.one(3, 5)


# ----------------------------------------------------------------------
# Translation action
# ----------------------------------------------------------------------

def test_apply_translate_moves_support():
    x = mono(3, 6, (1, 1, 0), rf_t(1))
    y = apply_translate(x)
    # (tau d)_j = d_(j+1)
    assert y.coefficient((1, 0, 1)) == rf_t(1)


def test_apply_translate_is_algebra_map():
    a = mono(3, 6, (1, 0, 0)) + mono(3, 6, (0, 1, 1), rf_t(-1))
    b = mono(3, 6, (0, 1, 0), rf_t(2))
    assert apply_translate(a * b) == apply_translate(a) * apply_translate(b)


def test_apply_translate_order_n():
    x = mono(3, 6, (1, 2, 0), rf_t(1)) + mono(3, 6, (0, 0, 1))
    out = x
    for _ in range(3):
        out = apply_translate(out)
    assert out == x


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_apply_translate_matches_the_checked_rotation(n):
    # the trusted rotation against the validating constructor applied to
    # keys rotated entry by entry, for every k from -1 to n + 1
    rng = random.Random(n)
    elements = [ez(random_discrete(n, seed, 8), n + 1) for seed in range(2)]
    elements += [_random_cyclotomic_element(rng, n, 3) for _ in range(5)]
    elements += [TorusElement.zero(n, 3), TorusElement.one(n, 3)]
    for a in elements:
        for k in range(-1, n + 2):
            want = TorusElement(n, a.truncation, {
                tuple(d[(j + k) % n] for j in range(n)): c for d, c in a.terms.items()})
            got = apply_translate(a, k)
            assert got == want and got.truncation == a.truncation
            assert all(type(d) is tuple for d in got.terms)


# ----------------------------------------------------------------------
# Dilogarithm series
# ----------------------------------------------------------------------

def test_dilog_coefficient_values():
    # c_1 = t/(t^2-1)
    c1 = dilog_coefficient(1)
    assert rf_eq(c1, RationalFunction(LaurentPoly(1, [1]), LaurentPoly(0, [-1, 0, 1])))
    # c_2 = t^4/((t^4-1)(t^4-t^2))
    c2 = dilog_coefficient(2)
    den = LaurentPoly(0, [-1, 0, 1]) * LaurentPoly(0, [-1, 0, 0, 0, 1])
    assert rf_eq(c2, RationalFunction(LaurentPoly(2, [1]), den))
    assert dilog_coefficient(0) == RF_ONE


def test_dilog_coefficient_is_the_q_pochhammer_quotient():
    for m in range(11):
        den = LaurentPoly.one()
        for j in range(m):
            den = den * (LaurentPoly.q_power(m) - LaurentPoly.q_power(j))
        assert dilog_coefficient(m) == RationalFunction(LaurentPoly.t_power(m * m), den)


def test_dilog_series_shape():
    e = dilog(3, 6, (1, 0, 0))
    assert e.constant_term == RF_ONE
    assert e.coefficient((1, 0, 0)) == dilog_coefficient(1)
    assert e.coefficient((2, 0, 0)) == dilog_coefficient(2)
    assert e.coefficient((0, 1, 0)) == RF_ZERO


def test_dilog_truncation():
    e = dilog(2, 3, (1, 1))
    assert e.coefficient((1, 1)) == dilog_coefficient(1)
    assert e.coefficient((2, 2)) == RF_ZERO


# ----------------------------------------------------------------------
# Integration map
# ----------------------------------------------------------------------

def test_integrate_simple():
    # chi(e1,e1) = 1 and |Aut S_1| = q-1 give t/(t^2-1)
    out = integrate(Q3, ModuleIso.of(Q3.simple(1)), 6)
    assert rf_eq(out.coefficient((1, 0, 0)), dilog_coefficient(1))


def test_integrate_square_of_simple():
    out = integrate(Q3, ModuleIso.of(Q3.simple(1), Q3.simple(1)), 6)
    assert rf_eq(out.coefficient((2, 0, 0)), dilog_coefficient(2))


def test_integrate_regular_uniserial():
    # chi(delta, delta) = 0 and End R(1,3) = F_q
    out = integrate(Q3, ModuleIso.of(Q3.R(1, 3)), 6)
    got = out.coefficient((1, 1, 1))
    assert rf_eq(got, RationalFunction(LaurentPoly.one(), LaurentPoly(0, [-1, 0, 1])))


def test_integrate_zero_module():
    assert integrate(Q3, ModuleIso.zero(), 6) == TorusElement.one(3, 6)


def test_integrate_iso_sum_counts_support():
    total = integrate_iso_sum(Q2, 2)
    assert total.constant_term == RF_ONE
    # dims (1,1) gather S_1+S_2, R(1,2), R(2,2)
    supported = [d for d in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
                 if total.coefficient(d) != RF_ZERO]
    assert len(supported) == 5


def test_integrate_modules_over_simple_summands():
    only_simples = integrate_modules(
        Q2, 2, [m for m in Q2.enumerate_iso_classes(2) if all(r.length == 1 for r in m)]
    )
    assert only_simples.coefficient((1, 1)) != RF_ZERO
    assert rf_eq(
        only_simples.coefficient((2, 0)),
        integrate(Q2, ModuleIso.of(Q2.simple(1), Q2.simple(1)), 2).coefficient((2, 0)),
    )


# ----------------------------------------------------------------------
# Stability-driven products
# ----------------------------------------------------------------------

def z_ref():
    from hallq.exact import GaussianRational

    def g(re, im):
        return GaussianRational(Fraction(re), Fraction(im))

    return StabilityFunction(3, (g(2, 1), g(-2, 1), g(1, 2)))


def test_ez_skips_the_delta_factor():
    z = z_ref()
    factors = ez(z, 6)
    # support below delta excludes multiples of (1,1,1) except 0
    assert factors.coefficient((1, 1, 1)) != RF_ZERO  # cross terms still land there
    assert factors.constant_term == RF_ONE


def test_delta_phase_indecomposables():
    z = z_ref()
    parts = phase_indecomposables(z, 6, charge_of(z, Q3.delta))
    assert parts == [Q3.R(3, 3), Q3.R(3, 6)]


def test_multisets_with_budget():
    parts = [Q3.R(3, 3), Q3.R(3, 6)]
    found = multisets_with_budget(parts, 6)
    as_sets = {tuple(sorted((r.socle, r.length) for r in m)) for m in found}
    # the empty multiset carries the constant term of the series
    assert as_sets == {(), ((3, 3),), ((3, 3), (3, 3)), ((3, 6),)}


def test_multisets_with_negative_budget_is_empty():
    parts = [Q3.R(3, 3), Q3.R(3, 6)]
    assert list(multisets_with_budget(parts, -1)) == []
    assert list(multisets_with_budget(parts, 0)) == [ModuleIso.zero()]


def test_ez_delta_depends_only_on_n():
    # the delta-phase block has the same series for every discrete function
    a = ez_delta(z_ref(), 6)
    b = ez_delta(random_discrete(3, 2), 6)
    assert torus_diff(a, b) == []
    assert a.coefficient((1, 1, 1)) != RF_ZERO


def test_semistable_phase_factor_at_stable_phase():
    # away from the delta phase the factor is the dilog of the stable object
    z = z_ref()
    factor = semistable_phase_factor(z, 6, z.charges[1])
    expect = dilog(3, 6, (0, 1, 0))
    assert torus_diff(factor, expect) == []


def test_torus_diff_reports_mismatches():
    a = mono(3, 4, (1, 0, 0))
    b = mono(3, 4, (1, 0, 0), rf_t(1)) + mono(3, 4, (0, 1, 0))
    diff = torus_diff(a, b)
    dims = {tuple(entry["dim"]) for entry in diff}
    assert dims == {(1, 0, 0), (0, 1, 0)}


# ----------------------------------------------------------------------
# The cyclotomic kernel against the pair-by-pair and per-class oracles
# ----------------------------------------------------------------------

def _reference_product(factors, n, trunc):
    acc = TorusElement.one(n, trunc)
    for f in factors:
        acc = _convolve_reference(acc, f)
    return acc


@pytest.mark.parametrize("n,trunc,seeds", [(2, 8, range(4)), (3, 6, range(4)),
                                           (4, 8, range(3))])
def test_ez_products_match_pair_by_pair_reference(n, trunc, seeds):
    for seed in seeds:
        z = random_discrete(n, 100 + seed, 8)
        factors = [dilog(n, trunc, d) for d in stable_dims(z, include_delta=True)]
        assert ordered_product(factors, n, trunc) == _reference_product(factors, n, trunc)
        # the flip-twist sabotage: each factor multiplied on the left
        flipped = ref = TorusElement.one(n, trunc)
        for f in factors:
            flipped, ref = convolve(f, flipped), _convolve_reference(f, ref)
        assert flipped == ref


def _hom_dim(q, a, b):
    """dim Hom(a, b) of two uniserials, from the table `aut_exponents` runs."""
    return q._hom_table([(a.socle, a.length, 1)], [(b.socle, b.length, 1)])[0][0]


def _aut_poly_by_counts(q, m):
    """|Aut M|(q) = q^(dim End M) prod_r prod_{k <= m_r} (1 - q^-k) from the
    multiplicities m_r and the pairwise Hom dimensions, apart from the
    one-summand increment that aut_factors and the iso-class walk share."""
    mults = Counter(m.summands)
    end = sum(ma * mb * _hom_dim(q, x, y) for x, ma in mults.items() for y, mb in mults.items())
    out = LaurentPoly.q_power(end - sum(k * (k + 1) // 2 for k in mults.values()))
    for mult in mults.values():
        for k in range(1, mult + 1):
            out = out * (LaurentPoly.q_power(k) - LaurentPoly.one())
    return out


def _per_class_sum(q, trunc, modules):
    terms = {}
    for m in modules:
        d = q.dim_of(m)
        if sum(d) <= trunc:
            c = RationalFunction(LaurentPoly.t_power(q.euler_form(d, d)), _aut_poly_by_counts(q, m))
            terms[d] = terms[d] + c if d in terms else c
    return TorusElement(q.n, trunc, terms)


@pytest.mark.parametrize("n,trunc", [(2, 8), (3, 6), (4, 5)])
def test_integrate_iso_sum_matches_per_class_sum(n, trunc):
    q = CyclicQuiver(n)
    got = integrate_iso_sum(q, trunc)
    assert got == _per_class_sum(q, trunc, q.enumerate_iso_classes(trunc))
    assert len(got.terms) > 1


@pytest.mark.parametrize("n,trunc", [(2, 6), (3, 6), (4, 5)])
def test_semistable_phase_factors_match_per_class_sum(n, trunc):
    z = random_discrete(n, 7, 8)
    phases = [charge_of(z, z.quiver.delta)]
    phases += [charge_of(z, z.quiver.dim_of_indec(r))
               for r in z.quiver.enumerate_indecomposables(2)]
    for phase in phases:
        parts = phase_indecomposables(z, trunc, phase)
        want = _per_class_sum(z.quiver, trunc,
                              multisets_with_budget(parts, trunc))
        assert semistable_phase_factor(z, trunc, phase) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_iso_class_walk_matches_integrate_modules(n):
    # the walk against the per-class path: every class, random subsets of
    # the parts in random order, no parts at all, and truncation 0
    q = CyclicQuiver(n)
    rng = random.Random(n)
    for trunc in range(7):
        every = q.enumerate_indecomposables(trunc)
        subsets = [every, []] + [rng.sample(every, rng.randint(1, len(every)))
                                 for _ in range(3 if every else 0)]
        for parts in subsets:
            want = integrate_modules(q, trunc,
                                     multisets_with_budget(parts, trunc))
            assert integrate_multisets(q, parts, trunc) == want
        assert integrate_iso_sum(q, trunc) == integrate_modules(
            q, trunc, q.enumerate_iso_classes(trunc))
    assert integrate_multisets(q, [], 5) == TorusElement.one(n, 5)


def _dihedral_orbit_count(n, trunc):
    """Orbits of the tuples d of n nonnegative entries with total <= trunc
    under rotation and reversal."""
    seen, orbits = set(), 0
    for d in itertools.product(range(trunc + 1), repeat=n):
        if sum(d) <= trunc and d not in seen:
            orbits += 1
            for k in range(n):
                turned = d[k:] + d[:k]
                seen.update((turned, turned[::-1]))
    return orbits


@pytest.mark.parametrize("n,trunc,orbits", [(2, 10, 36), (3, 8, 41), (4, 7, 63),
                                            (5, 8, 157), (6, 6, 105)])
def test_integrate_iso_sum_reduces_each_dihedral_orbit_once(n, trunc, orbits):
    # the iso-class sum calls the kernel once per orbit of dimension
    # vectors under rotation and reversal; the full count, which reduces
    # every dimension vector, hands the members of an orbit equal term
    # tuples in its canonical order, so its memo misses once per orbit;
    # at n = 6 distinct orbits share their statistics too (83 of 105)
    assert _dihedral_orbit_count(n, trunc) == orbits
    q = CyclicQuiver(n)
    exact._cyclo_sum.cache_clear()
    integrate_iso_sum(q, trunc)
    info = exact._cyclo_sum.cache_info()
    assert info.hits + info.misses == orbits
    exact._cyclo_sum.cache_clear()
    integrate_multisets(q, q.enumerate_indecomposables(trunc), trunc)
    full = exact._cyclo_sum.cache_info()
    assert full.misses <= orbits
    if n <= 5:
        assert info.hits == 0
        assert full.misses == orbits


@pytest.mark.parametrize("n,trunc", [(2, 12), (3, 8), (4, 7), (5, 8), (6, 6)])
def test_integrate_iso_sum_matches_the_full_count(n, trunc):
    # one orbit representative counted and copied against every dimension
    # vector counted, at the sizes and at truncations 0 and 1
    q = CyclicQuiver(n)
    for bound in (0, 1, trunc):
        got = integrate_iso_sum(q, bound)
        want = integrate_multisets(q, q.enumerate_indecomposables(bound), bound)
        assert got == want
        assert got.to_json() == want.to_json()


@pytest.mark.parametrize("n,trunc", [(2, 8), (3, 6), (4, 5)])
def test_integrate_multisets_ignores_the_order_of_parts(n, trunc):
    q = CyclicQuiver(n)
    parts = q.enumerate_indecomposables(trunc)
    exact._cyclo_sum.cache_clear()
    want = integrate_multisets(q, parts, trunc)
    misses = exact._cyclo_sum.cache_info().misses
    assert want == _per_class_sum(q, trunc, q.enumerate_iso_classes(trunc))
    rng = random.Random(n * 100 + trunc)
    for _ in range(3):
        shuffled = rng.sample(parts, len(parts))
        exact._cyclo_sum.cache_clear()
        got = integrate_multisets(q, shuffled, trunc)
        assert exact._cyclo_sum.cache_info().misses == misses
        assert got == want
        assert got.to_json() == want.to_json()


def _gl_order(k, q):
    """|GL_k(F_q)| = prod_{j < k} (q^k - q^j)."""
    out = 1
    for j in range(k):
        out *= q ** k - q ** j
    return out


def _nilpotent_rep_count(n, d, q):
    """The representations of dimension d over F_q, maps[v]: V_v -> V_{v-1},
    whose block matrix N on F_q^|d| has N^|d| = 0, counted one by one."""
    total = sum(d)
    start = [sum(d[:v]) for v in range(n)]
    slots = [(start[(v - 1) % n] + r, start[v] + c)
             for v in range(n) for r in range(d[(v - 1) % n]) for c in range(d[v])]
    count = 0
    for values in itertools.product(range(q), repeat=len(slots)):
        mat = [[0] * total for _ in range(total)]
        for (r, c), x in zip(slots, values):
            mat[r][c] = x
        cols = list(zip(*mat))
        power = mat
        for _ in range(total - 1):
            if not any(map(any, power)):
                break
            power = [[sum(a * b for a, b in zip(row, col)) % q for col in cols]
                     for row in power]
        count += not any(map(any, power))
    return count


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integrate_iso_sum_matches_the_nilpotent_orbit_count(n):
    # orbit-stabiliser: sum over M of dim d of 1/|Aut M|(q) is the number
    # of nilpotent representations of dim d over F_q over prod_v
    # |GL_{d_v}(F_q)|; the right side is counted matrix by matrix, with no
    # class, no walk and no Hom table
    q = CyclicQuiver(n)
    trunc = 4
    element = integrate_iso_sum(q, trunc)
    checked = 0
    for d in itertools.product(range(trunc + 1), repeat=n):
        if sum(d) > trunc:
            continue
        c = element.coefficient(d).shifted(-q.euler_form(d, d))
        for p in (2, 3):
            if p ** sum(d[v] * d[v - 1] for v in range(n)) > 20_000:
                continue
            gl = 1
            for k in d:
                gl *= _gl_order(k, p)
            want = Fraction(_nilpotent_rep_count(n, d, p), gl)
            assert c.num.eval_even_at_q(p) / c.den.eval_even_at_q(p) == want, (d, p)
            checked += 1
    # every d of total <= 4 at both q: the cap binds only at larger totals
    assert checked == {2: 30, 3: 70, 4: 140}[n]


def _random_cyclotomic_element(rng, n, trunc):
    terms = {}
    for d in [(0,) * n] + [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(4)]:
        if sum(d) <= trunc:
            exps = tuple((i, rng.randint(1, 2)) for i in (1, 2, 3, 4, 6) if rng.random() < 0.4)
            num = LaurentPoly(rng.randint(-2, 2), [rng.randint(-2, 2) for _ in range(3)])
            terms[d] = exact._cyclo_sum(((exps, num.t_low, num._ints),))
    return TorusElement(n, trunc, terms)


def test_convolve_matches_reference_on_random_cyclotomic_elements():
    # small numerators over small cyclotomic denominators, so that sums
    # at one key often cancel a common factor
    rng = random.Random(5)
    for _ in range(150):
        n = rng.choice((2, 3))
        a = _random_cyclotomic_element(rng, n, 3)
        b = _random_cyclotomic_element(rng, n, 3)
        assert convolve(a, b) == _convolve_reference(a, b)


def test_convolve_falls_back_on_non_cyclotomic_denominators(monkeypatch):
    odd = RationalFunction(LaurentPoly(0, (1, 2)), LaurentPoly(0, (3, -1)))  # (1+2t)/(3-t)
    a = TorusElement(3, 4, {(0, 0, 0): RF_ONE, (1, 0, 0): odd, (0, 1, 1): odd * odd})
    b = dilog(3, 4, (0, 1, 0)) * dilog(3, 4, (1, 1, 0))
    calls = []
    monkeypatch.setattr(torus, "_convolve_reference",
                        lambda *args: calls.append(1) or _convolve_reference(*args))
    for x, y in ((a, b), (b, a), (a, a)):
        assert convolve(x, y) == _convolve_reference(x, y)
    assert len(calls) == 3
    assert convolve(b, b) == _convolve_reference(b, b) and len(calls) == 3


def test_coefficients_without_exponents_take_the_reference_path(monkeypatch):
    # a value over Phi_3 from the constructor carries no exponents, so a
    # product with it goes pair by pair, to the values of the kernel path
    over_phi3 = exact._cyclo_sum(((((3, 1),), 1, (2, -1)),))
    rebuilt = RationalFunction(LaurentPoly(1, (2, -1)), LaurentPoly(0, (1, 1, 1)))
    assert over_phi3._exps == ((3, 1),) and rebuilt._exps is None and rebuilt == over_phi3
    b = dilog(3, 4, (0, 1, 0)) * dilog(3, 4, (1, 1, 0))
    kernel, foreign = dict(b.terms), dict(b.terms)
    kernel[(1, 0, 0)], foreign[(1, 0, 0)] = over_phi3, rebuilt
    kernel, foreign = TorusElement(3, 4, kernel), TorusElement(3, 4, foreign)
    calls = []
    monkeypatch.setattr(torus, "_convolve_reference",
                        lambda *args: calls.append(1) or _convolve_reference(*args))
    want = [convolve(kernel, b), convolve(b, kernel), convolve(kernel, kernel)]
    assert calls == []
    got = [convolve(foreign, b), convolve(b, foreign), convolve(foreign, foreign)]
    assert len(calls) == 3 and got == want
    # rational scalars hold their denominators, not exponents: products
    # with 1/2 and (1 + t) / (3 (t^2 - 1)) go pair by pair too, to the
    # values of the torus at a point
    half = RationalFunction.constant(Fraction(1, 2))
    third = RationalFunction(LaurentPoly(0, (1, 1)), LaurentPoly(0, (-3, 0, 3)))
    assert half._exps is None and third._exps is None
    scalar = TorusElement(3, 4, {(0, 0, 0): half, (1, 0, 0): third, (0, 1, 1): half * third})
    for x, y in ((scalar, b), (b, scalar), (scalar, scalar), (scalar, kernel)):
        calls.clear()
        got = convolve(x, y)
        assert len(calls) == 1 and got == _convolve_reference(x, y)
        for t0 in (Fraction(2), Fraction(3)):
            want_at = torus_at_point.product_at(t0, torus_at_point.element_at(t0, x),
                                                torus_at_point.element_at(t0, y), 4)
            assert torus_at_point.same_at_point(torus_at_point.element_at(t0, got), want_at)


# the commands of each benchmark workload that multiply in the torus: the
# pentagon and its reverse-residual probe (whose inverses start from
# c0.inv() = 1), one invariance and one hn-identity command at seed 0
BENCHMARK_TORUS_COMMANDS = [
    ["verify", "pentagon", "--n", "4", "--trunc", "6"],
    ["verify", "pentagon", "--n", "3", "--sabotage", "reverse-residual"],
    ["verify", "invariance", "--n", "4", "--trunc", "8", "--trials", "2", "--seed", "0"],
    ["verify", "hn-identity", "--n", "3", "--trunc", "8", "--trials", "1", "--seed", "0"],
]


@pytest.mark.parametrize("argv", BENCHMARK_TORUS_COMMANDS,
                         ids=["pentagon", "pentagon-reverse-residual", "invariance",
                              "hn-identity"])
def test_benchmark_commands_never_take_the_reference_path(monkeypatch, capsys, argv):
    calls = []
    monkeypatch.setattr(torus, "_convolve_reference",
                        lambda *args: calls.append(1) or _convolve_reference(*args))
    code = cli.main(argv)
    capsys.readouterr()
    assert code == (1 if "--sabotage" in argv else 0)
    assert calls == []


# ----------------------------------------------------------------------
# The whole torus at a point
# ----------------------------------------------------------------------

def _agrees_at_points(got, want_at):
    # every coefficient carries its Phi-exponents, which the torus reads
    # and the evaluation uses; the values agree key by key at t0 = 2 and 3
    assert all(c._exps is not None for c in got.terms.values())
    for t0 in (Fraction(2), Fraction(3)):
        assert torus_at_point.same_at_point(torus_at_point.element_at(t0, got), want_at(t0))


@pytest.mark.parametrize("seed", [0, 2, 4, 6])
def test_ez_agrees_with_the_torus_at_a_point(seed):
    # the torus-products inputs: the stables' dilogarithms at (n, D) = (4, 8)
    z = random_discrete(4, seed, 8)
    dims = torus.stable_dims(z)
    _agrees_at_points(ez(z, 8), lambda t0: torus_at_point.ordered_product_at(t0, dims, 4, 8))


@pytest.mark.parametrize("seed", [0, 1])
def test_inverse_and_translate_agree_with_the_torus_at_a_point(seed):
    # ez is invariant under rotation (the cyclic identity), a product of
    # the first stables' dilogarithms is not; the last element has the
    # constant term t^2 in place of 1
    n, trunc = 3, 6
    dims = torus.stable_dims(random_discrete(n, seed, 8))
    zero = (0,) * n

    def product_at(some):
        return lambda t0: torus_at_point.ordered_product_at(t0, some, n, trunc)

    def constant_t2_at(t0):
        out = product_at(dims[:3])(t0)
        out[zero] = t0 ** 2
        return out

    prefix = ordered_product([dilog(n, trunc, d) for d in dims[:3]], n, trunc)
    elements = [(ordered_product([dilog(n, trunc, d) for d in dims], n, trunc),
                 product_at(dims)),
                (prefix, product_at(dims[:3])),
                (prefix + mono(n, trunc, zero, rf_t(2)) - TorusElement.one(n, trunc),
                 constant_t2_at)]
    for x, x_at in elements:
        _agrees_at_points(x, x_at)
        _agrees_at_points(torus_inverse(x), lambda t0: torus_at_point.inverse_at(
            t0, x_at(t0), n, trunc))
        for k in range(1, n):
            _agrees_at_points(apply_translate(x, k), lambda t0: {
                d[k:] + d[:k]: v for d, v in x_at(t0).items()})


@pytest.mark.parametrize("n", [3, 4])
def test_pentagon_residuals_agree_with_the_torus_at_a_point(n):
    # the pentagon campaign's charges at (n, D) = (n, 6): each full product
    # times the inverse of the canceled (shared) suffix, and the two
    # factorizations left and right, against the point torus, which
    # inverts the canceled product by its own geometric series; the first
    # discrete pair of charges is the one the campaign uses at n = 3 and 4
    trunc = 6
    for attempt in itertools.count():
        try:
            dims1, dims2 = (torus.stable_dims(z) for z in _pentagon_candidates(n, attempt))
            break
        except NotDiscreteError:
            pass
    k = 0
    while dims1[-1 - k] == dims2[-1 - k]:
        k += 1
    canceled = dims1[-k:]
    assert k and len(dims1) > k and len(dims2) > k

    def product(dims):
        return ordered_product([dilog(n, trunc, d) for d in dims], n, trunc)

    def residual_at(dims):
        def at(t0):
            full = torus_at_point.ordered_product_at(t0, dims, n, trunc)
            shared_inv = torus_at_point.inverse_at(
                t0, torus_at_point.ordered_product_at(t0, canceled, n, trunc), n, trunc)
            return torus_at_point.product_at(t0, full, shared_inv, trunc)
        return at

    shared_inv = torus_inverse(product(canceled))
    for dims in (dims1, dims2):
        _agrees_at_points(product(dims) * shared_inv, residual_at(dims))
        _agrees_at_points(product(dims[:-k]), residual_at(dims))


@pytest.mark.parametrize("t0", [Fraction(2), Fraction(3)])
def test_campaign_identities_hold_at_a_point(t0):
    # `verify invariance --seed s` at (n, D) = (4, 8) compares the products
    # of the stable orders of seeds s and s + 1, and `verify cyclic` each
    # product with its rotations: both identities hold in the point torus
    # for s = 0..15, with no code from the polynomial stack
    n, trunc = 4, 8
    points = [torus_at_point.ordered_product_at(
        t0, torus.stable_dims(random_discrete(n, s, trunc)), n, trunc) for s in range(17)]
    for s, x in enumerate(points):
        for k in range(1, n):
            rotated = {d[k:] + d[:k]: v for d, v in x.items()}
            assert torus_at_point.same_at_point(x, rotated), (s, k)
    for s in range(16):
        assert torus_at_point.same_at_point(points[s], points[s + 1]), s


# ----------------------------------------------------------------------
# Unit coefficients, one kernel call per output key, and the twist row
# ----------------------------------------------------------------------

def _with_unit(x, key):
    # equal to RF_ONE but a distinct object, as dilogarithm constants are
    terms = dict(x.terms)
    terms[key] = dilog_coefficient(0)
    return TorusElement(x.n, x.truncation, terms)


def _nonzero_key(rng, n):
    d = [rng.randint(0, 1) for _ in range(n)]
    d[rng.randrange(n)] = 1
    return tuple(d)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_convolve_products_with_unit_coefficients_match_the_reference(n):
    q = CyclicQuiver(n)
    trunc = 4
    assert dilog_coefficient(0) == RF_ONE and dilog_coefficient(0) is not RF_ONE
    # the only pair at e1 + e2 is 1 * c, twisted by lambda(e1, e2) = 1 for n > 2
    c = dilog_coefficient(2)
    left = _with_unit(TorusElement.zero(n, trunc), q.e(1))
    right = mono(n, trunc, q.e(2), c)
    f = tuple(x + y for x, y in zip(q.e(1), q.e(2)))
    assert convolve(left, right).terms == {f: c.shifted(q.lambda_form(q.e(1), q.e(2)))}
    assert convolve(right, left).terms == {f: c.shifted(q.lambda_form(q.e(2), q.e(1)))}
    rng = random.Random(40 + n)
    for _ in range(30):
        a = _random_cyclotomic_element(rng, n, trunc)
        b = _random_cyclotomic_element(rng, n, trunc)
        ka, kb = _nonzero_key(rng, n), _nonzero_key(rng, n)
        for x, y in ((_with_unit(a, ka), b), (a, _with_unit(b, kb)),
                     (_with_unit(a, ka), _with_unit(b, kb))):
            assert convolve(x, y) == _convolve_reference(x, y)


def test_convolve_reduces_every_output_key_in_the_kernel(monkeypatch):
    # every key that some pair reaches is one kernel call, those reached
    # only by a pair with a coefficient 1 on one side included: each step
    # of ez at (4, 8), seed 0, whose factors all have the constant term 1,
    # and products with the unit constant term on either side
    calls = []
    kernel = torus._cyclo_sum
    monkeypatch.setattr(torus, "_cyclo_sum", lambda terms: calls.append(1) or kernel(terms))

    def check(a, b):
        keys = {tuple(x + y for x, y in zip(d, e)) for d in a.terms for e in b.terms
                if sum(d) + sum(e) <= a.truncation}
        calls.clear()
        out = convolve(a, b)
        assert len(calls) == len(keys) and set(out.terms) <= keys
        return out

    z = random_discrete(4, 0, 8)
    acc = TorusElement.one(4, 8)
    for f in ez_factors(z, 8)[1]:
        acc = check(acc, f)
    assert acc == ez(z, 8)
    rng = random.Random(7)
    for n in (2, 3, 4):
        a, b = (_with_unit(_random_cyclotomic_element(rng, n, 4), (0,) * n) for _ in range(2))
        for x, y in ((a, b), (b, a), (TorusElement.one(n, 4), a), (a, TorusElement.one(n, 4))):
            check(x, y)


@pytest.mark.parametrize("n,top", [(2, 3), (3, 3), (4, 3), (5, 2)])
def test_lambda_row_is_the_twist_against_a_fixed_right_key(n, top):
    q = CyclicQuiver(n)
    keys = list(itertools.product(range(top), repeat=n))
    assert q.lambda_row(q.delta) == (0,) * n
    for e in keys:
        r = q.lambda_row(e)
        for d in keys:
            lam = q.lambda_form(d, e)
            assert lam == sum(x * y for x, y in zip(d, r))
            assert lam == q.euler_form(d, e) - q.euler_form(e, d)
            assert lam == -q.lambda_form(e, d)
        assert q.lambda_form(e, q.delta) == 0


# ----------------------------------------------------------------------
# Results built without re-validation
# ----------------------------------------------------------------------

def _checked(x):
    return TorusElement(x.n, x.truncation, dict(x.terms))


@pytest.mark.parametrize("n,trunc", [(3, 6), (4, 6)])
def test_trusted_results_equal_checked_construction(n, trunc):
    q = CyclicQuiver(n)
    results = []
    for seed in range(3):
        z = random_discrete(n, 200 + seed, 8)
        acc = TorusElement.one(n, trunc)
        for f in [dilog(n, trunc, d) for d in stable_dims(z, include_delta=True)]:
            acc = convolve(acc, f)
            results += [acc, convolve(f, acc), acc + f, -acc, acc - acc]
        results.append(ez_delta(z, trunc))
    results += [integrate_iso_sum(q, trunc), integrate(q, ModuleIso.of(q.R(1, 2)), trunc)]
    # the bucket at e_1 cancels: 1 * (-y^e1) + y^e1 * 1 = 0
    one_plus = TorusElement(n, trunc, {(0,) * n: RF_ONE, q.e(1): RF_ONE})
    one_minus = TorusElement(n, trunc, {(0,) * n: RF_ONE, q.e(1): -RF_ONE})
    cancelled = convolve(one_plus, one_minus)
    assert q.e(1) not in cancelled.terms and (acc - acc).terms == {}
    results.append(cancelled)
    for r in results:
        assert r.terms == _checked(r).terms
        assert all(not c.is_zero for c in r.terms.values())


def test_kernel_memo_gives_the_cold_results_warm():
    # ez, an iso-class sum and a pentagon-side product computed with the
    # kernel's memo empty, then again from it: no new reduction, the same
    # elements, and each equal to its pair-by-pair or per-class oracle
    z = random_discrete(4, 3, 8)
    pentagon = _pentagon_candidates(3, 0)[0]
    factors = ez_factors(pentagon, 6)[1]

    def run():
        return (ez(z, 6), integrate_iso_sum(Q3, 5), ordered_product(factors, 3, 6))

    exact._cyclo_sum.cache_clear()
    cold = run()
    misses = exact._cyclo_sum.cache_info().misses
    warm = run()
    assert exact._cyclo_sum.cache_info().misses == misses
    assert warm == cold
    assert warm[0] == _reference_product(ez_factors(z, 6)[1], 4, 6)
    assert warm[1] == _per_class_sum(Q3, 5, Q3.enumerate_iso_classes(5))
    assert warm[2] == _reference_product(factors, 3, 6)
