"""Tests for stability functions: phases, stable census, HN filtrations."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hallq.exact import GaussianRational, PhaseDomainError, phase_cmp
from hallq.quiver import CyclicQuiver, Indecomposable, ModuleIso
from hallq.stability import (
    NotDiscreteError,
    StabilityFunction,
    ZeroChargeError,
    charge_of,
    charge_of_indec,
    check_discrete,
    delta_stable_via_ci,
    hn_filtration,
    is_semistable,
    is_stable,
    perturb_to_ambient_discrete,
    random_discrete,
    random_restricted_discrete,
    stable_indecomposables_up_to,
    stable_objects,
    translate_function,
)

Q3 = CyclicQuiver(3)


def g(re, im):
    return GaussianRational(Fraction(re), Fraction(im))


def z_of(*pairs):
    return StabilityFunction(len(pairs), tuple(g(re, im) for re, im in pairs))


# charges 2+i, -2+i, 1+2i: the reference discrete function for n=3
Z_REF = z_of((2, 1), (-2, 1), (1, 2))


# ----------------------------------------------------------------------
# Charges
# ----------------------------------------------------------------------

def test_charge_of_anchors():
    assert charge_of(Z_REF, (1, 1, 1)) == g(1, 4)
    assert charge_of(Z_REF, (0, 1, 0)) == g(-2, 1)
    assert charge_of(Z_REF, (2, 0, 0)) == g(4, 2)
    assert phase_cmp(charge_of(Z_REF, (2, 0, 0)), charge_of(Z_REF, (1, 0, 0))) == 0


def test_charge_of_zero_vector_rejected():
    with pytest.raises(ZeroChargeError):
        charge_of(Z_REF, (0, 0, 0))


def test_charge_of_indec_and_module():
    assert charge_of_indec(Z_REF, Q3.R(3, 3)) == g(1, 4)
    m = ModuleIso.of(Q3.simple(1), Q3.simple(2))
    assert charge_of(Z_REF, Q3.dim_of(m)) == g(0, 2)


def test_constructor_rejects_bad_charges():
    with pytest.raises((PhaseDomainError, ZeroChargeError, ValueError)):
        z_of((0, 0), (1, 1))
    with pytest.raises((PhaseDomainError, ValueError)):
        z_of((1, -1), (1, 1))


def test_stability_function_json_round_trip():
    data = Z_REF.to_json()
    assert data == {"n": 3, "charges": [["2", "1"], ["-2", "1"], ["1", "2"]]}


# ----------------------------------------------------------------------
# Stability of single objects
# ----------------------------------------------------------------------

def test_is_stable_anchors():
    assert is_stable(Z_REF, Q3.R(3, 3))
    assert not is_stable(Z_REF, Q3.R(2, 2))
    for i in range(1, 4):
        assert is_stable(Z_REF, Q3.simple(i))


def test_unstable_but_semistable_cases():
    # R(2,2) is destabilized by S_2 yet every simple is semistable
    assert not is_stable(Z_REF, Q3.R(2, 2))
    assert is_semistable(Z_REF, Q3.simple(2))


def test_decomposable_never_stable():
    m = ModuleIso.of(Q3.simple(1), Q3.simple(1))
    assert not is_stable(Z_REF, m)
    assert is_semistable(Z_REF, m)


def test_semistable_sum_requires_equal_phases():
    # S_1 and S_2 have different phases, so the sum is not semistable
    m = ModuleIso.of(Q3.simple(1), Q3.simple(2))
    assert not is_semistable(Z_REF, m)


# ----------------------------------------------------------------------
# Stable census
# ----------------------------------------------------------------------

def test_stable_objects_reference_function():
    report = stable_objects(Z_REF)
    assert list(report.stables) == [
        Q3.simple(2),
        Q3.R(1, 2),
        Q3.R(3, 3),
        Q3.simple(3),
        Q3.simple(1),
    ]
    assert report.delta_stable == Q3.R(3, 3)
    assert report.gamma == g(1, 4)


def test_stable_objects_strictly_decreasing_phase():
    report = stable_objects(Z_REF)
    charges = [charge_of_indec(Z_REF, r) for r in report.stables]
    for a, b in zip(charges, charges[1:]):
        assert phase_cmp(b, a) < 0


def test_stable_objects_n2():
    z = z_of((0, 1), (1, 2))
    report = stable_objects(z)
    dims = [CyclicQuiver(2).dim_of_indec(r) for r in report.stables]
    assert dims.count((1, 1)) == 1
    assert report.delta_stable == CyclicQuiver(2).R(2, 2)


def test_stable_report_json():
    data = stable_objects(Z_REF).to_json(Z_REF)
    assert data["delta_stable"] == [3, 3]
    assert data["stables"][0] == {"socle": 2, "length": 1, "charge": ["-2", "1"]}


def test_check_discrete():
    ok, witness = check_discrete(Z_REF)
    assert ok and witness is None
    bad = z_of((0, 1), (0, 1))
    ok, witness = check_discrete(bad)
    assert not ok
    assert set(witness) == {CyclicQuiver(2).simple(1), CyclicQuiver(2).simple(2)}


def test_not_discrete_error_carries_witness():
    bad = z_of((0, 1), (0, 1))
    with pytest.raises(NotDiscreteError) as err:
        stable_indecomposables_up_to(bad, 2)
    assert len(err.value.witness) == 2


def test_stable_indecomposables_respects_length_cap():
    short = stable_indecomposables_up_to(Z_REF, 1)
    assert {r.length for r in short} == {1}
    assert len(short) == 3


# ----------------------------------------------------------------------
# The vertex-run algorithm for the delta-stable object
# ----------------------------------------------------------------------

def test_delta_stable_via_runs_reference():
    assert delta_stable_via_ci(Z_REF) == Q3.R(3, 3)


def test_delta_stable_via_runs_n2():
    z = z_of((0, 1), (1, 2))
    assert delta_stable_via_ci(z) == CyclicQuiver(2).R(2, 2)


def test_delta_stable_via_runs_single_high_vertex():
    # only S_2 has phase above gamma, so the run must start there
    z = z_of((4, 1), (-4, 1), (4, 2))
    gamma = charge_of(z, (1, 1, 1))
    above = [i for i in range(3) if phase_cmp(z.charges[i], gamma) >= 0]
    assert above == [1]
    r = delta_stable_via_ci(z)
    assert r == stable_objects(z).delta_stable


@given(st.integers(2, 5), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_delta_stable_methods_agree(n, seed):
    z = random_discrete(n, seed)
    assert delta_stable_via_ci(z) == stable_objects(z).delta_stable


# ----------------------------------------------------------------------
# HN filtrations
# ----------------------------------------------------------------------

def test_hn_filtration_chain_example():
    strata = hn_filtration(Z_REF, ModuleIso.of(Q3.R(2, 2)))
    assert [m for m, _ in strata] == [
        ModuleIso.of(Q3.simple(2)),
        ModuleIso.of(Q3.simple(3)),
    ]


def test_hn_filtration_of_semistable_is_trivial():
    m = ModuleIso.of(Q3.R(3, 3))
    strata = hn_filtration(Z_REF, m)
    assert [x for x, _ in strata] == [m]


def test_hn_filtration_of_stable_uniserial():
    m = ModuleIso.of(Q3.R(1, 2))
    assert [x for x, _ in hn_filtration(Z_REF, m)] == [m]


def test_hn_filtration_groups_equal_phases():
    # two copies of the same simple land in one stratum
    m = ModuleIso.of(Q3.simple(1), Q3.simple(1))
    strata = hn_filtration(Z_REF, m)
    assert [x for x, _ in strata] == [m]


def test_hn_filtration_properties_random():
    for seed in range(12):
        z = random_discrete(3, seed)
        for m in [
            ModuleIso.of(Q3.R(1, 4)),
            ModuleIso.of(Q3.R(2, 3), Q3.simple(1)),
            ModuleIso.of(Q3.R(1, 2), Q3.R(2, 2), Q3.simple(3)),
        ]:
            strata = hn_filtration(z, m)
            total = [0, 0, 0]
            for stratum, mu in strata:
                assert stratum
                assert is_semistable(z, stratum)
                assert phase_cmp(mu, charge_of(z, Q3.dim_of(stratum))) == 0
                for i, x in enumerate(Q3.dim_of(stratum)):
                    total[i] += x
            assert tuple(total) == Q3.dim_of(m)
            for (_, mu1), (_, mu2) in zip(strata, strata[1:]):
                assert phase_cmp(mu2, mu1) < 0


def test_hn_filtration_zero_module():
    assert hn_filtration(Z_REF, ModuleIso.zero()) == []


# ----------------------------------------------------------------------
# Random generation
# ----------------------------------------------------------------------

def test_random_discrete_deterministic():
    a = random_discrete(3, 1)
    b = random_discrete(3, 1)
    assert a == b
    ok, _ = check_discrete(a)
    assert ok


def test_random_discrete_respects_bound():
    z = random_discrete(4, 9, bound=5)
    for c in z.charges:
        assert -5 <= c.re <= 5
        assert 1 <= c.im <= 5


def test_random_discrete_unique_delta_stable():
    q4 = CyclicQuiver(4)
    for seed in range(25):
        z = random_discrete(4, seed)
        report = stable_objects(z)
        dims = [q4.dim_of_indec(r) for r in report.stables]
        assert dims.count((1, 1, 1, 1)) == 1


def test_long_objects_never_stable():
    for n in (2, 3):
        q = CyclicQuiver(n)
        for seed in range(10):
            z = random_discrete(n, seed)
            for socle in range(1, n + 1):
                for length in range(n + 1, 3 * n + 1):
                    assert not is_stable(z, q.R(socle, length))


def test_restricted_discrete_only_constrains_short_lengths():
    z = random_restricted_discrete(3, 5, max_length=2)
    stable_indecomposables_up_to(z, 2)


# ----------------------------------------------------------------------
# Translation covariance
# ----------------------------------------------------------------------

def test_translate_function_charges():
    zt = translate_function(Z_REF)
    assert zt.charges == (g(1, 2), g(2, 1), g(-2, 1))


def test_stability_commutes_with_translation():
    for seed in range(8):
        z = random_discrete(3, seed)
        zt = translate_function(z)
        for r in Q3.enumerate_indecomposables(3):
            assert is_stable(z, r) == is_stable(zt, Q3.R(r.socle + 1, r.length))


def test_stable_order_commutes_with_translation():
    for seed in range(5):
        z = random_discrete(3, seed)
        zt = translate_function(z)
        ok, _ = check_discrete(zt)
        if not ok:
            continue
        left = [Q3.R(r.socle + 1, r.length) for r in stable_objects(z).stables]
        assert left == list(stable_objects(zt).stables)


# ----------------------------------------------------------------------
# Perturbation to an ambient-discrete function
# ----------------------------------------------------------------------

def test_perturb_identity_when_already_discrete():
    assert perturb_to_ambient_discrete(Z_REF, 2) == Z_REF


def test_perturb_fixes_engineered_collision():
    # Z(delta) = 6+3i is parallel to Z(S_1) = 2+i, yet the length <= 2
    # stables all have distinct phases
    z = z_of((2, 1), (-2, 1), (6, 1))
    assert phase_cmp(charge_of(z, (1, 1, 1)), z.charges[0]) == 0
    ok, _ = check_discrete(z)
    assert not ok
    before = stable_indecomposables_up_to(z, 2)
    fixed = perturb_to_ambient_discrete(z, 2)
    ok, _ = check_discrete(fixed)
    assert ok
    after = stable_indecomposables_up_to(fixed, 2)
    assert before == after


def test_perturb_random_restricted_functions():
    for seed in range(6):
        z = random_restricted_discrete(3, seed, max_length=2)
        fixed = perturb_to_ambient_discrete(z, 2)
        ok, _ = check_discrete(fixed)
        assert ok


# ----------------------------------------------------------------------
# Differential tests against the definition-level census
# ----------------------------------------------------------------------
# The oracle uses only the public charge_of and phase_cmp on Gaussian
# rationals: R(i, l) is stable when every proper subobject R(i, k) has
# strictly smaller phase, semistable when none has larger phase.

def _charge(z, r):
    return charge_of(z, z.quiver.dim_of_indec(r))


def _chain_below(z, r, strict):
    whole = _charge(z, r)
    subs = [_charge(z, Indecomposable(r.socle, k)) for k in range(1, r.length)]
    if strict:
        return all(phase_cmp(c, whole) < 0 for c in subs)
    return not any(phase_cmp(whole, c) < 0 for c in subs)


def census_oracle(z, max_length):
    """Stables by decreasing phase, ties in (length, socle) order; tied
    neighbours raise NotDiscreteError with the pair."""
    found = [r for r in z.quiver.enumerate_indecomposables(max_length)
             if _chain_below(z, r, strict=True)]
    found.sort(key=functools.cmp_to_key(lambda a, b: phase_cmp(_charge(z, b), _charge(z, a))))
    for a, b in zip(found, found[1:]):
        if phase_cmp(_charge(z, b), _charge(z, a)) >= 0:
            raise NotDiscreteError((a, b))
    return found


def hn_oracle(z, m):
    """Greedy chain filtration: the first stratum of R(i, l) is its
    subobject of largest phase, the longest on ties; strata of one phase
    merge, each stratum carrying the charge of its first part."""
    strata = []
    for r in m:
        socle, length = r.socle, r.length
        while length:
            subs = [Indecomposable(socle, k) for k in range(1, length + 1)]
            best = subs[0]
            for s in subs[1:]:
                if phase_cmp(_charge(z, s), _charge(z, best)) >= 0:
                    best = s
            same = [p for p in strata if phase_cmp(_charge(z, p[0]), _charge(z, best)) == 0]
            if same:
                same[0].append(best)
            else:
                strata.append([best])
            socle, length = z.quiver.vertex(socle + best.length), length - best.length
    strata.sort(key=functools.cmp_to_key(lambda a, b: phase_cmp(_charge(z, b[0]), _charge(z, a[0]))))
    return [(ModuleIso.of(*parts), _charge(z, parts[0])) for parts in strata]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except NotDiscreteError as err:
        return "tie", err.witness


@st.composite
def small_functions(draw, max_n=8):
    """Charges with small integer parts, and sometimes small denominators,
    so that tied phases come up often."""
    n = draw(st.integers(2, max_n))
    charges = []
    for _ in range(n):
        im = draw(st.integers(0, 3))
        re = draw(st.integers(1 if im == 0 else -3, 3))
        den = draw(st.sampled_from([1, 1, 2, 3]))
        charges.append(g(Fraction(re, den), Fraction(im, den)))
    return StabilityFunction(n, tuple(charges))


# discrete functions with denominators up to 16, so that the common
# scale of the integer charges is large
FUNCTIONS = st.one_of(small_functions(),
                      st.builds(random_discrete, st.integers(2, 8), st.integers(0, 10 ** 6)))


@given(FUNCTIONS, st.data())
@settings(max_examples=300, deadline=None)
def test_census_matches_definition(z, data):
    max_length = data.draw(st.integers(1, 2 * z.n))
    assert (_outcome(stable_indecomposables_up_to, z, max_length)
            == _outcome(census_oracle, z, max_length))


@given(FUNCTIONS, st.data())
@settings(max_examples=300, deadline=None)
def test_stability_tests_match_definition(z, data):
    r = Indecomposable(data.draw(st.integers(1, z.n)), data.draw(st.integers(1, 2 * z.n)))
    assert is_stable(z, r) == _chain_below(z, r, strict=True)
    assert is_semistable(z, r) == _chain_below(z, r, strict=False)
    parts = data.draw(st.lists(st.tuples(st.integers(1, z.n), st.integers(1, 2 * z.n)),
                               min_size=1, max_size=3))
    m = ModuleIso.of(*(Indecomposable(i, l) for i, l in parts))
    assert is_stable(z, m) == (len(m) == 1 and _chain_below(z, m[0], strict=True))
    first = _charge(z, m[0])
    assert is_semistable(z, m) == all(
        _chain_below(z, x, strict=False) and phase_cmp(_charge(z, x), first) == 0 for x in m)
    assert hn_filtration(z, m) == hn_oracle(z, m)


@given(FUNCTIONS)
@settings(max_examples=200, deadline=None)
def test_delta_stable_via_runs_matches_definition(z):
    kind, stables = _outcome(census_oracle, z, z.n)
    if kind == "ok":
        assert [delta_stable_via_ci(z)] == [r for r in stables if r.length == z.n]


def test_census_ties_raise_the_oracle_pair():
    # charges from a set with many parallel sums, so that most draws tie
    rng = random.Random(7)
    pool = [(1, 1), (2, 2), (-1, 1), (1, 0), (0, 1), (3, 1), (-2, 2)]
    outcomes = set()
    for _ in range(300):
        n = rng.randint(2, 8)
        z = z_of(*(rng.choice(pool) for _ in range(n)))
        max_length = rng.randint(1, 2 * n)
        got = _outcome(stable_indecomposables_up_to, z, max_length)
        assert got == _outcome(census_oracle, z, max_length)
        outcomes.add(got[0])
    assert outcomes == {"ok", "tie"}
