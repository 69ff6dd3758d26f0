"""Tests for finite-field counting: realizations, Hom/Ext ranks, Hall numbers."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hallq.exact import LaurentPoly, RationalFunction, rf_eq
from hallq.hall import (
    Budget,
    BudgetError,
    CATALOG_BUDGET,
    DEFAULT_BUDGET,
    ENV_BUDGET,
    HallPolynomial,
    InterpolationError,
    budget_from_env,
    check_integration_homomorphism,
    hall_count,
    hall_polynomials,
    interpolate_hall,
    iso_class_of,
    next_prime,
    realize,
    submodule_census,
    _arrow_table,
    _census_count,
    _chain_census,
    _lagrange,
    _mat_mul,
    _newton,
    _pair_table,
    _point_table,
    _rank_mod,
    _rref_mod,
    _signature_table,
    _subspace_index,
    _subspaces,
)
from hallq import oracles
from hallq.oracles import count_automorphisms, hom_ext_oracle
from hallq.quiver import CyclicQuiver, ModuleIso
from hallq.torus import integrate
from hallq.verify import CampaignConfig, campaign_integration

from census_reference import _submodule_census_reference

Q2 = CyclicQuiver(2)
Q3 = CyclicQuiver(3)


def m_of(q, *pairs):
    return ModuleIso.of(*(q.R(s, l) for s, l in pairs))


def hom_dim(q, a, b):
    """dim Hom(a, b) of two uniserials, from the table `aut_exponents` runs."""
    return q._hom_table([(a.socle, a.length, 1)], [(b.socle, b.length, 1)])[0][0]


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------

def test_budget_widened():
    b = Budget().widened(6, 13)
    assert b.hall_total == 6 and b.hall_prime == 13
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


def test_realize_length_two():
    rep = realize(Q3, ModuleIso.of(Q3.R(1, 2)), 3)
    assert rep.dims == (1, 1, 0)
    # the only arrow action is V_2 -> V_1
    assert rep.maps[1] == ((1,),)


def test_realize_shapes_and_nilpotency():
    rep = realize(Q3, ModuleIso.of(Q3.R(1, 4)), 5)
    assert rep.dims == (2, 1, 1)
    for v in range(3):
        mat = rep.maps[v]
        assert len(mat) == rep.dims[v - 1]
        for row in mat:
            assert len(row) == rep.dims[v]
    # four arrow maps in a row, from any vertex, compose to zero
    for start, d in enumerate(rep.dims):
        comp = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        for v in range(start, start - 4, -1):
            comp = _mat_mul(rep.maps[v % 3], comp, d, 5)
        assert not any(map(any, comp))


def test_realize_rejects_composite_modulus():
    with pytest.raises(ValueError):
        realize(Q3, ModuleIso.of(Q3.simple(1)), 4)


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
            assert hom == hom_dim(q, a, b)


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
            if not m:
                continue
            assert count_automorphisms(Q3, m, p) == Q3.aut_poly(m).eval_even_at_q(p)


def test_count_automorphisms_budget_guards(monkeypatch):
    with pytest.raises(BudgetError):
        count_automorphisms(Q3, m_of(Q3, (1, 5)), 2)
    with pytest.raises(BudgetError):
        count_automorphisms(Q3, m_of(Q3, (1, 1)), 5)
    monkeypatch.setattr(oracles, "AUT_SPACE", 2)
    with pytest.raises(BudgetError):
        count_automorphisms(Q3, m_of(Q3, (1, 1), (1, 1)), 2)


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


def _meet_dim_by_stacking(dim, p, a, b):
    """dim A + dim B - rank(A + B), the oracle of the point-mask meets."""
    bases = _subspace_index(dim, p)[0]
    return len(bases[a]) + len(bases[b]) - _rank_mod(bases[a] + bases[b], dim, p)


def _check_mask_meets(dim, p, pairs):
    # the meet dimension read off the popcount of the AND of two point
    # masks, and inclusion as the AND giving back the first mask
    masks, _, _, dim_of = _point_table(dim, p)
    bases = _subspace_index(dim, p)[0]
    for a, b in pairs:
        meet = _meet_dim_by_stacking(dim, p, a, b)
        assert dim_of[(masks[a] & masks[b]).bit_count()] == meet, (a, b)
        assert (masks[a] & masks[b] == masks[a]) == (meet == len(bases[a])), (a, b)


@pytest.mark.parametrize("p,dim", [(p, dim) for p in (2, 3, 5, 7, 11, 13) for dim in range(3)]
                         + [(2, 3), (3, 3)])
def test_meet_dim_matches_stacked_rank(dim, p):
    # every ordered pair of subspaces of F_p^dim
    count = len(_subspace_index(dim, p)[0])
    _check_mask_meets(dim, p, itertools.product(range(count), repeat=2))


@pytest.mark.parametrize("dim,p", [(3, 11), (3, 13), (4, 5)])
def test_meet_dim_matches_stacked_rank_on_a_sample(dim, p):
    rng = random.Random(dim * 100 + p)
    count = len(_subspace_index(dim, p)[0])
    _check_mask_meets(dim, p, [(rng.randrange(count), rng.randrange(count))
                               for _ in range(3000)])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_point_masks_are_the_spans(p):
    # each mask has one bit per line of its subspace, and no two
    # subspaces share a mask
    for dim in range(4):
        masks, members, bit, dim_of = _point_table(dim, p)
        bases = _subspace_index(dim, p)[0]
        assert len(set(masks)) == len(bases)
        for basis, mask, pts in zip(bases, masks, members):
            span = {tuple(sum(c * row[j] for c, row in zip(cs, basis)) % p for j in range(dim))
                    for cs in itertools.product(range(p), repeat=len(basis))}
            lines = {x for x in span if next(filter(None, x), 0) == 1}
            assert len(lines) * (p - 1) + 1 == len(span)
            assert mask == sum(bit[x] for x in lines) == sum(pts)
            assert dim_of[mask.bit_count()] == len(basis)


def _rref_images(dim, dim_w, amap, p):
    """The number of A(U) for each subspace U of F_p^dim, by a row
    reduction of the image of its basis: the oracle of `_arrow_table`."""
    index = _subspace_index(dim_w, p)[1]
    return [index[_rref_mod([[sum(a * x for a, x in zip(arow, vec)) % p for arow in amap]
                             for vec in basis], dim_w, p)[0]]
            for basis in _subspace_index(dim, p)[0]]


def test_arrow_images_match_rref_images():
    # random maps between spaces of dimension 0..3, not only the 0/1
    # shifts of `realize`: the OR of the point images is the mask of the
    # row-reduced image
    rng = random.Random(34)
    for p in (2, 3, 5, 7, 11, 13):
        for dim, dim_w in itertools.product(range(4), repeat=2):
            amap = tuple(tuple(rng.randrange(p) for _ in range(dim)) for _ in range(dim_w))
            images, by_image, _ = _arrow_table(dim, dim_w, amap, p)
            masks = _point_table(dim_w, p)[0]
            assert images == [masks[a] for a in _rref_images(dim, dim_w, amap, p)], \
                (dim, dim_w, amap, p)
            assert sorted(u for us in by_image.values() for u in us) == list(range(len(images)))


def _gaussian_binomial(d, k, p):
    """[d choose k]_p, the number of k-dimensional subspaces of F_p^d."""
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subspaces_are_gaussian_binomial_many(p):
    # each basis spans p^k vectors, no two bases span the same subspace,
    # and there are [d choose k]_p of them
    for d in range(5):
        for k in range(d + 1):
            spans = set()
            for basis, pivots in _subspaces(d, k, p):
                span = frozenset(
                    tuple(sum(c * row[j] for c, row in zip(cs, basis)) % p for j in range(d))
                    for cs in itertools.product(range(p), repeat=k))
                assert len(span) == p ** k and len(pivots) == k
                spans.add(span)
            assert len(spans) == len(_subspaces(d, k, p)) == _gaussian_binomial(d, k, p)


def _semisimple(q, dims):
    return m_of(q, *[(v + 1, 1) for v in range(q.n) for _ in range(dims[v])])


@pytest.mark.parametrize("n,dims", [(2, (2, 1)), (2, (3, 0)), (2, (4, 0)),
                                    (3, (1, 1, 1)), (3, (2, 0, 2)), (4, (2, 1, 0, 1))])
def test_semisimple_census_counts_every_graded_subspace(n, dims):
    # with every arrow map zero each graded subspace is a submodule, so
    # the census counts sum to prod_v sum_k [d_v choose k]_p, with no
    # iso_class_of behind the count
    q = CyclicQuiver(n)
    big = _semisimple(q, dims)
    assert q.dim_of(big) == dims
    for p in (2, 3, 5):
        want = 1
        for d in dims:
            want *= sum(_gaussian_binomial(d, k, p) for k in range(d + 1))
        assert sum(c for _, _, c in submodule_census(n, big, p)) == want, p
        # the census counts by that same formula, so the chain walk
        # checks the total too
        assert sum(c for _, _, c in _chain_census(n, big, p)) == want, p


def _spans(dim, p):
    """Every subspace of F_p^dim as the frozenset of its vectors, grown
    from the zero space by adding one vector at a time to a span."""
    vectors = list(itertools.product(range(p), repeat=dim))
    zero = frozenset([(0,) * dim])
    found, todo = {zero}, [zero]
    while todo:
        span = todo.pop()
        for x in vectors:
            if x not in span:
                bigger = frozenset(tuple((a + c * b) % p for a, b in zip(s, x))
                                   for s in span for c in range(p))
                if bigger not in found:
                    found.add(bigger)
                    todo.append(bigger)
    return found


def _brute_force_submodule_count(rep):
    """Graded subspaces (U_v) of the realization with maps[v] U_v inside
    U_{v-1} for every v, counted one by one."""
    n, p, dims = rep.n, rep.p, rep.dims
    spans = [list(_spans(dims[v], p)) for v in range(n)]

    def image(v, x):
        return tuple(sum(a * b for a, b in zip(row, x)) % p for row in rep.maps[v])

    images = [[frozenset(image(v, x) for x in span) for span in spans[v]] for v in range(n)]
    return sum(all(images[v][pick[v]] <= spans[(v - 1) % n][pick[(v - 1) % n]]
                   for v in range(n))
               for pick in itertools.product(*(range(len(s)) for s in spans)))


@pytest.mark.parametrize("n", [2, 3])
def test_census_counts_every_subrepresentation(n):
    # for N with nonzero arrows the census counts sum to the number of
    # F_p-subrepresentations of its realization, found by brute force over
    # spans of vectors, with no _subspaces and no iso_class_of
    q = CyclicQuiver(n)
    checked = 0
    for big in q.enumerate_iso_classes(4):
        if not any(part.length >= 2 for part in big):
            continue
        for p in (2, 3):
            want = _brute_force_submodule_count(realize(q, big, p))
            assert sum(c for _, _, c in submodule_census(n, big, p)) == want, (big, p)
            checked += 1
    assert checked == {2: 46, 3: 102}[n]


def _aut_count(q, m, p):
    e, ks = q.aut_factors(m)
    return p ** e * math.prod(p ** k - 1 for k in ks)


@pytest.mark.parametrize("n", [2, 3])
def test_census_satisfies_riedtmanns_summed_identity(n):
    # Riedtmann's formula (J. Algebra 1994) summed over the middle terms N:
    # sum_N F^N_{L,M} |Aut L| |Aut M| / |Aut N| = |Ext^1(M, L)| / |Hom(M, L)|
    # over F_p, for every pair of classes with |L| + |M| <= 4.  The census
    # and this oracle share `realize`, the class lists and `aut_factors`
    # (checked against `count_automorphisms`); the Hom and Ext dimensions
    # come from the intertwiner system
    q = CyclicQuiver(n)
    classes = q.enumerate_iso_classes(4)
    pairs = [(l, m) for l in classes for m in classes
             if sum(r.length for r in l + m) <= 4]
    dims = {tuple(map(operator.add, q.dim_of(l), q.dim_of(m))) for l, m in pairs}
    ext_minus_hom = {}
    for l, m in pairs:
        hom, ext = hom_ext_oracle(q, m, l)
        ext_minus_hom[l, m] = ext - hom
    checked = 0
    for p in (2, 3):
        aut = {m: _aut_count(q, m, p) for m in classes}
        sums = {}
        for d in dims:
            for big in q.enumerate_with_dim(d):
                for l, m, c in submodule_census(n, big, p):
                    sums[l, m] = sums.get((l, m), 0) + Fraction(c * aut[l] * aut[m], aut[big])
        for l, m in pairs:
            assert sums.get((l, m)) == Fraction(p) ** ext_minus_hom[l, m], (l, m, p)
            checked += 1
    assert checked == {2: 328, 3: 894}[n]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_semisimple_census_matches_the_chain_walk(n):
    # the closed form against the chain walk for every semisimple N of
    # total <= 4, and against the brute force at the small primes
    q = CyclicQuiver(n)
    every = [d for d in itertools.product(range(5), repeat=n) if sum(d) <= 4]
    for dims in every:
        big = _semisimple(q, dims)
        for p in (2, 3, 5, 7):
            fast = submodule_census(n, big, p)
            assert fast == _chain_census(n, big, p), (dims, p)
            if p <= 3:
                assert fast == _submodule_census_reference(n, big, p), (dims, p)


@pytest.mark.parametrize("dims", [(3, 0, 0), (2, 2)])
def test_semisimple_census_matches_the_chain_walk_at_13(dims):
    q = CyclicQuiver(len(dims))
    big = _semisimple(q, dims)
    assert submodule_census(q.n, big, 13) == _chain_census(q.n, big, 13)


def _clear_census_tables():
    for table in (submodule_census, _arrow_table, _signature_table, _pair_table, _point_table):
        table.cache_clear()


def test_shared_census_tables_agree_cold_and_warm():
    # every census once with its tables built afresh, then again in
    # reverse order on the tables the others filled
    jobs = [(n, big, p) for n in (2, 3)
            for big in CyclicQuiver(n).enumerate_iso_classes(3) for p in (2, 3, 5)]
    cold = {}
    for job in jobs:
        _clear_census_tables()
        cold[job] = submodule_census(*job)
    warm = {job: submodule_census(*job) for job in reversed(jobs)}
    for job in jobs:
        assert cold[job] == warm[job] == _submodule_census_reference(*job), job


def test_census_memo_counts_every_hall_lookup(monkeypatch):
    # every node of every polynomial is one read of the one census memo,
    # so over a cold integration catalog the memo's hits and misses add
    # up to the node reads, and its misses are the distinct censuses
    # (n, N, p)
    calls = []

    def counted(n, sub, quo, big, p):
        calls.append((n, big, p))
        return _census_count(n, sub, quo, big, p)

    monkeypatch.setattr("hallq.hall._census_count", counted)
    _clear_census_tables()
    ok, payload = campaign_integration(CampaignConfig(n=3))
    info = submodule_census.cache_info()
    assert ok and payload["pairs_checked"] == 447
    assert info.hits + info.misses == len(calls)
    assert info.misses == len(set(calls))


def test_census_respects_arrow_invariance():
    # R(1,2) has a unique proper nonzero submodule, the socle
    rows = submodule_census(3, m_of(Q3, (1, 2)), 5)
    as_dict = {(l, m): c for l, m, c in rows}
    assert as_dict[(m_of(Q3, (1, 1)), m_of(Q3, (2, 1)))] == 1
    assert len(rows) == 3
    # the submodules of a uniserial R(i, l) are its chain R(i, k), each
    # once, with quotient R(i+k, l-k), also for l > n
    def uniserial(q, i, l):
        return m_of(q, (i, l)) if l else ModuleIso.zero()

    for n, p in itertools.product((2, 3), (2, 3)):
        q = CyclicQuiver(n)
        for r in q.enumerate_indecomposables(5):
            i, l = r.socle, r.length
            chain = {(uniserial(q, i, k), uniserial(q, i + k, l - k), 1) for k in range(l + 1)}
            rows = submodule_census(n, ModuleIso.of(r), p)
            assert len(rows) == l + 1 and set(rows) == chain, (r, p)


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


@pytest.mark.parametrize("parts,dims", [(((1, 3), (1, 1)), (3, 1)),
                                        (((1, 2), (2, 2)), (2, 2))], ids=["d31", "d22"])
@pytest.mark.parametrize("p", [11, 13])
def test_census_matches_reference_at_large_primes(parts, dims, p):
    # at n = 2, where the point masks are widest: 183 points in F_13^3
    big = m_of(Q2, *parts)
    assert Q2.dim_of(big) == dims
    assert submodule_census(2, big, p) == _submodule_census_reference(2, big, p)


def test_hall_count_anchors():
    s1, s2 = m_of(Q3, (1, 1)), m_of(Q3, (2, 1))
    r12 = m_of(Q3, (1, 2))
    assert hall_count(Q3, s1, s2, r12, 5) == 1
    assert hall_count(Q3, s2, s1, r12, 5) == 0
    assert hall_count(Q3, s2, s1, ModuleIso.of(Q3.simple(1), Q3.simple(2)), 5) == 1
    for p in (2, 3, 5):
        assert hall_count(Q3, s1, s1, m_of(Q3, (1, 1), (1, 1)), p) == p + 1


def test_hall_count_tells_quotients_of_one_sub_type_apart():
    # N = R(1,2) + S1: of the p + 1 lines in its socle, the socle of R(1,2)
    # leaves S1 + S2, and each of the other p leaves R(1,2)
    big = m_of(Q3, (1, 2), (1, 1))
    s1 = m_of(Q3, (1, 1))
    for p in (2, 3, 5):
        assert hall_count(Q3, s1, m_of(Q3, (1, 1), (2, 1)), big, p) == 1
        assert hall_count(Q3, s1, m_of(Q3, (1, 2)), big, p) == p


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
    monkeypatch.setattr("hallq.hall._census_count",
                        lambda n, sub, quo, big, p: counts[p])
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


def test_interpolated_nodes_equal_hall_count():
    # each node interpolate_hall reads (the holdout included) is hall_count
    # at that prime, and the classes N of each table are those of
    # enumerate_with_dim: every pair of the n = 3 catalog of
    # campaign_integration and the four Hall tables of the benchmark at n = 2
    primes = (2, 3, 5, 7, 11)
    classes = [(m, sum(r.length for r in m)) for m in Q3.enumerate_iso_classes(4)]
    jobs = [(Q3, l, m) for l, a in classes for m, b in classes if a + b <= 4]
    assert len(jobs) == 447
    tables = [([(1, 1), (2, 1)], [(1, 1), (2, 1)]), ([(1, 2)], [(2, 2)]),
              ([(1, 2)], [(1, 2)]), ([(1, 1)], [(1, 1), (2, 1), (1, 1)])]
    jobs += [(Q2, m_of(Q2, *sub), m_of(Q2, *quo)) for sub, quo in tables]
    for q, sub, quo in jobs:
        d, polys = hall_polynomials(q, sub, quo, primes, CATALOG_BUDGET)
        assert [phi.big for phi in polys] == q.enumerate_with_dim(d), (sub, quo)
        for phi in polys:
            assert [p for p, _ in phi.nodes] == [2, 3, 5, 7, 11, 13]
            for p, count in phi.nodes:
                assert count == hall_count(q, sub, quo, phi.big, p, CATALOG_BUDGET), \
                    (sub, quo, phi.big, p)


def test_interpolation_raises_what_hall_count_raises(monkeypatch):
    # the checks run once, before any count is read, and raise the type
    # and message hall_count raises at the first node that fails them:
    # unequal dimension sums first, then the total and each node's
    # primality in node order
    s1, s2 = m_of(Q3, (1, 1)), m_of(Q3, (2, 1))
    r12, r13 = m_of(Q3, (1, 2)), m_of(Q3, (1, 3))
    big5 = m_of(Q3, (1, 3), (1, 2))
    monkeypatch.setattr("hallq.hall._census_count",
                        lambda *args: pytest.fail("count read before the checks"))
    over = ("hall_count budget is total<=4, p<=7 "
            f"(override via {ENV_BUDGET})")
    cases = [
        ((s1, s2, r12, (2, 4, 5)), {}, ValueError, "4 is not prime"),
        ((s1, s2, r12, (2, 3, 9, 5, 15)), {}, ValueError, "9 is not prime"),
        ((s1, s2, r12, (2, 3, 5)), {"validate_prime": 9}, ValueError, "9 is not prime"),
        ((r13, r12, big5, (2, 3, 5)), {}, BudgetError, over),
        ((r13, r12, big5, (2, 4, 5)), {}, BudgetError, over),
        ((s1, s1, r12, (2, 3, 5)), {}, ValueError, "dimension vectors do not add up"),
        ((s1, s1, big5, (2, 4, 5)), {}, ValueError, "dimension vectors do not add up"),
    ]
    for args, kwargs, kind, message in cases:
        with pytest.raises(kind) as err:
            interpolate_hall(Q3, *args, **kwargs)
        assert type(err.value) is kind and str(err.value) == message, args
    # the same at hall_count's own first failing prime
    with pytest.raises(ValueError, match="^4 is not prime$"):
        hall_count(Q3, s1, s2, r12, 4)
    with pytest.raises(BudgetError) as err:
        hall_count(Q3, r13, r12, big5, 2, Budget(4, 7))
    assert str(err.value) == over
    with pytest.raises(ValueError, match="^dimension vectors do not add up$"):
        hall_count(Q3, s1, s1, big5, 4)


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


@pytest.mark.parametrize("q", [Q2, Q3], ids=["n2", "n3"])
def test_integration_lhs_equals_the_per_class_sum(q):
    # the weighted kernel sum against a per-class oracle: one general
    # RationalFunction product and sum for each class N
    primes = (2, 3, 5, 7, 11)
    classes = [(m, sum(r.length for r in m)) for m in q.enumerate_iso_classes(3)]
    pairs = [(l, m, a + b) for l, a in classes for m, b in classes if a + b <= 3]
    for left, right, total in pairs:
        _, report = check_integration_homomorphism(q, left, right, primes)
        d = tuple(x + y for x, y in zip(q.dim_of(left), q.dim_of(right)))
        want = RationalFunction.zero()
        for big in q.enumerate_with_dim(d):
            phi = interpolate_hall(q, left, right, big, primes, budget=CATALOG_BUDGET)
            weight = integrate(q, big, total).coefficient(d)
            want = want + RationalFunction(phi.as_laurent()) * weight
        assert report["lhs"] == want.to_json(), (left, right)
    assert len(pairs) == {2: 59, 3: 132}[q.n]


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
