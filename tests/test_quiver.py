"""Tests for the cyclic-quiver category: uniserials, forms, Aut counts."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hallq.exact import LaurentPoly
from hallq.quiver import (CyclicQuiver, Indecomposable, ModuleIso, _runs, count_congruent,
                          multiset_walk, multisets_with_budget)

Q2 = CyclicQuiver(2)
Q3 = CyclicQuiver(3)
Q4 = CyclicQuiver(4)


# ----------------------------------------------------------------------
# Basic structure
# ----------------------------------------------------------------------

def test_vertex_wraps():
    assert Q3.vertex(4) == 1
    assert Q3.vertex(0) == 3
    assert Q3.vertex(-1) == 2


def test_unit_vectors_and_delta():
    assert Q3.e(1) == (1, 0, 0)
    assert Q3.e(3) == (0, 0, 1)
    assert Q3.delta == (1, 1, 1)


def test_dim_of_indec():
    # R(3,3) over n=3 hits every vertex once
    assert Q3.dim_of_indec(Q3.R(3, 3)) == (1, 1, 1)
    assert Q3.dim_of_indec(Q3.R(1, 2)) == (1, 1, 0)
    assert Q3.dim_of_indec(Q3.R(1, 4)) == (2, 1, 1)


def test_top_vertex():
    assert Q3.top(Q3.R(1, 2)) == 2
    assert Q3.top(Q3.R(3, 3)) == 2
    assert Q3.top(Q3.simple(2)) == 2


def test_module_iso_sum_and_counts():
    m = ModuleIso.of(Q3.simple(1), Q3.simple(1), Q3.R(1, 2))
    assert m.counts() == {Q3.simple(1): 2, Q3.R(1, 2): 1}
    assert Q3.dim_of(m) == (3, 1, 0)
    assert (m + ModuleIso.zero()) == m
    assert Q3.dim_of(ModuleIso.zero()) == (0, 0, 0)


def test_module_iso_json_round_trip():
    m = ModuleIso.of(Q3.R(2, 4), Q3.simple(3))
    assert ModuleIso.from_json(m.to_json()) == m


def test_indecomposable_validation():
    with pytest.raises(ValueError):
        Indecomposable(1, 0)


# ----------------------------------------------------------------------
# Subobject chain
# ----------------------------------------------------------------------

def test_subobjects_of_uniserial():
    assert Q3.subobjects(Q3.R(3, 3)) == [Q3.R(3, 1), Q3.R(3, 2), Q3.R(3, 3)]


def test_chain_quotients():
    r = Q3.R(3, 3)
    assert Q3.chain_quotient(r, 1) == Q3.R(1, 2)
    assert Q3.chain_quotient(r, 2) == Q3.R(2, 1)
    with pytest.raises(ValueError):
        Q3.chain_quotient(r, 3)
    with pytest.raises(ValueError):
        Q3.chain_quotient(r, 0)


def test_chain_quotient_long_module():
    assert Q3.chain_quotient(Q3.R(1, 4), 1) == Q3.R(2, 3)


@given(st.integers(2, 5), st.integers(1, 8), st.integers(1, 10))
def test_subquotient_dims_add_up(n, socle, length):
    q = CyclicQuiver(n)
    r = q.R(socle, length)
    whole = q.dim_of_indec(r)
    for k in range(1, length):
        sub = q.dim_of_indec(q.R(r.socle, k))
        quo = q.dim_of_indec(q.chain_quotient(r, k))
        assert tuple(s + t for s, t in zip(sub, quo)) == whole


# ----------------------------------------------------------------------
# Bilinear forms
# ----------------------------------------------------------------------

def test_euler_form_anchors():
    assert Q3.euler_form(Q3.e(1), Q3.e(1)) == 1
    assert Q3.euler_form(Q3.e(1), Q3.e(3)) == -1
    assert Q3.euler_form(Q3.e(1), Q3.e(2)) == 0
    assert Q3.euler_form(Q3.delta, Q3.delta) == 0


def test_lambda_form_anchors():
    assert Q3.lambda_form(Q3.e(1), Q3.e(2)) == 1
    assert Q3.lambda_form(Q3.e(2), Q3.e(1)) == -1


def test_lambda_vanishes_against_delta_multiples():
    for d in [(1, 0, 0), (2, 1, 0), (0, 3, 1)]:
        assert Q3.lambda_form(d, (4, 4, 4)) == 0
        assert Q3.lambda_form((4, 4, 4), d) == 0


def test_lambda_identically_zero_for_n2():
    for d in itertools.product(range(3), repeat=2):
        for e in itertools.product(range(3), repeat=2):
            assert Q2.lambda_form(d, e) == 0


dim3 = st.tuples(*(st.integers(0, 6) for _ in range(3)))


@given(dim3, dim3)
def test_lambda_antisymmetric(d, e):
    assert Q3.lambda_form(d, e) == -Q3.lambda_form(e, d)


@given(dim3, dim3, dim3)
def test_forms_bilinear(d, e, f):
    s = tuple(x + y for x, y in zip(e, f))
    assert Q3.euler_form(d, s) == Q3.euler_form(d, e) + Q3.euler_form(d, f)
    assert Q3.euler_form(s, d) == Q3.euler_form(e, d) + Q3.euler_form(f, d)
    assert Q3.lambda_form(d, s) == Q3.lambda_form(d, e) + Q3.lambda_form(d, f)


@given(dim3, dim3)
def test_lambda_is_antisymmetrized_euler(d, e):
    assert Q3.lambda_form(d, e) == Q3.euler_form(d, e) - Q3.euler_form(e, d)


# ----------------------------------------------------------------------
# Hom dimensions
# ----------------------------------------------------------------------

def test_hom_dim_anchors():
    assert Q3.hom_dim(Q3.R(3, 3), Q3.R(1, 2)) == 1
    assert Q3.hom_dim(Q3.R(1, 3), Q3.R(1, 3)) == 1
    assert Q2.hom_dim(Q2.R(1, 2), Q2.R(1, 2)) == 1
    # no quotient of R(1,2) embeds into R(3,3)
    assert Q3.hom_dim(Q3.R(1, 2), Q3.R(3, 3)) == 0


def test_hom_dim_simples():
    for i in range(1, 4):
        for j in range(1, 4):
            assert Q3.hom_dim(Q3.simple(i), Q3.simple(j)) == (1 if i == j else 0)


def test_hom_dim_long_modules():
    # maps factor through shared composition-series windows
    assert Q2.hom_dim(Q2.R(1, 4), Q2.R(1, 4)) == 2
    assert Q2.hom_dim(Q2.R(1, 4), Q2.R(1, 2)) == 1
    assert Q2.hom_dim(Q2.R(1, 2), Q2.R(1, 4)) == 1


def test_hom_dim_modules_additive():
    a = ModuleIso.of(Q3.simple(1), Q3.R(1, 2))
    b = ModuleIso.of(Q3.simple(1), Q3.simple(2))
    total = sum(
        Q3.hom_dim(x, y) for x in a.summands for y in b.summands
    )
    assert Q3._hom_runs(_runs(a), _runs(b)) == total


def test_end_dim():
    def end_dim(m):
        return Q3._hom_runs(_runs(m), _runs(m))

    assert end_dim(ModuleIso.of(Q3.simple(1))) == 1
    assert end_dim(ModuleIso.of(Q3.simple(1), Q3.simple(1))) == 4
    assert end_dim(ModuleIso.of(Q3.R(1, 3))) == 1


def test_count_congruent():
    assert count_congruent(1, 10, 3, 3) == 3
    assert count_congruent(1, 2, 3, 3) == 0
    assert count_congruent(1, 3, 3, 3) == 1


# ----------------------------------------------------------------------
# Automorphism polynomials
# ----------------------------------------------------------------------

def test_aut_poly_simple():
    # |Aut S_1| = q - 1
    p = Q3.aut_poly(ModuleIso.of(Q3.simple(1)))
    assert p == LaurentPoly(0, [-1, 0, 1])


def test_aut_poly_square_of_simple():
    # |GL_2(F_q)| = (q^2 - 1)(q^2 - q)
    m = ModuleIso.of(Q3.simple(1), Q3.simple(1))
    assert Q3.aut_poly(m) == LaurentPoly.from_q_coeffs([0, 1, -1, -1, 1])
    assert Q3.aut_value(m, 2) == 6
    assert Q3.aut_value(m, 3) == 48


def test_aut_poly_uniserial_length_two():
    # End R(1,2) is local of dimension 1, so |Aut| = q - 1
    p = Q3.aut_poly(ModuleIso.of(Q3.R(1, 2)))
    assert p == LaurentPoly(0, [-1, 0, 1])


def test_aut_poly_n2_length_two():
    # End R(1,2) over n=2 has dimension 1
    p = Q2.aut_poly(ModuleIso.of(Q2.R(1, 2)))
    assert p == LaurentPoly(0, [-1, 0, 1])


def _aut_factors_by_counts(q, m):
    """|Aut M| = q^e prod (q^k - 1) from the multiplicities m_r of the
    distinct summands R_r: e = sum m_r m_s dim Hom(R_r, R_s) - sum
    m_r (m_r + 1) / 2, and ks lists 1..m_r for every r."""
    mults = m.counts()
    end = sum(ma * mb * q.hom_dim(x, y)
              for x, ma in mults.items() for y, mb in mults.items())
    e = end - sum(k * (k + 1) // 2 for k in mults.values())
    return e, tuple(sorted(k for mult in mults.values() for k in range(1, mult + 1)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_aut_factors_match_the_counts_formula(n):
    q = CyclicQuiver(n)
    classes = list(q.enumerate_iso_classes(6))
    for m in classes:
        assert q.aut_factors(m) == _aut_factors_by_counts(q, m), m
    sample = classes[::max(1, len(classes) // 60)]
    for a, b in itertools.product(sample, repeat=2):
        ca, cb = a.counts(), b.counts()
        assert q._hom_runs(_runs(a), _runs(b)) == sum(
            ma * mb * q.hom_dim(x, y) for x, ma in ca.items() for y, mb in cb.items())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_aut_exponents_along_the_walk_match_the_counts_formula(n):
    # each step's (e, ks) against the counts formula for the class it reaches
    q = CyclicQuiver(n)
    parts = sorted(q.enumerate_indecomposables(6), key=lambda r: (r.socle, r.length))
    walk = q.aut_exponents([(r.socle, r.length) for r in parts],
                           multiset_walk([r.length for r in parts], 6))
    path, ks, seen = [], [], 0
    for depth, i, m, e in walk:
        del path[depth - 1:], ks[depth - 1:]
        path.append(parts[i])
        ks.append(m)
        assert m == path.count(parts[i])
        m_iso = ModuleIso.of(*path)
        assert (e, tuple(sorted(ks))) == _aut_factors_by_counts(q, m_iso), m_iso
        seen += 1
    assert seen + 1 == len(q.enumerate_iso_classes(6))


def _multisets_by_recursion(parts, budget, weight):
    """The depth-first recursion multisets_with_budget was written as."""
    parts = sorted(parts, key=lambda r: (r.socle, r.length))
    out, acc = [], []

    def extend(start, left):
        out.append(ModuleIso(tuple(acc)))
        for i in range(start, len(parts)):
            if weight(parts[i]) <= left:
                acc.append(parts[i])
                extend(i, left - weight(parts[i]))
                acc.pop()

    if budget >= 0:
        extend(0, budget)
    return out


def _walk_by_recursion(weights, budget):
    """The (depth, i, m) steps of multiset_walk, by the same recursion."""
    out = []

    def extend(depth, start, left, last, m):
        for i in range(start, len(weights)):
            if weights[i] <= left:
                step = m + 1 if i == last else 1
                out.append((depth, i, step))
                extend(depth + 1, i, left - weights[i], i, step)

    if budget >= 0:
        extend(1, 0, budget, -1, 0)
    return out


def test_multisets_with_budget_keeps_the_recursive_order():
    rng = random.Random(5)
    every = CyclicQuiver(3).enumerate_indecomposables(5)
    weights = {r: rng.randint(1, 4) for r in every}
    for budget in range(-1, 8):
        for parts in ([], every, rng.sample(every, 6), rng.sample(every, 3)):
            for weight in (lambda r: r.length, weights.__getitem__):
                assert (multisets_with_budget(parts, budget, weight)
                        == _multisets_by_recursion(parts, budget, weight))
    # random weight lists, in no order, so that the walk jumps over runs of
    # parts heavier than the weight left
    for _ in range(300):
        ws = [rng.randint(1, 6) for _ in range(rng.randint(0, 9))]
        for budget in range(-1, 10):
            assert list(multiset_walk(ws, budget)) == _walk_by_recursion(ws, budget)


def test_aut_value_matches_poly_eval():
    for m in Q3.enumerate_iso_classes(3):
        if m.is_zero:
            continue
        poly = Q3.aut_poly(m)
        for p in (2, 3, 5):
            assert poly.eval_even_at_q(p) == Q3.aut_value(m, p)


# ----------------------------------------------------------------------
# Translation
# ----------------------------------------------------------------------

def test_translate_anchors():
    assert Q3.translate(Q3.R(2, 1)) == Q3.R(1, 1)
    assert Q3.translate(Q3.R(1, 2)) == Q3.R(3, 2)
    assert Q3.translate_dim((1, 1, 0)) == (1, 0, 1)


def test_translate_round_trip():
    r = Q3.R(2, 4)
    assert Q3.translate_inv(Q3.translate(r)) == r
    out = r
    for _ in range(3):
        out = Q3.translate(out)
    assert out == r


def test_translate_dim_consistent_with_modules():
    for r in Q3.enumerate_indecomposables(6):
        assert Q3.dim_of_indec(Q3.translate(r)) == Q3.translate_dim(
            Q3.dim_of_indec(r)
        )


def test_translate_module():
    m = ModuleIso.of(Q3.R(2, 1), Q3.R(1, 3))
    assert Q3.translate_module(m) == ModuleIso.of(Q3.R(1, 1), Q3.R(3, 3))


def test_translate_preserves_forms_and_hom():
    pairs = list(itertools.product(Q3.enumerate_indecomposables(4), repeat=2))
    for a, b in pairs:
        ta, tb = Q3.translate(a), Q3.translate(b)
        assert Q3.hom_dim(ta, tb) == Q3.hom_dim(a, b)
        da, db = Q3.dim_of_indec(a), Q3.dim_of_indec(b)
        assert Q3.euler_form(Q3.translate_dim(da), Q3.translate_dim(db)) == Q3.euler_form(da, db)
        assert Q3.lambda_form(Q3.translate_dim(da), Q3.translate_dim(db)) == Q3.lambda_form(da, db)


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------

def test_enumerate_indecomposables_counts():
    assert len(Q3.enumerate_indecomposables(1)) == 3
    assert len(Q2.enumerate_indecomposables(2)) == 4
    assert len(Q3.enumerate_indecomposables(6)) == 18


def test_enumerate_iso_classes_counts():
    assert sum(1 for _ in Q2.enumerate_iso_classes(2)) == 8
    assert sum(1 for _ in Q2.enumerate_iso_classes(1)) == 3
    assert sum(1 for _ in Q2.enumerate_iso_classes(0)) == 1


def test_enumerate_iso_classes_distinct_and_bounded():
    seen = set(Q3.enumerate_iso_classes(3))
    assert len(seen) == sum(1 for _ in Q3.enumerate_iso_classes(3))
    for m in seen:
        assert sum(Q3.dim_of(m)) <= 3


def test_enumerate_with_dim():
    classes = Q3.enumerate_with_dim((1, 1, 0))
    assert ModuleIso.of(Q3.R(1, 2)) in classes
    assert ModuleIso.of(Q3.simple(1), Q3.simple(2)) in classes
    assert len(classes) == 2
    assert Q3.enumerate_with_dim((0, 0, 0)) == [ModuleIso.zero()]


@pytest.mark.parametrize("q", [Q2, Q3, Q4])
def test_enumerate_with_dim_matches_the_filtered_catalog(q):
    catalog = list(q.enumerate_iso_classes(4))
    for total in range(5):
        for d in itertools.product(range(total + 1), repeat=q.n):
            if sum(d) == total:
                assert q.enumerate_with_dim(d) == [m for m in catalog if q.dim_of(m) == d]


@pytest.mark.parametrize("q", [Q2, Q3, Q4])
def test_enumerate_iso_classes_order(q):
    classes = list(q.enumerate_iso_classes(5))
    keys = [(sum(q.dim_of(m)), m.to_json()) for m in classes]
    assert keys == sorted(keys)


def test_enumerate_with_dim_delta():
    classes = Q3.enumerate_with_dim((1, 1, 1))
    # three long orbits plus three mixed splittings plus the semisimple one
    assert len(classes) == 7
    for m in classes:
        assert Q3.dim_of(m) == (1, 1, 1)
