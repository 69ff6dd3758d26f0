"""Tests for the cyclic-quiver category: uniserials, forms, Aut counts."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, strategies as st

from hallq import cli, quiver
from hallq.exact import LaurentPoly
from hallq.hall import _classes_with_dim, submodule_census
from hallq.quiver import (CyclicQuiver, Indecomposable, ModuleIso, multiset_walk,
                          multisets_with_budget)
from hallq.torus import apply_translate, integrate

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
    # the top S_(i+l-1) of R(i, l) is its one simple quotient, as the
    # census over F_2 lists it
    for r, top in ((Q3.R(1, 2), 2), (Q3.R(3, 3), 2), (Q3.simple(2), 2)):
        quotients = [quo for _, quo, _ in submodule_census(3, ModuleIso.of(r), 2)
                     if len(quo) == 1 and quo[0].length == 1]
        assert quotients == [ModuleIso.of(Q3.simple(top))]


def test_module_iso_sum_and_counts():
    m = ModuleIso.of(Q3.simple(1), Q3.simple(1), Q3.R(1, 2))
    assert Counter(m) == {Q3.simple(1): 2, Q3.R(1, 2): 1}
    assert Q3.dim_of(m) == (3, 1, 0)
    assert ModuleIso.of(*m, *ModuleIso.zero()) == m
    assert Q3.dim_of(ModuleIso.zero()) == (0, 0, 0)


def test_module_iso_json_round_trip():
    m = ModuleIso.of(Q3.R(2, 4), Q3.simple(3))
    assert m.to_json() == [[2, 4], [3, 1]]


def test_module_iso_cached_hash_is_the_summand_tuple_hash():
    # a class is the tuple of its summands, so its hash is hash(tuple(m)),
    # for every class of total <= 4 and for each way of building one
    classes = Q3.enumerate_iso_classes(4)
    for m in classes:
        assert hash(m) == hash(tuple(m))
        again = ModuleIso.of(*reversed(m))
        assert again == m and hash(again) == hash(m)
        assert repr(m) == f"ModuleIso({tuple(m)!r})"
    assert repr(ModuleIso.zero()) == "ModuleIso(())"
    assert hash(ModuleIso.zero()) == hash(())


def test_module_iso_is_its_sorted_summand_tuple():
    m = ModuleIso.of(Q3.R(2, 1), Q3.simple(1), Q3.R(1, 2), Q3.simple(1))
    assert tuple(m) == ((1, 1), (1, 1), (1, 2), (2, 1))
    assert len(m) == 4 and m[2] == Q3.R(1, 2) and not ModuleIso.zero()
    assert str(m) == "R(1,1) + R(1,1) + R(1,2) + R(2,1)" and str(ModuleIso.zero()) == "0"
    # tuple + gives a plain, unsorted tuple; `of` gives the direct sum
    a, b = ModuleIso.of(Q3.R(2, 1)), ModuleIso.of(Q3.simple(1))
    assert type(a + b) is tuple and a + b == (Q3.R(2, 1), Q3.simple(1))
    assert ModuleIso.of(*a, *b) == ModuleIso((Q3.simple(1), Q3.R(2, 1)))
    # classes sort as their JSON lists
    classes = Q3.enumerate_iso_classes(4)
    assert sorted(classes) == sorted(classes, key=ModuleIso.to_json)


def test_module_iso_refuses_unsorted_summands():
    for parts in ((Q3.R(2, 1), Q3.R(1, 2)), (Q3.R(1, 2), Q3.simple(1)),
                  (Q3.simple(1), Q3.simple(2), Q3.simple(1))):
        with pytest.raises(ValueError, match="sorted"):
            ModuleIso(parts)
        assert list(ModuleIso.of(*parts)) == sorted(parts)


def test_indecomposable_validation():
    with pytest.raises(ValueError, match="positive"):
        Indecomposable(1, 0)
    with pytest.raises(ValueError, match="1-based"):
        Indecomposable(0, 1)
    with pytest.raises(ValueError, match="positive"):
        Indecomposable(0, 0)
    assert Indecomposable(1, 1) == (1, 1) and Indecomposable(3, 2).socle == 3


# ----------------------------------------------------------------------
# Subobject chain, read off the submodule census
# ----------------------------------------------------------------------

def chain(r, p=2):
    """(submodule, quotient) pairs of the uniserial r over F_p, with count 1."""
    rows = submodule_census(3, ModuleIso.of(r), p)
    assert all(count == 1 for _, _, count in rows)
    return {(sub, quo) for sub, quo, _ in rows}


def test_subobjects_of_uniserial():
    subs = sorted((sub for sub, _ in chain(Q3.R(3, 3))), key=lambda m: sum(Q3.dim_of(m)))
    assert subs == [ModuleIso.zero()] + [ModuleIso.of(Q3.R(3, k)) for k in (1, 2, 3)]


def test_chain_quotients():
    r = Q3.R(3, 3)
    pairs = chain(r, 3)
    assert (ModuleIso.of(Q3.R(3, 1)), ModuleIso.of(Q3.R(1, 2))) in pairs
    assert (ModuleIso.of(Q3.R(3, 2)), ModuleIso.of(Q3.R(2, 1))) in pairs
    assert len(pairs) == 4


def test_chain_quotient_long_module():
    assert (ModuleIso.of(Q3.R(1, 1)), ModuleIso.of(Q3.R(2, 3))) in chain(Q3.R(1, 4))


@given(st.integers(2, 5), st.integers(1, 8), st.integers(1, 10))
def test_subquotient_dims_add_up(n, socle, length):
    # R(i, l) / R(i, k) = R(i+k, l-k), the rows submodule_census lists
    q = CyclicQuiver(n)
    r = q.R(socle, length)
    whole = q.dim_of_indec(r)
    for k in range(1, length):
        sub = q.dim_of_indec(q.R(r.socle, k))
        quo = q.dim_of_indec(q.R(r.socle + k, length - k))
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

def hom_dim(q, a, b):
    """dim Hom(R(i,l), R(j,m)) = #{1 <= s <= min(l,m) : s = i+l-j mod n},
    the one-entry table of the one-summand runs of a and b."""
    return q._hom_table([(a.socle, a.length, 1)], [(b.socle, b.length, 1)])[0][0]


def test_hom_dim_anchors():
    assert hom_dim(Q3, Q3.R(3, 3), Q3.R(1, 2)) == 1
    assert hom_dim(Q3, Q3.R(1, 3), Q3.R(1, 3)) == 1
    assert hom_dim(Q2, Q2.R(1, 2), Q2.R(1, 2)) == 1
    # no quotient of R(1,2) embeds into R(3,3)
    assert hom_dim(Q3, Q3.R(1, 2), Q3.R(3, 3)) == 0


def test_hom_dim_simples():
    for i in range(1, 4):
        for j in range(1, 4):
            assert hom_dim(Q3, Q3.simple(i), Q3.simple(j)) == (1 if i == j else 0)


def test_hom_dim_long_modules():
    # maps factor through shared composition-series windows
    assert hom_dim(Q2, Q2.R(1, 4), Q2.R(1, 4)) == 2
    assert hom_dim(Q2, Q2.R(1, 4), Q2.R(1, 2)) == 1
    assert hom_dim(Q2, Q2.R(1, 2), Q2.R(1, 4)) == 1


def _runs(m):
    """(socle, length, multiplicity) per run of the sorted summand tuple."""
    return [(s, l, len(list(run))) for (s, l), run in itertools.groupby(m)]


def hom_runs(q, a, b):
    """dim Hom(A, B) from the table of the runs of A and B."""
    return sum(map(sum, q._hom_table(_runs(a), _runs(b))))


def test_hom_dim_modules_additive():
    a = ModuleIso.of(Q3.simple(1), Q3.R(1, 2))
    b = ModuleIso.of(Q3.simple(1), Q3.simple(2))
    total = sum(
        hom_dim(Q3, x, y) for x in a for y in b
    )
    assert hom_runs(Q3, a, b) == total


def test_end_dim():
    def end_dim(m):
        return hom_runs(Q3, m, m)

    assert end_dim(ModuleIso.of(Q3.simple(1))) == 1
    assert end_dim(ModuleIso.of(Q3.simple(1), Q3.simple(1))) == 4
    assert end_dim(ModuleIso.of(Q3.R(1, 3))) == 1


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
    assert Q3.aut_poly(m).eval_even_at_q(2) == 6
    assert Q3.aut_poly(m).eval_even_at_q(3) == 48


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
    mults = Counter(m)
    end = sum(ma * mb * hom_dim(q, x, y)
              for x, ma in mults.items() for y, mb in mults.items())
    e = end - sum(k * (k + 1) // 2 for k in mults.values())
    return e, tuple(sorted(k for mult in mults.values() for k in range(1, mult + 1)))


def test_aut_factors_run_once_per_class_of_the_integration_catalog(monkeypatch, capsys, tmp_path):
    # the integration catalog of the hall-catalog benchmark, at n = 3 and
    # total 3, asks for |Aut N| 423 times over 35 distinct classes; the
    # memo runs the walk behind aut_factors once per class
    runs, asked = [], []
    walk, factors = CyclicQuiver.aut_exponents, CyclicQuiver.aut_factors
    monkeypatch.setattr(CyclicQuiver, "aut_exponents",
                        lambda self, *args: runs.append(1) or walk(self, *args))
    monkeypatch.setattr(CyclicQuiver, "aut_factors",
                        lambda self, m: asked.append(m) or factors(self, m))
    quiver._aut_factors.cache_clear()
    config = tmp_path / "catalog.json"
    config.write_text('{"max_total": 3}')
    assert cli.main(["verify", "integration", "--n", "3", "--config", str(config)]) == 0
    capsys.readouterr()
    assert len(asked) == 423 and len(set(asked)) == 35
    assert len(runs) == 35


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_aut_factors_match_the_counts_formula(n):
    q = CyclicQuiver(n)
    classes = list(q.enumerate_iso_classes(6))
    for m in classes:
        assert q.aut_factors(m) == _aut_factors_by_counts(q, m), m
    sample = classes[::max(1, len(classes) // 60)]
    for a, b in itertools.product(sample, repeat=2):
        ca, cb = Counter(a), Counter(b)
        assert hom_runs(q, a, b) == sum(
            ma * mb * hom_dim(q, x, y) for x, ma in ca.items() for y, mb in cb.items())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_aut_exponents_along_the_walk_match_the_counts_formula(n):
    # each step's (e, ks) against the counts formula for the class it reaches
    q = CyclicQuiver(n)
    parts = sorted(q.enumerate_indecomposables(6))
    walk = q.aut_exponents(parts,
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


def _multisets_by_recursion(parts, budget):
    """The depth-first recursion multisets_with_budget was written as."""
    parts = sorted(parts)
    out, acc = [], []

    def extend(start, left):
        out.append(ModuleIso(tuple(acc)))
        for i in range(start, len(parts)):
            if parts[i].length <= left:
                acc.append(parts[i])
                extend(i, left - parts[i].length)
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
    for budget in range(-1, 8):
        for parts in ([], every, rng.sample(every, 6), rng.sample(every, 3)):
            assert (multisets_with_budget(parts, budget)
                    == _multisets_by_recursion(parts, budget))
    # random weight lists, in no order, so that the walk jumps over runs of
    # parts heavier than the weight left
    for _ in range(300):
        ws = [rng.randint(1, 6) for _ in range(rng.randint(0, 9))]
        for budget in range(-1, 10):
            assert list(multiset_walk(ws, budget)) == _walk_by_recursion(ws, budget)


def test_aut_value_matches_poly_eval():
    # |Aut M|(q) at q = p against q^e prod (q^k - 1) evaluated in integers
    for m in Q3.enumerate_iso_classes(3):
        if not m:
            continue
        poly = Q3.aut_poly(m)
        e, ks = Q3.aut_factors(m)
        for p in (2, 3, 5):
            assert poly.eval_even_at_q(p) == p ** e * prod(p ** k - 1 for k in ks)


# ----------------------------------------------------------------------
# Translation: tau R(i, l) = R(i-1, l), on the torus image of a module
# ----------------------------------------------------------------------

def image(*parts, trunc=6):
    return integrate(Q3, ModuleIso.of(*parts), trunc)


def test_translate_anchors():
    assert apply_translate(image(Q3.R(2, 1))) == image(Q3.R(1, 1))
    assert apply_translate(image(Q3.R(1, 2))) == image(Q3.R(3, 2))
    assert list(apply_translate(image(Q3.simple(1), Q3.simple(2))).terms) == [(1, 0, 1)]


def test_translate_round_trip():
    x = image(Q3.R(2, 4))
    assert apply_translate(apply_translate(x), -1) == x
    out = x
    for _ in range(3):
        out = apply_translate(out)
    assert out == x


def test_translate_dim_consistent_with_modules():
    for r in Q3.enumerate_indecomposables(6):
        assert apply_translate(image(r)) == image(Q3.R(r.socle - 1, r.length)), r


def test_translate_module():
    assert apply_translate(image(Q3.R(2, 1), Q3.R(1, 3))) == image(Q3.R(1, 1), Q3.R(3, 3))


def test_translate_preserves_forms_and_hom():
    # tau R(i, l) = R(i-1, l) turns dimension vectors by (tau d)_j = d_(j+1)
    pairs = list(itertools.product(Q3.enumerate_indecomposables(4), repeat=2))
    for a, b in pairs:
        ta, tb = Q3.R(a.socle - 1, a.length), Q3.R(b.socle - 1, b.length)
        assert hom_dim(Q3, ta, tb) == hom_dim(Q3, a, b)
        da, db = Q3.dim_of_indec(a), Q3.dim_of_indec(b)
        tda, tdb = da[1:] + da[:1], db[1:] + db[:1]
        assert (Q3.dim_of_indec(ta), Q3.dim_of_indec(tb)) == (tda, tdb)
        assert Q3.euler_form(tda, tdb) == Q3.euler_form(da, db)
        assert Q3.lambda_form(tda, tdb) == Q3.lambda_form(da, db)


@pytest.mark.parametrize("n,classes", [(2, 139), (3, 415), (4, 990), (5, 2052)])
def test_rotation_and_duality_keep_aut_and_turn_the_dimension_vector(n, classes):
    # the symmetries integrate_iso_sum sums one orbit representative by:
    # rotation R(i, l) -> R(i+1, l), and k-duality with the vertices
    # relabelled j -> -j, R(i, l) -> R(1-i-l, l); checked class by class,
    # with no walk
    q = CyclicQuiver(n)
    every = q.enumerate_iso_classes(6)
    assert len(every) == classes
    for m in every:
        d = q.dim_of(m)
        turned = ModuleIso.of(*(q.R(r.socle + 1, r.length) for r in m))
        dual = ModuleIso.of(*(q.R(1 - r.socle - r.length, r.length) for r in m))
        assert q.aut_factors(turned) == q.aut_factors(m), m
        assert q.aut_factors(dual) == q.aut_factors(m), m
        assert q.dim_of(turned) == d[-1:] + d[:-1]
        back = d[::-1]
        assert q.dim_of(dual) == back[1:] + back[:1]


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
    # and so does the memo of the Hall tables, keyed on (n, d), whatever
    # quivers asked it before
    catalog = list(q.enumerate_iso_classes(4))
    for total in range(5):
        for d in itertools.product(range(total + 1), repeat=q.n):
            if sum(d) == total:
                want = [m for m in catalog if q.dim_of(m) == d]
                assert q.enumerate_with_dim(d) == want
                assert _classes_with_dim(q.n, d) == tuple(want)


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
