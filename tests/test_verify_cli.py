"""Tests for the verification campaigns and the command-line driver."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hallq
from hallq import exact
from hallq.cli import _FLAGS, _plain_args, build_parser, main, parse_module
from hallq.exact import GaussianRational, LaurentPoly, RF_ONE, RationalFunction
from hallq.hall import BudgetError
from hallq.quiver import CyclicQuiver, ModuleIso
from hallq.stability import StabilityFunction, random_discrete
from hallq.torus import (TorusElement, convolve, dilog, ez, ordered_product, stable_dims,
                         torus_diff)
from hallq.verify import (
    CAMPAIGNS,
    CampaignConfig,
    ConfigError,
    INTEGRATION_PAIR_BUDGET,
    ISO_CLASS_BUDGET,
    MAX_TRIALS,
    MAX_VERTICES,
    SABOTAGE_MODES,
    TORUS_COMMANDS,
    TORUS_KEY_BUDGET,
    campaign_cyclic,
    campaign_hn_identity,
    campaign_integration,
    campaign_invariance,
    campaign_jacobian,
    campaign_pentagon,
    campaign_stables,
    _class_counts,
    _element_digest,
    _integration_pair_count,
    _mismatch,
    _trial_products,
)

Q3 = CyclicQuiver(3)


def g(re, im):
    return GaussianRational(Fraction(re), Fraction(im))


Z_REF = StabilityFunction(3, (g(2, 1), g(-2, 1), g(1, 2)))


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------

def test_config_defaults_truncation():
    cfg = CampaignConfig(n=4).check()
    assert cfg.truncation == 8


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        CampaignConfig(n=1).check()
    with pytest.raises(ConfigError):
        CampaignConfig(trials=0).check()
    with pytest.raises(ConfigError):
        CampaignConfig(truncation=0).check()
    with pytest.raises(ConfigError):
        CampaignConfig(n=2, explicit_z=Z_REF).check()


def test_config_rejects_bad_primes():
    for primes in ((2,), (2, 2), (2, 4), (1, 3)):
        with pytest.raises(ConfigError):
            CampaignConfig(primes=primes).check()


def test_config_rejects_non_integers():
    for key, value in (("n", 2.7), ("trials", True), ("truncation", "6"),
                       ("bound", 3.0), ("seed", None)):
        with pytest.raises(ConfigError):
            CampaignConfig(**{key: value})
    with pytest.raises(ConfigError):
        CampaignConfig(primes=(2, 3.0))


def test_config_rejects_unknown_sabotage():
    with pytest.raises(ConfigError):
        CampaignConfig(sabotage="no-such-mode").check("invariance")
    with pytest.raises(ConfigError):
        CampaignConfig(sabotage="include-delta").check("cyclic")


def test_sabotage_modes_registry():
    assert set(SABOTAGE_MODES) == {
        "invariance", "cyclic", "hn-identity", "pentagon", "jacobian",
        "integration",
    }


# ----------------------------------------------------------------------
# Campaigns: passing runs
# ----------------------------------------------------------------------

def test_campaign_stables_reference():
    ok, payload = campaign_stables(CampaignConfig(n=3, explicit_z=Z_REF, trials=1))
    assert ok and payload["ok"]
    got = [(s["socle"], s["length"]) for s in payload["stables"]]
    assert got == [(2, 1), (1, 2), (3, 3), (3, 1), (1, 1)]
    assert payload["delta_stable"] == [3, 3]
    assert payload["delta_via_runs"] == [3, 3]


def test_campaign_stables_non_discrete_witness():
    z = StabilityFunction(2, (g(0, 1), g(0, 1)))
    ok, payload = campaign_stables(CampaignConfig(n=2, explicit_z=z, trials=1))
    assert not ok
    assert payload["witness"][0]["reason"] == "equal phases"


def test_campaign_invariance():
    ok, payload = campaign_invariance(CampaignConfig(n=3, truncation=4, trials=3))
    assert ok
    assert len(payload["factor_orders"]) == 3
    assert payload["element_sha256"]


def test_trial_products_hold_at_most_about_two_products():
    # trial 0's product is kept and each later one dropped once compared:
    # with the memos warm, 8 trials at (4, 8) peak less than one product
    # above 2 trials, where holding every product would add six
    cfg = CampaignConfig(n=4, truncation=8, trials=8).check("invariance")
    orders = [stable_dims(random_discrete(4, seed, 8)) for seed in range(8)]

    def traced(run):
        """(current, peak) traced bytes, with the result of run() alive."""
        tracemalloc.start()
        try:
            kept = run()  # alive while measured
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    ok, _ = _trial_products(cfg, {}, orders)
    assert ok
    size, _ = traced(lambda: ordered_product([dilog(4, 8, d) for d in orders[0]], 4, 8))
    _, two = traced(lambda: _trial_products(cfg, {}, orders[:2]))
    _, eight = traced(lambda: _trial_products(cfg, {}, orders))
    assert size > 0 and eight < two + size


def _nested_digest(a):
    return hashlib.sha256(json.dumps(a.to_json(), sort_keys=True).encode()).hexdigest()


def _random_element(rng, n, trunc):
    # repeated coefficients, numerators with negative t_low over an
    # integer scalar times a cyclotomic or non-cyclotomic denominator
    pool = [RationalFunction(LaurentPoly(rng.randint(-4, 3),
                                         [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]),
                             LaurentPoly.constant(rng.randint(1, 6))
                             * LaurentPoly(0, rng.choice([(1,), (-1, 0, 1), (1, 2), (2, -3, 1),
                                                          (1, 1, 1)])))
            for _ in range(5)]
    terms = {}
    for _ in range(rng.randint(1, 12)):
        d = [0] * n
        for _ in range(rng.randint(0, trunc)):
            d[rng.randrange(n)] += 1
        terms[tuple(d)] = rng.choice(pool)
    return TorusElement(n, trunc, terms)


def test_element_digest_matches_the_nested_dump():
    rng = random.Random(16)
    elements = []
    for n in (2, 3, 4, 5):
        trunc = n + 2
        elements += [_random_element(rng, n, trunc) for _ in range(15)]
        elements += [ez(random_discrete(n, seed, 8), trunc) for seed in range(2)]
        elements += [TorusElement.zero(n, trunc), TorusElement.one(n, 0),
                     TorusElement.monomial(n, trunc, (0,) * n, RationalFunction(
                         LaurentPoly(-3, [1, -2, 5]), LaurentPoly(0, [4, 8])))]
    frac = RationalFunction(LaurentPoly(-2, [1, 3]), LaurentPoly.constant(4))
    assert frac.den == LaurentPoly.constant(4) and frac.num.t_low < 0
    elements.append(TorusElement(3, 4, {(1, 0, 2): frac, (0, 2, 0): -frac, (0, 0, 0): RF_ONE}))
    # the renderings are keyed on (t_low, ints, exps) of a factored value
    # and on the value of one that holds `_den`; one value held both ways
    # must render the same
    over_phi3 = exact._cyclo_sum(((((3, 1),), 1, (2, -1)),))
    same = RationalFunction(over_phi3.num, over_phi3.den)
    assert same == over_phi3 and same._den is not None and over_phi3._den is None
    half = RationalFunction.constant(Fraction(1, 2))
    elements.append(TorusElement(2, 3, {(1, 0): over_phi3, (0, 1): same, (1, 1): -same,
                                        (2, 0): over_phi3.shifted(1), (0, 2): half,
                                        (2, 1): half * same, (0, 0): -over_phi3}))
    assert any(e.terms and len(set(e.terms.values())) < len(e.terms) for e in elements)
    coeffs = [c for e in elements for c in e.terms.values()]
    assert any(c._den is not None for c in coeffs)
    assert any(c._exps for c in coeffs)
    for a in elements:
        assert _element_digest(a) == _nested_digest(a)


def test_campaign_cyclic():
    ok, payload = campaign_cyclic(CampaignConfig(n=3, truncation=4, trials=1))
    assert ok
    assert payload["witness"] == []


def test_campaign_hn_identity():
    ok, payload = campaign_hn_identity(CampaignConfig(n=2, truncation=4, trials=2))
    assert ok
    assert payload["witness"] == []


def test_campaign_pentagon_exact_shape():
    ok, payload = campaign_pentagon(CampaignConfig(n=3, truncation=6, trials=1))
    assert ok
    assert payload["left_factors"] == [[1, 0, 0], [0, 1, 0]]
    assert payload["right_factors"] == [[0, 1, 0], [1, 1, 0], [1, 0, 0]]
    assert sorted(payload["canceled"]) == [[0, 0, 1], [1, 0, 1]]


def test_mismatch_is_one_witness_with_the_diff_capped_unless_verbose():
    a, one = ez(Z_REF, 6), TorusElement.one(3, 6)
    assert _mismatch(CampaignConfig(), a, TorusElement(3, 6, dict(a.terms)), trial=0) == []
    full = torus_diff(a, one, None)
    assert len(full) > 20
    assert _mismatch(CampaignConfig(), a, one, trial=0, comparison="c") == [
        {"trial": 0, "comparison": "c", "diff": full[:20]}]
    assert _mismatch(CampaignConfig(verbose=True), a, one, rotation=1) == [
        {"rotation": 1, "diff": full}]


# Each comparison below is reached by no sabotage mode, so one ingredient of
# its campaign is replaced by a wrong one.

def _negate_top(a):
    """`a` with the coefficient of its largest key negated."""
    top = max(a.terms)
    return TorusElement(a.n, a.truncation, {**a.terms, top: -a.terms[top]})


def _drop_top(a):
    """`a` without the term of its largest key."""
    top = max(a.terms)
    return TorusElement(a.n, a.truncation, {d: c for d, c in a.terms.items() if d != top})


class _DropsTopWhenMultiplied(TorusElement):
    """An element equal to its terms whose products lose their top term."""

    __slots__ = ()

    def __mul__(self, other):
        return _drop_top(convolve(self, other))


def _patch_products(monkeypatch, changes):
    """Replace the i-th `ordered_product` of a campaign by changes[i] of the
    true product; the products it made, true and returned, are listed."""
    made = []

    def product(factors, n, truncation):
        true = ordered_product(factors, n, truncation)
        out = changes.get(len(made), lambda a: a)(true)
        made.append((true, out))
        return out

    monkeypatch.setattr("hallq.verify.ordered_product", product)
    return made


def _pentagon_witness():
    ok, payload = campaign_pentagon(CampaignConfig(n=3, truncation=4))
    assert not ok and len(payload["witness"]) == 1
    return payload["witness"][0]


def test_pentagon_cancellation_sanity_has_its_witness(monkeypatch):
    # an "inverse" that returns its argument: residual1 * shared is then
    # full1 * shared^2, not full1
    monkeypatch.setattr("hallq.verify.torus_inverse", lambda a: a)
    assert _pentagon_witness()["comparison"] == "cancellation sanity"


def test_pentagon_compares_residual1_then_residual2_with_left(monkeypatch):
    # the products are made in the order full1, full2, shared, left, right;
    # residual_i = full_i * shared^-1, so a full2 whose products lose their
    # top term gives a wrong residual2 while full1 == full2 still holds
    def marked(a):
        return _DropsTopWhenMultiplied(a.n, a.truncation, a.terms)

    made = _patch_products(monkeypatch, {1: marked})
    witness = _pentagon_witness()
    left = made[3][0]
    assert witness["comparison"] == "residual vs left factorization"
    assert witness["diff"] == torus_diff(_drop_top(left), left)
    # with `left` wrong as well, both residuals mismatch, each with its own
    # diff; the one reported is residual1's, which equals the true left
    made = _patch_products(monkeypatch, {1: marked, 3: _negate_top})
    witness = _pentagon_witness()
    left, wrong = made[3]
    assert witness["comparison"] == "residual vs left factorization"
    assert witness["diff"] == torus_diff(left, wrong)
    assert witness["diff"] != torus_diff(_drop_top(left), wrong)


def test_hn_identity_central_factor_split_has_its_witness(monkeypatch):
    # the delta factor replaced by the unit: the per-phase product still
    # equals the iso-sum, the split ez_delta * ez does not
    monkeypatch.setattr("hallq.verify.ez_delta",
                        lambda z, trunc: TorusElement.one(z.n, trunc))
    ok, payload = campaign_hn_identity(CampaignConfig(n=3, truncation=4, trials=1))
    assert not ok
    assert [w["comparison"] for w in payload["witness"]] == ["iso-sum vs central-factor split"]


def test_campaign_pentagon_needs_n3():
    with pytest.raises(ConfigError):
        campaign_pentagon(CampaignConfig(n=2))


def test_campaign_jacobian():
    ok, payload = campaign_jacobian(CampaignConfig(n=3, truncation=4, trials=3))
    assert ok
    # the quotient category never contributes a factor longer than 2
    for order in payload["factor_orders"]:
        for d in order:
            assert sum(d) <= 2


def test_campaign_jacobian_needs_n3():
    with pytest.raises(ConfigError):
        campaign_jacobian(CampaignConfig(n=4))


def test_campaign_integration_small():
    ok, payload = campaign_integration(
        CampaignConfig(n=2, truncation=4, max_total=3, primes=(2, 3, 5))
    )
    assert ok
    assert payload["pairs_checked"] > 0


# ----------------------------------------------------------------------
# Campaigns: sabotage must fail
# ----------------------------------------------------------------------

def test_sabotage_invariance_include_delta():
    ok, payload = campaign_invariance(
        CampaignConfig(n=3, truncation=6, trials=2, sabotage="include-delta")
    )
    assert not ok
    assert payload["witness"]


def test_sabotage_invariance_reverse_order():
    ok, _ = campaign_invariance(
        CampaignConfig(n=3, truncation=6, trials=2, sabotage="reverse-order")
    )
    assert not ok


def test_sabotage_cyclic_drop_factor():
    ok, _ = campaign_cyclic(
        CampaignConfig(n=3, truncation=4, trials=1, sabotage="drop-factor")
    )
    assert not ok


def test_sabotage_hn_flip_twist():
    ok, _ = campaign_hn_identity(
        CampaignConfig(n=3, truncation=4, trials=1, sabotage="flip-twist")
    )
    assert not ok


def test_sabotage_pentagon_reverse_residual():
    ok, _ = campaign_pentagon(
        CampaignConfig(n=3, truncation=6, trials=1, sabotage="reverse-residual")
    )
    assert not ok


def test_sabotage_jacobian_include_delta():
    ok, _ = campaign_jacobian(
        CampaignConfig(n=3, truncation=6, trials=2, sabotage="include-delta")
    )
    assert not ok


def test_sabotage_integration_flip_twist():
    ok, _ = campaign_integration(
        CampaignConfig(n=3, truncation=4, max_total=2, primes=(2, 3, 5),
                       sabotage="flip-twist")
    )
    assert not ok


@pytest.mark.parametrize("campaign,mode", [
    ("hn-identity", "flip-twist"),
    ("integration", "flip-twist"),
    ("invariance", "reverse-order"),
])
def test_sabotage_that_cannot_fail_at_n2_is_refused(campaign, mode):
    # lambda vanishes at n = 2, so the torus is commutative and these
    # modes would leave every comparison intact
    with pytest.raises(ConfigError, match="λ ≡ 0"):
        CampaignConfig(n=2, sabotage=mode).check(campaign)


# ----------------------------------------------------------------------
# Module expression parsing
# ----------------------------------------------------------------------

def test_parse_module_forms():
    assert parse_module("S1", Q3) == ModuleIso.of(Q3.simple(1))
    assert parse_module("R1,2", Q3) == ModuleIso.of(Q3.R(1, 2))
    assert parse_module("s2 + r3,3", Q3) == ModuleIso.of(Q3.simple(2), Q3.R(3, 3))
    assert parse_module("0", Q3) == ModuleIso.zero()


def test_parse_module_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_module("X9", Q3)
    with pytest.raises(ConfigError):
        parse_module("R1", Q3)


# ----------------------------------------------------------------------
# CLI driver
# ----------------------------------------------------------------------

def write_config(tmp_path, **data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


REF_CHARGES = [["2", "1"], ["-2", "1"], ["1", "2"]]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_stables_with_config(capsys, tmp_path):
    cfg = write_config(tmp_path, n=3, charges=REF_CHARGES)
    code, out, _ = run_cli(capsys, "stables", "--config", cfg)
    assert code == 0
    data = json.loads(out)
    assert data["report"]["delta_stable"] == [3, 3]
    assert "timing_seconds" in data


def test_cli_stables_needs_seed_or_charges(capsys):
    code, _, err = run_cli(capsys, "stables")
    assert code == 2
    assert "seed" in err


def test_cli_stables_with_seed(capsys):
    code, out, _ = run_cli(capsys, "stables", "--seed", "1", "--n", "2")
    assert code == 0
    assert json.loads(out)["report"]["ok"] is True


def test_cli_report_is_deterministic(capsys):
    def report_text():
        code, out, _ = run_cli(capsys, "verify", "invariance",
                               "--n", "3", "--trunc", "4", "--trials", "2",
                               "--seed", "7")
        assert code == 0
        return json.dumps(json.loads(out)["report"], sort_keys=True)

    assert report_text() == report_text()


def test_cli_verify_sabotage_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "invariance", "--n", "3",
                           "--trunc", "4", "--trials", "2",
                           "--sabotage", "reverse-order")
    assert code == 1
    assert json.loads(out)["report"]["ok"] is False


@pytest.mark.parametrize("argv,code", [
    (["verify", "hn-identity", "--sabotage", "flip-twist"], 2),
    (["verify", "integration", "--sabotage", "flip-twist"], 2),
    (["verify", "invariance", "--sabotage", "reverse-order"], 2),
    (["verify", "invariance", "--sabotage", "include-delta"], 1),
    (["verify", "cyclic", "--sabotage", "drop-factor"], 1),
])
def test_cli_sabotage_at_n2(capsys, argv, code):
    got, _, err = run_cli(capsys, *argv, "--n", "2", "--trunc", "4",
                          "--trials", "2")
    assert got == code
    if code == 2:
        assert "λ ≡ 0" in err


@pytest.mark.parametrize("primes", ["2,2", "2,4", "3"])
def test_cli_bad_primes_exit_two_without_traceback(primes):
    run = subprocess.run(
        [sys.executable, "-m", "hallq", "hall", "S1", "S1", "--n", "2",
         "--primes", primes],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(hallq.__file__).parents[1])))
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert "primes" in run.stderr


def test_cli_closed_stdout_keeps_the_verdict():
    # the report (about 130 kB on one line) outgrows the pipe, so the
    # write meets a reader that has gone after the first two bytes
    run = subprocess.Popen(
        [sys.executable, "-m", "hallq", "ez", "--n", "4", "--trunc", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(Path(hallq.__file__).parents[1])))
    assert run.stdout.read(2) == b'{"'
    run.stdout.close()
    err = run.stderr.read()
    run.stderr.close()
    assert run.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize("data,key", [
    ({"truncation": "6"}, "truncation"),
    ({"n": 2.7}, "n"),
    ({"trials": True}, "trials"),
    ({"primes": "2,3"}, "primes"),
])
def test_cli_config_values_must_be_integers(capsys, tmp_path, data, key):
    cfg = write_config(tmp_path, **data)
    code, _, err = run_cli(capsys, "verify", "invariance", "--config", cfg)
    assert code == 2
    assert key in err


def test_cli_bound_must_be_positive(capsys):
    code, _, err = run_cli(capsys, "ez", "--seed", "0", "--bound", "0")
    assert code == 2
    assert "bound" in err and "randrange" not in err


def test_cli_verify_bad_sabotage_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "cyclic", "--sabotage", "bogus")
    assert code == 2
    assert "sabotage" in err


def test_cli_verify_pentagon_low_n_exits_two(capsys):
    code, _, _ = run_cli(capsys, "verify", "pentagon", "--n", "2")
    assert code == 2


def test_cli_verify_pentagon_past_the_coarse_grid(capsys):
    # from n = 21 the stable phases collide on the coarse 1/128 grid, so
    # only the fine-grid attempts find an arrangement
    code, out, _ = run_cli(capsys, "verify", "pentagon", "--n", "21", "--trunc", "2")
    assert code == 0
    assert json.loads(out)["report"]["ok"] is True


def test_cli_unknown_campaign_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "no-such-campaign"])


def test_cli_hn_report(capsys, tmp_path):
    cfg = write_config(tmp_path, charges=REF_CHARGES)
    code, out, _ = run_cli(capsys, "hn", "--module", "R2,2", "--config", cfg)
    assert code == 0
    strata = json.loads(out)["report"]["strata"]
    assert [s["subquotient"] for s in strata] == [[[2, 1]], [[3, 1]]]


def test_cli_hall_table(capsys):
    code, out, _ = run_cli(capsys, "hall", "S1", "S2", "--n", "3")
    assert code == 0
    table = json.loads(out)["report"]["polynomials"]
    by_big = {json.dumps(row["N"]): row["coeffs"] for row in table}
    assert by_big["[[1, 2]]"] == [1]
    assert by_big["[[1, 1], [2, 1]]"] == [1]


def test_cli_ez_runs(capsys):
    code, out, _ = run_cli(capsys, "ez", "--seed", "3", "--n", "2",
                           "--trunc", "2")
    assert code == 0
    assert json.loads(out)["report"]["ok"] is True


def test_cli_json_file_output(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "stables", "--seed", "1", "--n", "2",
                           "--json", str(target))
    assert code == 0
    assert json.loads(target.read_text())["report"] == json.loads(out)["report"]


def test_cli_config_unknown_keys(capsys, tmp_path):
    cfg = write_config(tmp_path, charges=REF_CHARGES, shenanigans=1)
    code, _, err = run_cli(capsys, "stables", "--config", cfg)
    assert code == 2
    assert "shenanigans" in err


def test_cli_config_invalid_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run_cli(capsys, "stables", "--config", str(path))
    assert code == 2
    assert "JSON" in err


def test_cli_flag_overrides_config_file(capsys, tmp_path):
    cfg = write_config(tmp_path, n=2, seed=1, trials=4)
    code, out, _ = run_cli(capsys, "verify", "invariance", "--config", cfg,
                           "--trials", "2", "--trunc", "4")
    assert code == 0
    assert json.loads(out)["report"]["trials"] == 2


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


# ----------------------------------------------------------------------
# The argv fast path against argparse, its oracle
# ----------------------------------------------------------------------

ARGV_COMMANDS = ["stables", "hn", "ez", "hall", "verify", "frobnicate", "", "-h"]
INT_FLAGS = [flag for flag, _, type_, _ in _FLAGS if type_ is int]
STR_FLAGS = [flag for flag, _, type_, _ in _FLAGS if type_ is str] + ["--module"]
ARGV_INTS = ["0", "3", "17", " 4", " -1", "+5", "3_0", "007", "\u0663"]
ARGV_WORDS = sorted(CAMPAIGNS) + ["S1", "R1,2", "S1+S2", "cfg.json", "flip-twist",
                                  "a=b", "cyclic ", "x", "0 ", "3.5"]
ARGV_ODD = ["--tr", "--mod", "--verb", "--json_out", "--n=3", "--seed=1",
            "--module=S1", "--Seed", "-n", "-h", "--help", "--", "-", "-1", "",
            "--verbose", "frobnicate"]


@st.composite
def argv_tokens(draw):
    """A command word, then flag/value pairs and single words in any order:
    mostly plain ones, with abbreviations, '=' forms, dashes, negative and
    bad values and stray words mixed in."""
    chunk = st.one_of(
        st.tuples(st.sampled_from(INT_FLAGS), st.sampled_from(ARGV_INTS)),
        st.tuples(st.sampled_from(STR_FLAGS), st.sampled_from(ARGV_WORDS)),
        st.tuples(st.sampled_from(ARGV_WORDS)),
        st.tuples(st.just("--verbose")),
        st.tuples(st.sampled_from(INT_FLAGS + STR_FLAGS + ARGV_ODD)),
        st.tuples(st.sampled_from(INT_FLAGS + STR_FLAGS),
                  st.sampled_from(ARGV_ODD + ARGV_WORDS + ARGV_INTS)))
    chunks = draw(st.lists(chunk, max_size=5))
    return [draw(st.sampled_from(ARGV_COMMANDS))] + [w for c in chunks for w in c]


def _argparse_vars(argv):
    """vars() of argparse's namespace, or its error text if it refuses argv."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exit_:
            return f"exit {exit_.code}: {err.getvalue()}"


@settings(max_examples=1000, deadline=None)
@given(argv_tokens())
@example(["verify", "frobnicate", "--n", "3"])
@example(["hall", "S1", "S2", "--config", "-h"])
@example(["stables", "--seed", "0", "--sabotage"])
def test_plain_args_agrees_with_argparse(argv):
    fast = _plain_args(argv)
    if fast is not None:
        assert vars(fast) == _argparse_vars(argv)


def test_plain_args_takes_every_benchmark_and_golden_command_line():
    root = Path(__file__).resolve().parent.parent
    with open(root / "perfbench" / "workloads.json", encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    argvs = []
    for workload in workloads.values():
        for argv in workload["commands"] + workload.get("probes", []):
            argvs += [[a.replace("{seed}", str(seed)) for a in argv] for seed in range(16)]
    from test_golden_reports import GOLDEN
    argvs += [[a if isinstance(a, str) else "cfg.json" for a in argv] for argv, _, _ in GOLDEN]
    assert len(argvs) > 100
    for argv in argvs:
        fast = _plain_args(argv)
        assert fast is not None, argv
        assert vars(fast) == _argparse_vars(argv), argv


# ----------------------------------------------------------------------
# Exit codes: bad input is 2, an internal fault is 3
# ----------------------------------------------------------------------

NON_DISCRETE = [["1", "1"], ["1", "1"], ["1", "1"]]


@pytest.mark.parametrize("argv,config,env", [
    (["ez"], {"charges": NON_DISCRETE}, None),
    (["verify", "cyclic"], {"charges": NON_DISCRETE}, None),
    (["hn", "--n", "1", "--module", "S1"], None, None),
    (["hall", "--n", "1", "S1", "S1"], None, None),
    (["hn", "--seed", "0", "--module", "R1,0"], None, None),
    (["hall", "R1,0", "S1"], None, None),
    (["stables"], {"charges": [["1", "1"]]}, None),
    (["stables"], {"charges": [["1", "-1"], ["1", "1"], ["1", "1"]]}, None),
    (["hall", "S1", "S1"], None, "abc"),
    (["stables"], {"charges": [["1/0", 1], [1, 1]]}, None),
    (["stables"], {"charges": [[1e400, 1], [1, 1]]}, None),  # JSON Infinity
])
def test_cli_bad_input_exits_two(capsys, monkeypatch, tmp_path, argv, config, env):
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, **config)]
    if env is not None:
        monkeypatch.setenv("HALLQ_BUDGET_OVERRIDE", env)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "internal error" not in err


def test_cli_internal_fault_exits_three(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("dimension vectors do not add up")

    monkeypatch.setattr("hallq.verify.ez_factors", broken)
    code, out, err = run_cli(capsys, "verify", "cyclic", "--n", "3", "--trunc", "4")
    assert code == 3
    assert out == ""
    assert err == "internal error: ValueError: dimension vectors do not add up\n"


@pytest.mark.parametrize("argv", [
    ["stables", "--n", "24", "--bound", "1", "--seed", "0"],
    ["hn", "--module", "S1", "--n", "24", "--bound", "1", "--seed", "0"],
    ["stables", "--n", "32", "--bound", "1", "--seed", "3"],
])
def test_cli_spent_draw_budget_exits_two(capsys, argv):
    # 1,000 draws of charges with |re| <= 1 and im = 1 find no discrete
    # function at these n: a budget spent, not an internal fault
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 10
    assert code == 2 and out == ""
    assert err == ("error: no discrete function found within the draw budget of 1000 "
                   "draws; a larger --bound spreads the charges further\n")


def test_cli_broken_stable_census_exits_three(capsys, monkeypatch):
    # stable_objects' own consistency check stays an internal fault
    monkeypatch.setattr("hallq.stability.stable_indecomposables_up_to", lambda z, l: [])
    code, out, err = run_cli(capsys, "stables", "--n", "3", "--seed", "0")
    assert code == 3 and out == ""
    assert err == ("internal error: RuntimeError: internal inconsistency: "
                   "0 stable objects of dimension delta\n")


def test_cli_pentagon_with_a_faulting_census_exits_three(capsys, monkeypatch):
    # the pentagon skips charges that are not discrete, but a broken
    # census in every attempt is not "no valid charge arrangement"
    def broken(z, include_delta=False):
        raise RuntimeError("internal inconsistency: 2 stable objects of dimension delta")

    monkeypatch.setattr("hallq.verify.stable_dims", broken)
    code, out, err = run_cli(capsys, "verify", "pentagon", "--n", "3")
    assert code == 3 and out == ""
    assert err == ("internal error: RuntimeError: internal inconsistency: "
                   "2 stable objects of dimension delta\n")


def test_campaigns_call_no_polynomial_gcd(monkeypatch):
    # every Q(t) coefficient these commands compute goes through the
    # cyclotomic kernel; the general gcd serves only the public API
    calls = []
    gcd = exact._ipoly_gcd
    monkeypatch.setattr(exact, "_ipoly_gcd", lambda a, b: calls.append((a, b)) or gcd(a, b))
    assert campaign_pentagon(CampaignConfig(n=4, truncation=6))[0]
    assert campaign_integration(CampaignConfig(n=3, max_total=2))[0]
    assert campaign_hn_identity(CampaignConfig(n=3, truncation=6, trials=1))[0]
    assert calls == []


# ----------------------------------------------------------------------
# Budgets checked before any work
# ----------------------------------------------------------------------

def _refuse_work(monkeypatch, *names):
    def reached(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    for name in names:
        monkeypatch.setattr(f"hallq.verify.{name}", reached)


def test_cli_integration_above_hall_budget_refused_up_front(capsys, monkeypatch, tmp_path):
    _refuse_work(monkeypatch, "check_integration_homomorphism")
    cfg = write_config(tmp_path, max_total=9)
    started = time.perf_counter()
    code, _, err = run_cli(capsys, "verify", "integration", "--n", "3", "--config", cfg)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "max_total 9" in err and "Traceback" not in err


def test_integration_budget_override_widens_the_up_front_check(monkeypatch):
    monkeypatch.setattr("hallq.verify.check_integration_homomorphism",
                        lambda *args, **kwargs: (True, {}))
    monkeypatch.setenv("HALLQ_BUDGET_OVERRIDE", "5,13")
    ok, payload = campaign_integration(CampaignConfig(n=2, max_total=5))
    assert ok and payload["pairs_checked"] > 0


def test_integration_pair_count_matches_the_catalog():
    for n in (2, 3, 4):
        q = CyclicQuiver(n)
        for max_total in range(5):
            totals = [sum(r.length for r in m) for m in q.enumerate_iso_classes(max_total)]
            assert _integration_pair_count(n, max_total) == sum(
                1 for a in totals for b in totals if a + b <= max_total)
    assert _integration_pair_count(2, 4) + _integration_pair_count(3, 4) == 611
    assert _integration_pair_count(16, 4) == 78_473
    assert _integration_pair_count(2, 62) is None  # 63 * 64 / 2 = 2,016 (a, b) pairs


def test_class_counts_match_the_enumeration():
    for n in (2, 3, 4):
        q = CyclicQuiver(n)
        for max_total in range(6):
            totals = [sum(r.length for r in m) for m in q.enumerate_iso_classes(max_total)]
            assert _class_counts(n, max_total) == [totals.count(k) for k in range(max_total + 1)]
    assert sum(_class_counts(2, 40)) == 38_361_236
    assert sum(_class_counts(6, 12)) == 702_695


def test_iso_class_budget_bounds():
    assert ISO_CLASS_BUDGET == 100_000
    CampaignConfig(n=2, truncation=20).check("hn-identity")  # 80,377 classes
    CampaignConfig(n=5, truncation=10).check("hn-identity")  # 57,559 classes
    with pytest.raises(BudgetError, match="702695 iso classes"):
        CampaignConfig(n=6).check("hn-identity")
    CampaignConfig(n=6).check("ez")  # only hn-identity sums the classes


def test_cli_iso_class_budget_refused_up_front(capsys, monkeypatch):
    # 861 torus keys pass the key cap, but the iso sum has 38,361,236 classes
    _refuse_work(monkeypatch, "integrate_iso_sum", "semistable_phase_factor",
                 "ez_delta", "_z_for_trial")
    started = time.perf_counter()
    code, _, err = run_cli(capsys, "verify", "hn-identity", "--n", "2", "--trunc", "40")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "38361236 iso classes" in err and "Traceback" not in err


def test_integration_pair_budget_admits_n5(monkeypatch):
    assert INTEGRATION_PAIR_BUDGET == 2_000
    monkeypatch.setattr("hallq.verify.check_integration_homomorphism",
                        lambda *args, **kwargs: (True, {}))
    ok, payload = campaign_integration(CampaignConfig(n=5, max_total=4))
    assert ok and payload["pairs_checked"] == 1_836


def test_cli_integration_pair_budget_refused_up_front(capsys, monkeypatch):
    _refuse_work(monkeypatch, "check_integration_homomorphism")
    monkeypatch.setattr("hallq.quiver.CyclicQuiver.enumerate_iso_classes",
                        lambda *args: pytest.fail("catalog built before the budget check"))
    started = time.perf_counter()
    code, _, err = run_cli(capsys, "verify", "integration", "--n", "16", "--trunc", "2")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "78473 class pairs" in err and "Traceback" not in err


def _fail_on(monkeypatch, *targets):
    for target in targets:
        monkeypatch.setattr(target, lambda *args, **kwargs: pytest.fail(
            f"{target} reached before the input was refused"))


def test_cli_hall_total_refused_up_front(capsys, monkeypatch):
    _fail_on(monkeypatch, "hallq.quiver.CyclicQuiver.enumerate_with_dim",
             "hallq.quiver.CyclicQuiver.enumerate_iso_classes")
    for argv in (["R1,20", "S1", "--n", "3"], ["R1,50", "S1", "--n", "2"]):
        started = time.perf_counter()
        code, _, err = run_cli(capsys, "hall", *argv)
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert "HALLQ_BUDGET_OVERRIDE" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["hn", "--module", "R1,100000000", "--seed", "0", "--n", "2"],
    ["hn", "--module", f"R1,{10 ** 18}", "--seed", "0", "--n", "2"],
    ["hall", f"R1,{10 ** 18}", "S1", "--n", "2"],
])
def test_cli_module_length_refused_up_front(capsys, monkeypatch, argv):
    _fail_on(monkeypatch, "hallq.verify.hn_filtration", "hallq.quiver.CyclicQuiver.dim_of")
    started = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "total length" in err and "Traceback" not in err


def test_parse_module_at_the_length_cap():
    q = CyclicQuiver(2)
    assert sum(r.length for r in parse_module("R1,100000", q)) == 100_000
    with pytest.raises(BudgetError):
        parse_module("R1,99999+S2+S1", q)


def test_cli_negative_max_total_refused(capsys, monkeypatch, tmp_path):
    _fail_on(monkeypatch, "hallq.quiver.CyclicQuiver.enumerate_iso_classes",
             "hallq.verify.check_integration_homomorphism")
    started = time.perf_counter()
    code, _, err = run_cli(capsys, "verify", "integration",
                           "--config", write_config(tmp_path, max_total=-1))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "max_total" in err and "internal error" not in err
    with pytest.raises(ConfigError):
        CampaignConfig(max_total=-1).check()


@pytest.mark.parametrize("argv", [
    ["ez"], ["verify", "invariance"], ["verify", "cyclic"],
    ["verify", "hn-identity"], ["verify", "pentagon"], ["verify", "jacobian"],
])
def test_cli_torus_key_budget_refused_up_front(capsys, monkeypatch, argv):
    # C(24 + 4, 4) = 20,475 keys, just over the cap
    _refuse_work(monkeypatch, "_z_for_trial", "ez", "ez_factors", "dilog",
                 "integrate_iso_sum", "ordered_product", "random_restricted_discrete")
    code, _, err = run_cli(capsys, *argv, "--n", "4", "--trunc", "24")
    assert code == 2
    assert "20475 torus keys" in err


@pytest.mark.parametrize("argv", [
    ["stables"], ["hn", "--module", "S1"], ["hall", "S1", "S1"],
    ["verify", "integration"],
])
def test_cli_vertex_budget_refused_up_front(capsys, monkeypatch, argv):
    _refuse_work(monkeypatch, "_z_for_trial", "stable_objects", "hn_filtration",
                 "hall_polynomials", "check_integration_homomorphism", "CyclicQuiver")
    started = time.perf_counter()
    code, _, err = run_cli(capsys, *argv, "--n", str(10 ** 9), "--trunc", "2",
                           "--seed", "0")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert f"exceeds the vertex budget {MAX_VERTICES}" in err


@pytest.mark.parametrize("via_config", [False, True])
def test_cli_trial_budget_refused_up_front(capsys, monkeypatch, tmp_path, via_config):
    _refuse_work(monkeypatch, "_z_for_trial", "ez_factors", "ordered_product")
    trials = MAX_TRIALS + 1
    args = (["--config", write_config(tmp_path, n=4, truncation=8, trials=trials)]
            if via_config else ["--n", "4", "--trunc", "8", "--trials", str(trials)])
    started = time.perf_counter()
    code, _, err = run_cli(capsys, "verify", "invariance", *args)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert f"trials 1001 exceeds the trial budget {MAX_TRIALS}" in err


def test_trial_budget_bounds():
    assert MAX_TRIALS == 1_000
    CampaignConfig(n=4, truncation=8, trials=MAX_TRIALS).check("invariance")
    with pytest.raises(BudgetError, match="trial budget"):
        CampaignConfig(n=4, truncation=8, trials=MAX_TRIALS + 1).check("invariance")


def test_vertex_budget_bounds():
    assert MAX_VERTICES == 32
    CampaignConfig(n=MAX_VERTICES).check("stables")
    with pytest.raises(BudgetError, match="vertex budget"):
        CampaignConfig(n=MAX_VERTICES + 1).check("hall")


def test_torus_key_budget_bounds():
    assert TORUS_KEY_BUDGET == 20_000
    CampaignConfig(n=6, truncation=12).check("ez")  # 18,564 keys
    CampaignConfig(n=10).check()  # hall tables have no torus cap
    CampaignConfig(n=10).check("stables")
    with pytest.raises(BudgetError, match="more than"):
        CampaignConfig(n=10 ** 6, truncation=2 * 10 ** 6).check("ez")


# ----------------------------------------------------------------------
# Interpolation primes are capped before primality is tested
# ----------------------------------------------------------------------

@pytest.fixture
def no_override(monkeypatch):
    monkeypatch.delenv("HALLQ_BUDGET_OVERRIDE", raising=False)
    return monkeypatch


def test_cli_huge_prime_refused_before_primality_test(capsys, no_override):
    started = time.perf_counter()
    code, _, err = run_cli(capsys, "hall", "S1", "S1", "--n", "2",
                           "--primes", "2,1000000000000000003")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "HALLQ_BUDGET_OVERRIDE" in err and "Traceback" not in err


def test_cli_holdout_prime_above_cap_refused(capsys, no_override):
    code, _, err = run_cli(capsys, "hall", "S1", "S1", "--n", "2",
                           "--primes", "2,3,5,7,11,13")
    assert code == 2
    assert "holdout prime 17" in err and "HALLQ_BUDGET_OVERRIDE" in err


def test_cli_prime_cap_widened_by_override(capsys, no_override):
    no_override.setenv("HALLQ_BUDGET_OVERRIDE", "4,17")
    code, out, _ = run_cli(capsys, "hall", "S1", "S1", "--n", "2",
                           "--primes", "2,3,5,7,11,13")
    assert code == 0
    nodes = json.loads(out)["report"]["polynomials"][0]["nodes"]
    assert [p for p, _ in nodes] == [2, 3, 5, 7, 11, 13, 17]


def test_cli_default_primes_within_cap(capsys, no_override):
    code, _, _ = run_cli(capsys, "hall", "S1", "S1", "--n", "2")
    assert code == 0


# ----------------------------------------------------------------------
# Fuzz of the command-line and config surface
# ----------------------------------------------------------------------

FUZZ_COMMANDS = (
    [["stables"], ["ez"], ["hn", "--module", "R1,2"], ["hn", "--module", "S1+S2"],
     ["hall", "S1", "S2"], ["hall", "R1,2", "S1"], ["hall", "0", "R2,1"],
     ["hall", "S1", "R0,1"]]
    + [["verify", campaign] for campaign in sorted(CAMPAIGNS)])
FLAGS = {"n": "--n", "truncation": "--trunc", "trials": "--trials",
         "seed": "--seed", "bound": "--bound", "primes": "--primes",
         "sabotage": "--sabotage"}
JUNK = st.sampled_from([2.7, True, None, "3", "x", [2], {"a": 1}, -1, 0])
HUGE = st.integers(10 ** 12, 10 ** 30)
GOOD_PRIMES = st.lists(st.sampled_from((2, 3, 5, 7, 11)), min_size=2, max_size=4,
                       unique=True)
BAD_PRIMES = st.sampled_from([[], [3], [2, 2], [2, 4], [1, 3], [2, 13], ["2", 3],
                              [2, 10 ** 18 + 3], "2,3", "2,x", "2,,3"])
GOOD_CHARGES = st.just([["2", "1"], ["-2", "1"], ["1", "2"]])
BAD_CHARGES = st.sampled_from([
    [["1", "1"], ["1", "1"], ["1", "1"]], [["1", "1"]], [["a", "1"], ["1", "1"]],
    [["1", "-1"], ["1", "1"], ["1", "1"]], [["1/0", 1], [1, 1]], [[1e400, 1], [1, 1]],
    "nope"])
SABOTAGE = st.sampled_from(sorted({m for ms in SABOTAGE_MODES.values() for m in ms}))


@st.composite
def fuzz_invocations(draw):
    """(argv, config dict).  Each value is well-formed nine times in ten.
    n, truncation, trials and max_total are always set, so that a
    well-formed draw stays small; large integers go only where they must
    be refused before any work: n for every command, one time in ten (the
    vertex budget), n in 16..MAX_VERTICES with max_total 3 or 4 for
    integration, one time in three (the pair budget), and truncation for the
    torus commands (the key budget)."""

    def pick(good, bad):
        return draw(bad if draw(st.integers(0, 9)) == 0 else good)

    command = draw(st.sampled_from(FUZZ_COMMANDS))
    torus = command[0] == "ez" or command[-1] in TORUS_COMMANDS
    huge = HUGE if torus else st.nothing()
    huge_n = draw(st.integers(0, 9)) == 0
    wide = command[-1] == "integration" and draw(st.integers(0, 2)) == 0
    values = {
        "n": (draw(HUGE) if huge_n else draw(st.integers(16, MAX_VERTICES)) if wide
              else pick(st.integers(2, 3), JUNK)),
        "truncation": pick(st.integers(1, 4), st.one_of(JUNK, huge)),
        "trials": pick(st.integers(1, 2), JUNK),
        "max_total": pick(st.integers(3, 4) if wide else st.integers(0, 2),
                          st.one_of(JUNK, HUGE)),
    }
    optional = {
        "seed": (st.integers(0, 20), st.one_of(JUNK, HUGE)),
        "bound": (st.integers(1, 8), st.one_of(JUNK, HUGE)),
        "primes": (GOOD_PRIMES, BAD_PRIMES),
        "sabotage": (SABOTAGE, st.just("bogus")),
        "charges": (GOOD_CHARGES, BAD_CHARGES),
    }
    for key, (good, bad) in optional.items():
        if draw(st.booleans()):
            values[key] = pick(good, bad)
    argv, config = list(command), {}
    for key, value in values.items():
        if key in FLAGS and draw(st.booleans()):
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += [FLAGS[key], text]
        else:
            config[key] = value
    return argv, config


@settings(max_examples=200, deadline=None)
@given(fuzz_invocations())
def test_cli_fuzz_exit_codes_and_no_traceback(invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--config", path])
            except SystemExit as exit_:  # argparse rejects a malformed flag
                code = exit_.code
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", FUZZ_COMMANDS, ids=" ".join)
def test_cli_huge_n_refused_by_every_command(capsys, command):
    # the fuzz rarely pairs a huge n with otherwise well-formed values
    started = time.perf_counter()
    code, _, err = run_cli(capsys, *command, "--n", str(10 ** 12), "--trunc", "2",
                           "--seed", "0", "--trials", "1")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "budget" in err and "Traceback" not in err
