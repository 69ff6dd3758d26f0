"""Acceptance checks, one per criterion, each printing a pass/fail line.

Every comparison is exact (integer or rational arithmetic); the asserted
wall-clock caps are the contractual limits, far above observed runtimes.
"""

import itertools
import time
from fractions import Fraction

from hallq.cli import main
from hallq.exact import GaussianRational
from hallq.oracles import count_automorphisms, hom_ext_oracle
from hallq.quiver import CyclicQuiver, ModuleIso
from hallq.stability import (
    StabilityFunction,
    check_discrete,
    delta_stable_via_ci,
    is_stable,
    random_discrete,
    stable_objects,
)
from hallq.verify import (
    CampaignConfig,
    campaign_hn_identity,
    campaign_integration,
    campaign_invariance,
    campaign_cyclic,
    campaign_jacobian,
    campaign_pentagon,
)


# criterion number -> (ok, seconds, detail); the conftest summary hook
# prints one line per entry after the run
RESULTS = {}


def announce(num: int, ok: bool, elapsed: float, detail: str = "") -> None:
    RESULTS[num] = (ok, elapsed, detail)
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"acceptance criterion {num:2d}: {status} in {elapsed:.2f}s{tail}",
          flush=True)


def g(re, im):
    return GaussianRational(Fraction(re), Fraction(im))


def test_criterion_01_reference_stable_set():
    started = time.monotonic()
    z = StabilityFunction(3, (g(2, 1), g(-2, 1), g(1, 2)))
    q = CyclicQuiver(3)
    discrete, _ = check_discrete(z)
    report = stable_objects(z)
    expected = {q.simple(1), q.simple(2), q.simple(3), q.R(1, 2), q.R(3, 3)}
    ok = discrete and set(report.stables) == expected
    elapsed = time.monotonic() - started
    announce(1, ok, elapsed, "stable set of the reference function")
    assert ok
    assert elapsed < 1


def test_criterion_02_census_properties():
    started = time.monotonic()
    failures = []
    for n in (2, 3, 4, 5):
        q = CyclicQuiver(n)
        for seed in range(100):
            z = random_discrete(n, seed)
            report = stable_objects(z)
            if any(r.length > n for r in report.stables):
                failures.append((n, seed, "long stable in census"))
            for socle in range(1, n + 1):
                for length in range(n + 1, 3 * n + 1):
                    if is_stable(z, q.R(socle, length)):
                        failures.append((n, seed, f"stable R({socle},{length})"))
            of_delta = [r for r in report.stables
                        if q.dim_of_indec(r) == q.delta]
            if len(of_delta) != 1:
                failures.append((n, seed, "delta-stable not unique"))
            elif delta_stable_via_ci(z) != of_delta[0]:
                failures.append((n, seed, "vertex-run mismatch"))
    elapsed = time.monotonic() - started
    announce(2, not failures, elapsed, "400 random censuses, n in 2..5")
    assert not failures, failures[:5]
    assert elapsed < 30


def test_criterion_03_product_independent_of_z():
    started = time.monotonic()
    results = {}
    for n in (2, 3):
        ok, payload = campaign_invariance(
            CampaignConfig(n=n, truncation=2 * n, trials=10, seed=0))
        results[n] = (ok, payload["witness"])
    elapsed = time.monotonic() - started
    ok = all(r[0] for r in results.values())
    announce(3, ok, elapsed, "10 functions per n in {2,3}, D = 2n")
    assert ok, results
    assert elapsed < 120


def test_criterion_04_cyclic_symmetry():
    started = time.monotonic()
    results = {}
    for n in (2, 3, 4):
        ok, payload = campaign_cyclic(
            CampaignConfig(n=n, truncation=2 * n, trials=1, seed=0))
        results[n] = (ok, payload["witness"])
    elapsed = time.monotonic() - started
    ok = all(r[0] for r in results.values())
    announce(4, ok, elapsed, "translation powers k = 1..n-1, n in {2,3,4}")
    assert ok, results
    assert elapsed < 120


def test_criterion_05_filtration_identity():
    started = time.monotonic()
    results = {}
    for n in (2, 3):
        for trunc in (4, 6):
            ok, payload = campaign_hn_identity(
                CampaignConfig(n=n, truncation=trunc, trials=5, seed=0))
            results[(n, trunc)] = (ok, payload["witness"])
    elapsed = time.monotonic() - started
    ok = all(r[0] for r in results.values())
    announce(5, ok, elapsed, "5 functions per (n, D) in {2,3} x {4,6}")
    assert ok, results
    assert elapsed < 300


def test_criterion_06_pentagon_residual():
    started = time.monotonic()
    ok, payload = campaign_pentagon(CampaignConfig(n=3, truncation=6, trials=1))
    shapes_ok = (
        payload["left_factors"] == [[1, 0, 0], [0, 1, 0]]
        and payload["right_factors"] == [[0, 1, 0], [1, 1, 0], [1, 0, 0]]
    )
    elapsed = time.monotonic() - started
    announce(6, ok and shapes_ok, elapsed,
             "E(e1)E(e2) = E(e2)E(e1+e2)E(e1) at degree 6")
    assert ok, payload["witness"]
    assert shapes_ok, payload
    assert elapsed < 60


def test_criterion_07_quotient_category_products():
    started = time.monotonic()
    ok, payload = campaign_jacobian(
        CampaignConfig(n=3, truncation=6, trials=10, seed=0))
    elapsed = time.monotonic() - started
    announce(7, ok, elapsed, "10 perturbed short-stable products agree")
    assert ok, payload["witness"]
    assert elapsed < 120


def test_criterion_08_integration_catalog():
    started = time.monotonic()
    results = {}
    for n in (2, 3):
        ok, payload = campaign_integration(
            CampaignConfig(n=n, truncation=2 * n, max_total=4,
                           primes=(2, 3, 5, 7, 11)))
        results[n] = (ok, payload["pairs_checked"], payload["witness"])
    elapsed = time.monotonic() - started
    ok = all(r[0] for r in results.values())
    pairs = sum(r[1] for r in results.values())
    announce(8, ok, elapsed,
             f"{pairs} pairs, primes 2..11 validated at 13")
    assert ok, results
    assert elapsed < 300


def hom_dim(q, a, b):
    """dim Hom(a, b) of two uniserials, from the table `aut_exponents` runs."""
    return q._hom_table([(a.socle, a.length, 1)], [(b.socle, b.length, 1)])[0][0]


def test_criterion_09_oracle_agreement():
    started = time.monotonic()
    failures = []
    for n in (2, 3, 4):
        q = CyclicQuiver(n)
        indecs = q.enumerate_indecomposables(2 * n)
        for a, b in itertools.product(indecs, repeat=2):
            hom, ext = hom_ext_oracle(q, ModuleIso.of(a), ModuleIso.of(b))
            if hom != hom_dim(q, a, b):
                failures.append(("hom", n, a, b))
            da, db = q.dim_of_indec(a), q.dim_of_indec(b)
            if hom - ext != q.euler_form(da, db):
                failures.append(("euler", n, a, b))
        for m in q.enumerate_iso_classes(3):
            if m.is_zero:
                continue
            for p in (2, 3):
                if count_automorphisms(q, m, p) != q.aut_poly(m).eval_even_at_q(p):
                    failures.append(("aut", n, m, p))
    elapsed = time.monotonic() - started
    announce(9, not failures, elapsed,
             "hom/ext ranks, Euler form, Aut counts, n in 2..4")
    assert not failures, failures[:5]
    assert elapsed < 120


def test_criterion_10_sabotage_modes_fail(capsys):
    started = time.monotonic()
    codes = {
        "delta-factor": main(["verify", "invariance", "--n", "3",
                              "--trunc", "4", "--trials", "2",
                              "--sabotage", "include-delta"]),
        "order-reversed": main(["verify", "invariance", "--n", "3",
                                "--trunc", "4", "--trials", "2",
                                "--sabotage", "reverse-order"]),
        "twist-flipped": main(["verify", "hn-identity", "--n", "3",
                               "--trunc", "4", "--trials", "1",
                               "--sabotage", "flip-twist"]),
    }
    capsys.readouterr()
    elapsed = time.monotonic() - started
    ok = all(code == 1 for code in codes.values())
    announce(10, ok, elapsed, "all three mutations exit 1")
    assert ok, codes
    assert elapsed < 60
