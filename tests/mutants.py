"""Mutation check: each recorded mutant must make its named tests fail.

Run from anywhere with ``python tests/mutants.py`` (stdlib only; pytest
and hypothesis must be importable, as for the test suite).  For each
mutant it checks that the old text occurs exactly once in its file,
applies the mutant to a temporary copy of the repository and runs the
named tests there, with hypothesis at a fixed seed and no bytecode cache
(a cached module could outlive its mutant).  A mutant is caught when
every named test fails.  The unmutated copy must pass all the named
tests first, so that a failure means the mutant, not the tree.  Exit
status 0: every mutant caught; 1: a mutant survived, or the old text or
the baseline was wrong.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, exact old text, new text, test ids that must fail)
MUTANTS = [
    # the fold test sums every i-th coefficient: a wrong stride
    ("src/hallq/exact.py", "sum(p[j::i])", "sum(p[j::i + 1])",
     ["tests/test_exact.py::test_fold_test_passes_every_multiple_of_phi",
      "tests/test_exact.py::test_fold_test_agrees_with_exact_division",
      "tests/test_exact.py::test_fold_test_agrees_on_near_multiples"]),
    # the fold test without its division: only a zero fold would pass
    ("src/hallq/exact.py", "if len(r) < len(phi):", "if True:",
     ["tests/test_exact.py::test_fold_test_passes_every_multiple_of_phi",
      "tests/test_exact.py::test_fold_test_agrees_with_exact_division",
      "tests/test_exact.py::test_fold_test_agrees_on_near_multiples"]),
    # the certificate always answers "does not divide": no Phi_i is ever
    # divided out, so cancelling sums are left out of lowest terms
    ("src/hallq/exact.py", "v % phi_x == 0", "False",
     ["tests/test_exact.py::test_fold_test_passes_every_multiple_of_phi",
      "tests/test_exact.py::test_certificate_rejects_only_what_the_fold_test_rejects",
      "tests/test_exact.py::test_cancelling_sums_test_each_factor_that_divides_and_no_other",
      "tests/test_exact.py::test_cyclo_sum_cancels_to_canonical_form"]),
    # the value at X is not divided after a division: still exact, since
    # a stale value only rules out less, but a squared Phi_i that cancels
    # once gets a second fold test
    ("src/hallq/exact.py", "v //= phi_x", "v = v",
     ["tests/test_exact.py::test_fold_test_passes_every_multiple_of_phi",
      "tests/test_exact.py::test_cancelling_sums_test_each_factor_that_divides_and_no_other"]),
    # a single-term group of the kernel added without its shift s - lo
    ("src/hallq/exact.py", "at = s - lo", "at = 0",
     ["tests/test_exact.py::test_cyclo_sum_matches_rational_function_sum",
      "tests/test_exact.py::test_cancelling_sums_test_each_factor_that_divides_and_no_other",
      "tests/test_exact.py::test_factored_results_agree_with_the_constructor"]),
    # the element digest keys a factored coefficient's rendering on its
    # numerator alone, so values over other denominators share it
    ("src/hallq/verify.py", "(c.num.t_low, c.num._ints, c._exps)", "(c.num.t_low, c.num._ints)",
     ["tests/test_verify_cli.py::test_element_digest_matches_the_nested_dump"]),
    # the kernel term of convolve without its twist t^lambda
    ("src/hallq/torus.py", "sa + sb + sum(map(mul, d, r)),", "sa + sb,",
     ["tests/test_torus.py::test_convolve_matches_reference_on_random_cyclotomic_elements",
      "tests/test_torus.py::test_convolve_products_with_unit_coefficients_match_the_reference",
      "tests/test_torus.py::test_ez_agrees_with_the_torus_at_a_point",
      "tests/test_torus.py::test_inverse_and_translate_agree_with_the_torus_at_a_point",
      "tests/test_torus.py::test_pentagon_residuals_agree_with_the_torus_at_a_point"]),
    # the numerator-1 shortcut of convolve keeps the 1, not the other side
    # (a dilogarithm chain never meets it: its left numerator is 1 only
    # while the right one is 1 too; a product with an inverse does)
    ("src/hallq/torus.py", "nb if na == (1,) else", "na if na == (1,) else",
     ["tests/test_torus.py::test_convolve_matches_reference_on_random_cyclotomic_elements",
      "tests/test_torus.py::test_convolve_products_with_unit_coefficients_match_the_reference",
      "tests/test_torus.py::test_pentagon_residuals_agree_with_the_torus_at_a_point"]),
    # convolve passes a coefficient 1 * c through even where other terms
    # reached its key too, dropping them
    ("src/hallq/torus.py", "passed[f] if len(terms) == 1 and f in passed else",
     "passed[f] if f in passed else",
     ["tests/test_torus.py::test_convolve_with_unit_constant_terms_matches_the_reference",
      "tests/test_torus.py::test_ez_products_match_pair_by_pair_reference"]),
    # the stable census admits a subobject of equal phase
    ("src/hallq/stability.py", "_cross(top, c) > 0", "_cross(top, c) >= 0",
     ["tests/test_stability.py::test_census_matches_definition"]),
    # the stable census in (length, socle) order, not by decreasing phase:
    # the invariance and cyclic identities fail, also in the point torus
    ("src/hallq/stability.py", "found = sort_by_decreasing_phase(sorted(found), itemgetter(2))",
     "found = sorted(found)",
     ["tests/test_torus.py::test_campaign_identities_hold_at_a_point",
      "tests/test_acceptance.py::test_criterion_03_product_independent_of_z",
      "tests/test_acceptance.py::test_criterion_04_cyclic_symmetry"]),
    # Hom dimensions over runs without the left multiplicity (the End
    # dimension of a module as the sum of the run table; the |Aut M| step
    # reads single summands)
    ("src/hallq/quiver.py", "row.append(ma * mb *", "row.append(mb *",
     ["tests/test_quiver.py::test_aut_factors_match_the_counts_formula",
      "tests/test_quiver.py::test_end_dim"]),
    # the iso-class walk's |Aut M| step subtracts 1, not the multiplicity m
    ("src/hallq/quiver.py", "ends[i] - m", "ends[i] - 1",
     ["tests/test_torus.py::test_integrate_iso_sum_matches_per_class_sum",
      "tests/test_torus.py::test_integrate_iso_sum_matches_the_nilpotent_orbit_count",
      "tests/test_torus.py::test_semistable_phase_factors_match_per_class_sum",
      "tests/test_quiver.py::test_aut_factors_match_the_counts_formula"]),
    # the multiset walk does not carry a multiplicity over to a repeated part
    ("src/hallq/quiver.py", "m = m + 1 if i == last else 1", "m = 1",
     ["tests/test_torus.py::test_integrate_iso_sum_matches_per_class_sum",
      "tests/test_torus.py::test_semistable_phase_factors_match_per_class_sum"]),
    # integrate_modules ignores its weights
    ("src/hallq/torus.py", "w.t_low - 2 * e, w._ints)", "-2 * e, (1,))",
     ["tests/test_hall.py::test_integration_lhs_equals_the_per_class_sum",
      "tests/test_acceptance.py::test_criterion_08_integration_catalog"]),
    # the gcd-free inverse keeps the t-shift of the numerator
    ("src/hallq/exact.py", "_normal_form(-n.t_low,", "_normal_form(n.t_low,",
     ["tests/test_exact.py::test_rf_inverse_equals_the_swapped_construction",
      "tests/test_torus.py::test_inverse_with_nontrivial_constant",
      "tests/test_torus.py::test_inverse_and_translate_agree_with_the_torus_at_a_point"]),
    # the multiset walk jumps to the next heavier part, not the next
    # lighter one (the per-class sums of test_torus.py enumerate their
    # classes by the same walk; the recursion of test_quiver.py and the
    # orbit count, which enumerates no class, tell the difference)
    ("src/hallq/quiver.py", "weights[later[-1]] >= weights[i]", "weights[later[-1]] <= weights[i]",
     ["tests/test_quiver.py::test_multisets_with_budget_keeps_the_recursive_order",
      "tests/test_torus.py::test_integrate_iso_sum_matches_the_nilpotent_orbit_count"]),
    # the full count hands the kernel each dimension vector's terms in
    # walk order, so rotated and reversed dimension vectors miss the memo
    ("src/hallq/torus.py", "in sorted(counts.items()):", "in counts.items():",
     ["tests/test_torus.py::test_integrate_iso_sum_reduces_each_dihedral_orbit_once"]),
    # the iso-class sum reduces each orbit representative but does not
    # copy its coefficient to the rest of the orbit
    ("src/hallq/torus.py", "for d in members:", "for d in members[:1]:",
     ["tests/test_torus.py::test_integrate_iso_sum_matches_the_full_count",
      "tests/test_torus.py::test_integrate_iso_sum_matches_per_class_sum"]),
    # the ks digit of multiplicity m written at m, read at m - 1 (the
    # full count shares the ks code, so the per-class sums catch it)
    ("src/hallq/torus.py", "copies = [0] + [top * base ** k for k in range(truncation)]",
     "copies = [top * base ** k for k in range(truncation + 1)]",
     ["tests/test_torus.py::test_integrate_iso_sum_matches_per_class_sum",
      "tests/test_torus.py::test_iso_class_walk_matches_integrate_modules",
      "tests/test_torus.py::test_semistable_phase_factors_match_per_class_sum"]),
    # the census's key table keyed on (n, dims) alone, so that modules of
    # one dimension vector share it
    ("src/hallq/hall.py", "_pair_table(n, dims, tuple(comps))", "_pair_table(n, dims, ())",
     ["tests/test_hall.py::test_census_matches_reference"]),
    # RationalFunction.to_json hands out the cached denominator rendering
    # itself, not a fresh list of it
    ("src/hallq/exact.py", '"coeffs": list(_den_strs(den._ints))',
     '"coeffs": _den_strs(den._ints)',
     ["tests/test_exact.py::test_rf_to_json_hands_out_fresh_renderings"]),
    # the element digest's frame with a separator json.dumps does not write
    ("src/hallq/verify.py", '"dim": [', '"dim":[',
     ["tests/test_verify_cli.py::test_element_digest_matches_the_nested_dump"]),
    # the trusted rotation turned the other way
    ("src/hallq/torus.py", "d[k:] + d[:k]", "d[-k:] + d[:-k]",
     ["tests/test_torus.py::test_apply_translate_moves_support",
      "tests/test_torus.py::test_apply_translate_matches_the_checked_rotation",
      "tests/test_torus.py::test_inverse_and_translate_agree_with_the_torus_at_a_point"]),
    # the Gaussian binomial of the semisimple census off by one in its
    # numerator exponent
    ("src/hallq/hall.py", "p ** (d - i) - 1", "p ** (d - i + 1) - 1",
     ["tests/test_hall.py::test_semisimple_census_matches_the_chain_walk"]),
    # the shared image/landing table built as if the arrow map were zero
    ("src/hallq/hall.py", "_arrow_table(dims[v], dims[v - 1], rep.maps[v], p)",
     "_arrow_table(dims[v], dims[v - 1], tuple((0,) * dims[v] for _ in range(dims[v - 1])), p)",
     ["tests/test_hall.py::test_shared_census_tables_agree_cold_and_warm",
      "tests/test_hall.py::test_census_matches_reference",
      "tests/test_hall.py::test_census_counts_every_subrepresentation"]),
    # the shared signature table keyed without its meet slots
    ("src/hallq/hall.py", "_signature_table(dims[v], p, slots[v])",
     "_signature_table(dims[v], p, ())",
     ["tests/test_hall.py::test_shared_census_tables_agree_cold_and_warm",
      "tests/test_hall.py::test_census_matches_reference"]),
    # the meet dimension without clearing the pivots of the larger basis
    ("src/hallq/hall.py", "            if f:\n", "            if False:\n",
     ["tests/test_hall.py::test_meet_dim_matches_stacked_rank",
      "tests/test_hall.py::test_meet_dim_matches_stacked_rank_on_a_sample",
      "tests/test_hall.py::test_census_matches_reference",
      "tests/test_hall.py::test_census_counts_every_subrepresentation"]),
    # the field tuple of the value classes with their private caches in
    # it: StabilityFunction's `_scaled` holds lists, so hashing fails
    ("src/hallq/exact.py", 'if not k.startswith("_")])', '])',
     ["tests/test_package.py::test_hashes_are_those_of_the_field_tuples"]),
    # the binomial expansion of a cyclotomic denominator without its
    # division passes: the factors (t^d - 1)^a_d with a_d < 0 are left out
    ("src/hallq/exact.py", "for _ in range(-k):", "for _ in range(0):",
     ["tests/test_exact.py::test_cyclo_den_matches_the_product_of_phis",
      "tests/test_exact.py::test_cyclotomic_polynomials_multiply_to_t_power_minus_one",
      "tests/test_torus.py::test_ez_agrees_with_the_torus_at_a_point",
      "tests/test_torus.py::test_pentagon_residuals_agree_with_the_torus_at_a_point"]),
    # two factored coefficients always compare equal
    ("src/hallq/exact.py", "return self.num == other.num and self._exps == other._exps",
     "return True",
     ["tests/test_exact.py::test_factored_results_agree_with_the_constructor",
      "tests/test_verify_cli.py::test_sabotage_pentagon_reverse_residual",
      "tests/test_torus.py::test_torus_diff_reports_mismatches"]),
    # a value over 1 (from the constructor, inv, **, t_power, the
    # constants) holds the denominator 1, not the Phi-exponents (), so its
    # products go pair by pair
    ("src/hallq/exact.py", "if den is not None and den._ints == (1,):", "if False:",
     ["tests/test_exact.py::test_values_over_one_carry_the_empty_exponents",
      "tests/test_torus.py::test_benchmark_commands_never_take_the_reference_path",
      "tests/test_torus.py::test_ez_agrees_with_the_torus_at_a_point",
      "tests/test_torus.py::test_pentagon_residuals_agree_with_the_torus_at_a_point"]),
    # the constructor's normal form without the content gcd: 2/4 and
    # 2t/(2t^2 - 2) keep their common integer factor
    ("src/hallq/exact.py", "g = gcd(_icontent(a), _icontent(b))", "g = 1",
     ["tests/test_exact.py::test_constructor_gives_the_canonical_form",
      "tests/test_exact.py::test_rf_canonical_form_is_unique"]),
    # the pentagon compares residual2 with the left factorization first
    ("src/hallq/verify.py",
     "or _mismatch(cfg, residual1, left, comparison=residual)\n"
     "                   or _mismatch(cfg, residual2, left, comparison=residual)",
     "or _mismatch(cfg, residual2, left, comparison=residual)\n"
     "                   or _mismatch(cfg, residual1, left, comparison=residual)",
     ["tests/test_verify_cli.py::test_pentagon_compares_residual1_then_residual2_with_left"]),
    # the campaigns' one comparison by identity: equal but distinct
    # products become mismatches
    ("src/hallq/verify.py", "    if a == b:\n        return []", "    if a is b:\n        return []",
     ["tests/test_verify_cli.py::test_mismatch_is_one_witness_with_the_diff_capped_unless_verbose",
      "tests/test_verify_cli.py::test_campaign_cyclic",
      "tests/test_golden_reports.py::test_report_digest_is_pinned"]),
    # hall_count's scan of the census matches the sub type alone, so the
    # first quotient listed with that sub answers for every other
    ("src/hallq/hall.py", "if l == sub and m == quo:", "if l == sub:",
     ["tests/test_hall.py::test_hall_count_tells_quotients_of_one_sub_type_apart"]),
    # the argv fast path takes a flag's value that starts with a single
    # '-' (an option such as -h, or the stand-in for a missing value)
    ("src/hallq/cli.py", 'if value.startswith("-"):', 'if value.startswith("--"):',
     ["tests/test_verify_cli.py::test_plain_args_agrees_with_argparse"]),
    # the argv fast path takes any word as the campaign
    ("src/hallq/cli.py", 'if command == "verify" and values["campaign"] not in CAMPAIGNS:',
     "if False:",
     ["tests/test_verify_cli.py::test_plain_args_agrees_with_argparse"]),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".benchmarks")
TIMEOUT_S = 600


def run_tests(tree: Path, ids) -> tuple:
    """(pytest exit status, ids reported FAILED) for the tests `ids` in `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *ids],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, set()
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")}
    return proc.returncode, failed


def failed_all(ids, failed) -> bool:
    """Whether each id, or one of its parametrized cases, failed."""
    return all(any(f == i or f.startswith(i + "[") for f in failed) for i in ids)


def main() -> int:
    ok = True
    for path, old, _, _ in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            print(f"BAD     {path}: {old!r} occurs {count} times, not once")
            ok = False
    if not ok:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        every = sorted({i for *_, ids in MUTANTS for i in ids})
        code, failed = run_tests(tree, every)
        if code != 0:
            print(f"BAD     baseline: exit {code}, failed {sorted(failed)}")
            return 1
        for path, old, new, ids in MUTANTS:
            target = tree / path
            original = target.read_text()
            target.write_text(original.replace(old, new))
            try:
                code, failed = run_tests(tree, ids)
            finally:
                target.write_text(original)
            caught = code == 1 and failed_all(ids, failed)
            ok = ok and caught
            print(f"{'caught ' if caught else 'SURVIVED'} {path}: {old!r} -> {new!r}"
                  + ("" if caught else f" (exit {code}, failed {sorted(failed)})"))
    print(f"{'all' if ok else 'NOT all'} {len(MUTANTS)} mutants caught")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
