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
    # a unit pass-through in convolve without its twist t^lambda
    ("src/hallq/torus.py", "units[f][0].shifted(units[f][1])", "units[f][0]",
     ["tests/test_torus.py::test_convolve_passes_unit_coefficients_through_with_their_twist"]),
    # the stable census admits a subobject of equal phase
    ("src/hallq/stability.py", "_cross(top, c) > 0", "_cross(top, c) >= 0",
     ["tests/test_stability.py::test_census_matches_definition"]),
    # Hom dimensions over runs without the left multiplicity (the End
    # dimension of a module through _hom_runs; the |Aut M| step reads
    # single summands)
    ("src/hallq/quiver.py", "row.append(ma * mb *", "row.append(mb *",
     ["tests/test_quiver.py::test_aut_factors_match_the_counts_formula",
      "tests/test_quiver.py::test_end_dim"]),
    # the iso-class walk's |Aut M| step subtracts 1, not the multiplicity m
    ("src/hallq/quiver.py", "ends[i] - m", "ends[i] - 1",
     ["tests/test_torus.py::test_integrate_iso_sum_matches_per_class_sum",
      "tests/test_torus.py::test_semistable_phase_factors_match_per_class_sum",
      "tests/test_quiver.py::test_aut_factors_match_the_counts_formula"]),
    # the multiset walk does not carry a multiplicity over to a repeated part
    ("src/hallq/quiver.py", "m = m + 1 if i == last else 1", "m = 1",
     ["tests/test_torus.py::test_integrate_iso_sum_matches_per_class_sum",
      "tests/test_torus.py::test_semistable_phase_factors_match_per_class_sum"]),
    # integrate_modules ignores its weights
    ("src/hallq/torus.py", "w.t_low - 2 * e, w._ints, w._den", "-2 * e, (1,), 1",
     ["tests/test_hall.py::test_integration_lhs_equals_the_per_class_sum",
      "tests/test_acceptance.py::test_criterion_08_integration_catalog"]),
    # the gcd-free inverse keeps the t-shift of the numerator
    ("src/hallq/exact.py", "_normal_form(-n.t_low,", "_normal_form(n.t_low,",
     ["tests/test_exact.py::test_rf_inverse_equals_the_swapped_construction",
      "tests/test_torus.py::test_inverse_with_nontrivial_constant"]),
    # the kernel's memo keyed without the shifts s of the terms
    ("src/hallq/exact.py", "(exps, s, tuple(a), da) for", "(exps, 0, tuple(a), da) for",
     ["tests/test_exact.py::test_cyclo_sum_memo_tells_every_key_field_apart"]),
    # the kernel's memo keyed without the integer denominators da
    ("src/hallq/exact.py", "(exps, s, tuple(a), da) for", "(exps, s, tuple(a), 1) for",
     ["tests/test_exact.py::test_cyclo_sum_memo_tells_every_key_field_apart"]),
    # the multiset walk jumps to the next heavier part, not the next
    # lighter one (the per-class sums of test_torus.py enumerate their
    # classes by the same walk, so only the recursion of test_quiver.py
    # tells the difference)
    ("src/hallq/quiver.py", "weights[later[-1]] >= weights[i]", "weights[later[-1]] <= weights[i]",
     ["tests/test_quiver.py::test_multisets_with_budget_keeps_the_recursive_order"]),
    # the census's key table keyed on (n, dims) alone, so that modules of
    # one dimension vector share it
    ("src/hallq/hall.py", "_pair_table(n, dims, tuple(comps))", "_pair_table(n, dims, ())",
     ["tests/test_hall.py::test_census_matches_reference"]),
    # the meet dimension without clearing the pivots of the larger basis
    ("src/hallq/hall.py", "            if f:\n", "            if False:\n",
     ["tests/test_hall.py::test_meet_dim_matches_stacked_rank",
      "tests/test_hall.py::test_meet_dim_matches_stacked_rank_on_a_sample",
      "tests/test_hall.py::test_census_matches_reference"]),
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
