"""The package surface: exported names, what a CLI launch imports, and
the immutable value classes."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hallq
from hallq import exact
from hallq.exact import GaussianRational, LaurentPoly, RationalFunction
from hallq.hall import Budget, HallPolynomial, realize
from hallq.quiver import CyclicQuiver, Indecomposable, ModuleIso
from hallq.stability import StabilityFunction, stable_objects
from hallq.verify import CampaignConfig


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(hallq)
    for name in hallq.__all__:
        assert getattr(hallq, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        hallq.no_such_name
    # the oracles are imported as hallq.oracles, never through the package
    with pytest.raises(AttributeError):
        hallq.hom_ext_oracle


def test_cli_import_leaves_out_dataclasses_and_the_oracles():
    probe = ("import sys, hallq; bare = 'hallq.oracles' in sys.modules; import hallq.cli; "
             "print(bare, sorted(m for m in ('dataclasses', 'hallq.oracles') if m in sys.modules))")
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(hallq.__file__).parents[1])))
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False []"


def test_cli_import_leaves_out_hashlib_and_the_element_digest_still_matches_it():
    # the digest's sha256 comes from the built-in module, so a launch does
    # not load hashlib and the OpenSSL binding _hashlib behind it
    probe = ("import sys, hallq.cli; "
             "print(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))")
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(hallq.__file__).parents[1])))
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
    import hashlib
    from hallq import verify
    blob = b'{"n": 2}'
    assert verify.sha256(blob).hexdigest() == hashlib.sha256(blob).hexdigest()


def test_plain_launch_leaves_out_argparse_and_help_still_comes_from_it():
    # a plain command line is read by the argv fast path; argparse, and
    # the gettext and locale it loads, come in only for help and errors
    probe = """
import contextlib, io, sys
start = set(sys.modules)
import hallq.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = hallq.cli.main(["stables", "--n", "3", "--seed", "0"])
print(code, sorted(m for m in ("argparse", "gettext", "locale")
                   if m in sys.modules and m not in start))
text = io.StringIO()
try:
    with contextlib.redirect_stdout(text):
        hallq.cli.main(["--help"])
except SystemExit as exit_:
    print(exit_.code, text.getvalue().startswith("usage: hallq"), "argparse" in sys.modules)
"""
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(hallq.__file__).parents[1])))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:2] == ["0 []", "0 True True"]


Q3 = CyclicQuiver(3)


def _pairs():
    """Two equal but distinct instances of each value class."""
    z = [(1, 1), (Fraction(-1, 2), 3), (2, Fraction(1, 3))]
    return [
        (GaussianRational(Fraction(1, 2), Fraction(3)),
         GaussianRational(Fraction(1, 2), Fraction(3))),
        (Indecomposable(2, 3), Indecomposable(2, 3)),
        (CyclicQuiver(3), CyclicQuiver(3)),
        (ModuleIso.of(Q3.R(2, 1), Q3.R(1, 2)), ModuleIso.of(Q3.R(1, 2), Q3.R(2, 1))),
        (StabilityFunction.of(z), StabilityFunction.of(z)),
        (CampaignConfig(n=4, primes=(2, 3)), CampaignConfig(4, None, 10, 0, 8, None, (2, 3))),
        (Budget(hall_prime=13), Budget(4, 13)),
        (HallPolynomial(ModuleIso.zero(), ModuleIso.zero(), ModuleIso.zero(), (1,), ((2, 1),)),
         HallPolynomial(ModuleIso.zero(), ModuleIso.zero(), ModuleIso.zero(), (1,), ((2, 1),))),
    ]


@pytest.mark.parametrize("a,b", _pairs(), ids=lambda x: type(x).__name__)
def test_equal_instances_are_equal_and_hash_equal(a, b):
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object() and a != 0


def test_hashes_are_those_of_the_field_tuples():
    # sets of these objects iterate in hash order, so the hashes must stay
    # those of the field tuples for the reports to keep their bytes
    g = GaussianRational(Fraction(1, 2), Fraction(3))
    r = Indecomposable(2, 3)
    m = ModuleIso.of(Q3.R(2, 1), Q3.R(1, 2))
    cfg = CampaignConfig(n=4)
    assert hash(g) == hash((g.re, g.im))
    assert hash(r) == hash((2, 3))
    assert hash(Q3) == hash((3,))
    assert hash(m) == hash(tuple(m))
    assert hash(cfg) == hash((4, None, 10, 0, 8, None, (2, 3, 5, 7, 11), 4, None, False))
    assert hash(Budget(hall_prime=13)) == hash((4, 13))
    rep = realize(Q3, m, 2)
    assert hash(rep) == hash((3, 2, rep.dims, rep.maps))
    h = HallPolynomial(ModuleIso.zero(), m, m, (1, 2), ((2, 3), (3, 9)))
    assert hash(h) == hash((ModuleIso.zero(), m, m, (1, 2), ((2, 3), (3, 9))))
    # the private `_scaled` of a stability function is a cache of its
    # charges: left out of the tuple, as a list it could not be hashed
    z = StabilityFunction.of([(1, 1), (Fraction(-1, 2), 3), (2, Fraction(1, 3))])
    assert hash(z) == hash((3, z.charges))
    report = stable_objects(z)
    assert hash(report) == hash((report.stables, report.delta_stable, report.gamma))
    # the coefficient classes hash their field tuples: a ring value, built
    # by the constructor or by the kernel, as (num, exponents), which fix
    # its denominator, and a second hash gives the same value
    p = LaurentPoly(-2, [3, 0, -4])
    built = RationalFunction(LaurentPoly(1, [2, 2]), ((1, 1), (2, 1)))  # 2t / (t - 1)
    kernel = exact._cyclo_sum.__wrapped__(((((1, 1), (2, 1)), 1, (1, -2, 3)),))
    assert built._exps == ((1, 1),) and kernel._exps == ((1, 1), (2, 1))
    for x in (p, built, kernel):
        first = hash(x)
        fields = (x.t_low, x._ints) if x is p else (x.num, x._exps)
        assert first == hash(fields) == hash(x)


@pytest.mark.parametrize("obj,field", [
    (CyclicQuiver(3), "n"),
    (GaussianRational(Fraction(1), Fraction(0)), "re"),
    (CampaignConfig(), "truncation"),
    (Indecomposable(1, 1), "length"),
    (StabilityFunction.of([(1, 1), (1, 2)]), "n"),
])
def test_fields_cannot_be_assigned_or_deleted(obj, field):
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) == before


def test_module_iso_cannot_be_changed():
    # a class is a tuple of its summands, with no instance dict
    m = ModuleIso.of(Q3.R(1, 2), Q3.simple(3))
    with pytest.raises(TypeError):
        m[0] = Q3.simple(1)
    with pytest.raises(TypeError):
        del m[0]
    with pytest.raises(AttributeError):
        m.extra = 1
    assert m == ModuleIso.of(Q3.simple(3), Q3.R(1, 2))


def test_check_fills_the_truncation_by_construction():
    cfg = CampaignConfig(n=4, trials=3, seed=7, primes=(2, 3), sabotage=None)
    checked = cfg.check()
    assert checked == CampaignConfig(n=4, truncation=8, trials=3, seed=7, primes=(2, 3))
    assert cfg.truncation is None


def test_one_budget_error_class():
    from hallq import hall, oracles, stability
    assert (hallq.BudgetError is exact.BudgetError is hall.BudgetError
            is oracles.BudgetError is stability.BudgetError)
