"""List the functions of src/hallq that no command reaches.

Runs, in one process under ``sys.settrace``, every command line of
``tests/test_golden_reports.GOLDEN`` and every ``commands`` and ``probes``
entry of ``perfbench/workloads.json`` (read only, ``{seed}`` set to 0),
and records each function of src/hallq that a call enters.  Then prints
``file:line name role`` for every ``def`` in src/hallq that none entered,
one per line, their count, and what each role means.  A function listed here is reached only by
tests, if at all, and stays only for the role that ``KEPT`` gives it.
Exit status 1 if an unreached def has no role in ``KEPT``, or if ``KEPT``
names a def that a command now reaches or that is gone; else 0.

    python tests/reach.py

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hallq"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hallq import cli  # noqa: E402
from test_golden_reports import GOLDEN  # noqa: E402


# What each role means.
ROLES = {
    "oracle": "a definition or slow path that tests check a fast path against",
    "oracle part": "called by an oracle, traced or printed def of this table",
    "traced": "perfbench/layertrace.py wraps it by name",
    "printed": "error messages and witnesses print it",
    "argparse": "the argparse path for help and errors",
    "input": "an input or error path that no golden command line takes",
    "value": "the value-class API that tests and demos build and compare values with",
}

# Each def that no command enters, as module.qualname, and its role.
KEPT = {
    "cli._parse_primes": "input",  # --primes
    "cli._parse_charges": "input",  # charges in --config
    "cli._parse_charge": "input",  # each charge text of _parse_charges
    "cli._add_common": "argparse",
    "cli.build_parser": "argparse",
    "exact.Immutable._astuple": "value",
    "exact.Immutable.__eq__": "value",
    "exact.Immutable.__hash__": "value",
    "exact.Immutable.__setattr__": "value",
    "exact.Immutable.__delattr__": "value",
    "exact.Immutable.__repr__": "printed",
    "exact.GaussianRational.cross": "oracle part",  # phase_cmp
    "exact.GaussianRational.__str__": "printed",
    "exact.phase_cmp": "oracle",
    "exact.LaurentPoly.zero": "value",
    "exact.LaurentPoly.one": "oracle part",  # aut_poly
    "exact.LaurentPoly.t_power": "value",
    "exact.LaurentPoly.q_power": "oracle part",  # aut_poly
    "exact.LaurentPoly.constant": "value",
    "exact.LaurentPoly.t_high": "oracle part",  # LaurentPoly.__add__
    "exact.LaurentPoly.coefficients": "value",
    "exact.LaurentPoly.coefficient": "value",
    "exact.LaurentPoly.__add__": "oracle part",  # QtFunction.__add__
    "exact.LaurentPoly.__sub__": "oracle part",  # aut_poly
    "exact.LaurentPoly.eval": "oracle",
    "exact.LaurentPoly.eval_even_at_q": "oracle",
    "exact.LaurentPoly.__hash__": "value",
    "exact.LaurentPoly.__bool__": "value",
    "exact.LaurentPoly.__str__": "printed",
    "exact.LaurentPoly.__repr__": "printed",
    "exact.RationalFunction.__init__": "traced",
    "exact.RationalFunction.zero": "value",
    "exact.RationalFunction.constant": "value",
    "exact.RationalFunction.t_power": "value",
    "exact.RationalFunction.__add__": "traced",
    "exact.RationalFunction.__sub__": "value",
    "exact.RationalFunction.__mul__": "traced",
    "exact.RationalFunction.eval": "oracle",
    "exact.RationalFunction.__hash__": "value",
    "exact.RationalFunction.__bool__": "value",
    "exact.RationalFunction.__str__": "printed",
    "exact.RationalFunction.__repr__": "printed",
    "hall.FiniteFieldRep.__init__": "oracle part",  # realize
    "hall.realize": "oracle part",  # the matrix route, both oracles, iso_class_of's inputs
    "hall.iso_class_of": "traced",
    "hall.hall_count": "oracle",  # of the nodes interpolate_hall reads
    "hall._lagrange": "oracle",
    "oracles._mat_mul": "oracle part",  # _composites
    "oracles._rref_mod": "oracle part",  # _rank_mod, _nullspace_mod, the census frame's test
    "oracles._rank_mod": "oracle part",  # _hom_profile, both oracles, the stacked-rank meets
    "oracles._nullspace_mod": "oracle part",  # count_automorphisms, the census frame's test
    "oracles._composites": "oracle",  # of the composite data of hall._census_frame
    "oracles._hom_profile": "oracle part",  # iso_class_of
    "oracles._int_rank": "oracle part",  # hom_ext_oracle
    "oracles._intertwiner_system": "oracle part",  # both oracles
    "oracles.hom_ext_oracle": "oracle",
    "oracles.count_automorphisms": "oracle",
    "oracles._iprimitive": "oracle",  # the Q(t) gcd, with the next three
    "oracles._ipseudo_rem": "oracle",
    "oracles._ipoly_gcd": "oracle",
    "oracles._icofactors": "oracle",
    "oracles.QtFunction.__init__": "oracle",  # the field Q(t), the ring's oracle
    "oracles.QtFunction.of": "oracle part",  # a ring value in the field
    "oracles.QtFunction.is_zero": "oracle part",  # TorusElement over the field
    "oracles.QtFunction.__add__": "oracle",
    "oracles.QtFunction.__neg__": "oracle",
    "oracles.QtFunction.__sub__": "oracle",
    "oracles.QtFunction.__mul__": "oracle",
    "oracles.QtFunction.inv": "oracle",
    "oracles._convolve_reference": "oracle",
    "quiver.ModuleIso.zero": "input",  # parse_module("0")
    "quiver.ModuleIso.__repr__": "printed",
    "quiver.ModuleIso.__str__": "printed",
    "quiver.CyclicQuiver.lambda_form": "oracle",
    "quiver.CyclicQuiver.aut_poly": "traced",
    "stability.is_stable": "oracle",
    "stability._draws_spent": "input",  # a spent draw budget
    "stability.translate_function": "oracle",
    "torus.TorusElement.__bool__": "value",
    "torus.TorusElement.__str__": "printed",
}


def command_lines(tmp: Path) -> list:
    """The golden command lines, then the workloads' commands and probes."""
    lines = []
    for argv, _, _ in GOLDEN:
        args = []
        for arg in argv:
            if isinstance(arg, dict):
                path = tmp / f"config{len(lines)}.json"
                path.write_text(json.dumps(arg))
                arg = str(path)
            args.append(arg)
        lines.append(args)
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    for spec in workloads["workloads"].values():
        for argv in spec["commands"] + spec.get("probes", []):
            lines.append([arg.replace("{seed}", "0") for arg in argv])
    return lines


def defs() -> list:
    """(file, first line, qualified name) of every def in src/hallq; the
    first line is that of the first decorator, as a code object counts it."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((str(path), first, prefix + child.name))
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)
        visit(ast.parse(path.read_text()), "")
    return out


def main() -> int:
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))

    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        lines = command_lines(Path(tmp))
        sys.settrace(trace)
        try:
            for argv in lines:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        cli.main(argv)
                    except SystemExit:
                        pass
        finally:
            sys.settrace(None)
    every = defs()
    missed = [(path, line, name) for path, line, name in every if (path, line) not in entered]
    keys = set()
    for path, line, name in missed:
        key = f"{Path(path).stem}.{name}"
        keys.add(key)
        print(f"{Path(path).relative_to(ROOT)}:{line} {name} {KEPT.get(key, 'NO ROLE')}")
    print(f"{len(missed)} of {len(every)} functions in src/hallq entered by none of "
          f"{len(lines)} command lines")
    for role, meaning in ROLES.items():
        print(f"{role}: {meaning}")
    stale = sorted(set(KEPT) - keys)
    for key in stale:
        print(f"KEPT names {key}, which a command reaches or which is gone")
    return 1 if stale or keys - set(KEPT) else 0


if __name__ == "__main__":
    sys.exit(main())
