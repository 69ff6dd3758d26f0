"""List the functions of src/hallq that no command reaches.

Runs, in one process under ``sys.settrace``, every command line of
``tests/test_golden_reports.GOLDEN`` and every ``commands`` and ``probes``
entry of ``perfbench/workloads.json`` (read only, ``{seed}`` set to 0),
and records each function of src/hallq that a call enters.  Then prints
``file:line name`` for every ``def`` in src/hallq that none entered, one
per line, and their count.  A function listed here is reached only by
tests, if at all.  The report is not a gate: the exit code is 0.

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
    for path, line, name in missed:
        print(f"{Path(path).relative_to(ROOT)}:{line} {name}")
    print(f"{len(missed)} of {len(every)} functions in src/hallq entered by none of "
          f"{len(lines)} command lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
