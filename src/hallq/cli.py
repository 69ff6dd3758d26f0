"""Command-line driver.

Exit codes: 0 all assertions pass, 1 a mathematical comparison failed
(report carries a witness), 2 invalid input, configuration, or budget,
3 an internal fault (one ``internal error:`` line on stderr, no
traceback).  A reader that closes standard output early (``| head``)
truncates the printed report but does not change the exit code.
Reports are one line of compact JSON with sorted keys; wall-clock time
lives in a separate top-level field so the "report" subtree is
byte-stable per seed.

A plain command line (exact long flags, each with a value, `--verbose`
and the command's positionals) is read by `_plain_args` in one pass
over argv.  Anything else, help and every error included, goes to the
argparse parser of `build_parser`, which imports `argparse` and is also
the oracle of that fast path, so help texts, error messages and exit
codes are argparse's.  One flag table, `_FLAGS`, feeds both.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional, Tuple

from .exact import PhaseDomainError
from .hall import BudgetError, InterpolationError
from .quiver import CyclicQuiver, ModuleIso
from .stability import NotDiscreteError, StabilityFunction
from .verify import (CAMPAIGNS, CampaignConfig, ConfigError, campaign_stables,
                     ez_report, hall_table, hn_report)

if TYPE_CHECKING:
    import argparse

_MODULE_TOKEN = re.compile(r"^(?:[Ss](\d+)|[Rr](\d+),(\d+))$")

# Cap on the total length of a parsed module; the work of `hn` and of
# the dimension vectors grows with it.
MAX_MODULE_LENGTH = 100_000

# Exceptions that mean the input is at fault (exit 2); NotDiscreteError
# is raised for explicit charges with two stable objects of equal phase.
INPUT_ERRORS = (ConfigError, BudgetError, InterpolationError, PhaseDomainError,
                NotDiscreteError)


def parse_module(text: str, q: CyclicQuiver) -> ModuleIso:
    """Parse 'S1', 'R1,2', sums like 'S1+R2,3', or '0'."""
    text = text.strip()
    if text == "0":
        return ModuleIso.zero()
    parts = []
    for token in text.split("+"):
        m = _MODULE_TOKEN.match(token.strip())
        if m is None:
            raise ConfigError(
                f"cannot parse module {token!r}; use S<i>, R<i>,<l>, '+', or '0'")
        if m.group(1) is not None:
            parts.append(q.simple(int(m.group(1))))
        elif int(m.group(3)) < 1:
            raise ConfigError(f"module {token.strip()!r} has length 0; lengths are positive")
        else:
            parts.append(q.R(int(m.group(2)), int(m.group(3))))
    total = sum(r.length for r in parts)
    if total > MAX_MODULE_LENGTH:
        raise BudgetError(f"module {text!r} has total length {total}; "
                          f"the budget is {MAX_MODULE_LENGTH}")
    return ModuleIso.of(*parts)


def _parse_primes(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(",") if x)
    except ValueError:
        raise ConfigError(f"cannot parse prime list {text!r}")


def _parse_charges(raw) -> StabilityFunction:
    try:
        pairs = [(Fraction(re_), Fraction(im)) for re_, im in raw]
    except (TypeError, ValueError, ArithmeticError) as err:
        raise ConfigError(f"bad charges entry: {err}")
    if len(pairs) < 2:
        raise ConfigError(f"charges need one entry per vertex, n >= 2; got {len(pairs)}")
    return StabilityFunction.of(pairs)


# The value flags every command takes: (flag, dest, type, help).
_FLAGS = (
    ("--n", "n", int, "number of vertices (default 3)"),
    ("--trunc", "trunc", int, "total-degree bound (default 2n)"),
    ("--trials", "trials", int, "random trials (default 10)"),
    ("--seed", "seed", int, "base seed for random charges"),
    ("--bound", "bound", int, "max numerator for random charges"),
    ("--config", "config", str, "JSON file with the same keys as the flags"),
    ("--primes", "primes", str, "comma-separated interpolation primes"),
    ("--json", "json_out", str, "also write the report to FILE"),
    ("--sabotage", "sabotage", str, "deliberately break one ingredient"),
)
_MODULE_FLAG = ("--module", "module", str, "e.g. R1,4 or S1+S2")
# Each command's positionals, in order.
_POSITIONALS = {"stables": (), "hn": (), "ez": (), "hall": ("left", "right"),
                "verify": ("campaign",)}


def _add_common(sp: argparse.ArgumentParser) -> None:
    for flag, dest, type_, help_ in _FLAGS:
        sp.add_argument(flag, dest=dest, type=type_, help=help_,
                        metavar="FILE" if flag == "--json" else None)
    sp.add_argument("--verbose", action="store_true",
                    help="full diffs in witnesses instead of 20 terms")


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="hallq",
        description="Exact checks of dilogarithm identities from cyclic-quiver "
                    "stability functions")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stables", help="census of stable objects for one Z")
    _add_common(sp)

    sp = sub.add_parser("hn", help="filtration of a module by semistables")
    _add_common(sp)
    flag, dest, _, help_ = _MODULE_FLAG
    sp.add_argument(flag, dest=dest, required=True, help=help_)

    sp = sub.add_parser("ez", help="ordered dilogarithm product for one Z")
    _add_common(sp)

    sp = sub.add_parser("hall", help="counting polynomials for a sub/quotient pair")
    _add_common(sp)
    sp.add_argument("left", help="submodule type, e.g. S1")
    sp.add_argument("right", help="quotient type, e.g. S2")

    sp = sub.add_parser("verify", help="run a verification campaign")
    sp.add_argument("campaign", choices=sorted(CAMPAIGNS))
    _add_common(sp)
    return parser


def _plain_args(argv) -> Optional[SimpleNamespace]:
    """The namespace argparse would build for a plain command line, in one
    pass: exact long flags of the command, each followed by a value that
    does not start with '-', `--verbose`, and the command's positionals,
    in any order.  None for anything else (help, `--n=3`, abbreviations,
    `--`, negative values, a bad int, a missing or extra positional or
    `--module`), which argparse then parses or refuses."""
    if not argv or argv[0] not in _POSITIONALS:
        return None
    command = argv[0]
    flags = _FLAGS + (_MODULE_FLAG,) if command == "hn" else _FLAGS
    types = {flag: (dest, type_) for flag, dest, type_, _ in flags}
    values = {dest: None for _, dest, _, _ in flags}
    values.update(command=command, verbose=False)
    positionals = list(_POSITIONALS[command])
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--verbose":
            values["verbose"] = True
        elif token in types:
            dest, type_ = types[token]
            value = next(tokens, "-")  # a flag at the end has no value
            if value.startswith("-"):
                return None
            try:
                values[dest] = type_(value)
            except ValueError:
                return None
        elif token.startswith("-") or not positionals:
            return None
        else:
            values[positionals.pop(0)] = token
    if positionals or (command == "hn" and values["module"] is None):
        return None
    if command == "verify" and values["campaign"] not in CAMPAIGNS:
        return None
    return SimpleNamespace(**values)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _build_config(args, require_z_or_seed: bool = False) -> CampaignConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - {"n", "truncation", "trials", "seed", "bound",
                               "primes", "charges", "sabotage", "max_total"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def pick(flag, key, default):
        return flag if flag is not None else file_cfg.get(key, default)

    explicit_z: Optional[StabilityFunction] = None
    if "charges" in file_cfg:
        explicit_z = _parse_charges(file_cfg["charges"])
    seed = pick(args.seed, "seed", None)
    if require_z_or_seed and explicit_z is None and seed is None:
        raise ConfigError("provide either charges in --config or a --seed")
    n = pick(args.n, "n", explicit_z.n if explicit_z else 3)
    primes = file_cfg.get("primes", (2, 3, 5, 7, 11))
    if args.primes is not None:
        primes = _parse_primes(args.primes)
    try:
        primes = tuple(primes)
    except TypeError:
        raise ConfigError(f"primes must be a list of integers, got {primes!r}")
    return CampaignConfig(
        n=n,
        truncation=pick(args.trunc, "truncation", None),
        trials=pick(args.trials, "trials", 10),
        seed=seed if seed is not None else 0,
        bound=pick(args.bound, "bound", 8),
        explicit_z=explicit_z,
        primes=primes,
        max_total=file_cfg.get("max_total", 4),
        sabotage=pick(args.sabotage, "sabotage", None),
        verbose=args.verbose,
    )


def _dispatch(args) -> Tuple[bool, dict]:
    if args.command == "stables":
        return campaign_stables(_build_config(args, require_z_or_seed=True))
    if args.command == "hn":
        cfg = _build_config(args).check()
        return hn_report(cfg, parse_module(args.module, CyclicQuiver(cfg.n)))
    if args.command == "ez":
        return ez_report(_build_config(args))
    if args.command == "hall":
        cfg = _build_config(args).check()
        q = CyclicQuiver(cfg.n)
        return hall_table(cfg, parse_module(args.left, q),
                          parse_module(args.right, q))
    if args.command == "verify":
        return CAMPAIGNS[args.campaign](_build_config(args))
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        ok, payload = _dispatch(args)
    except INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        # a broken invariant is the program's fault, not the input's
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - started
    text = json.dumps({"report": payload, "timing_seconds": round(elapsed, 6)},
                      sort_keys=True)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`| head`): the printed report is
        # truncated, the verdict stands; later flushes go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as err:
            print(f"error: cannot write report: {err}", file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
