#!/usr/bin/env python3
"""Time-to-verdict benchmark for the hallq CLI.

    python3 perfbench/run.py --workload torus-products --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, one after another

A workload (workloads.json) is a list of `hallq` commands plus sabotage
probes.  They run as a closed loop with one client: each command in its
own fresh interpreter, so every `lru_cache` starts cold, one process at a
time.  A command passes when its exit code and the sha256 of its `report`
subtree equal the values recorded in expected.json.  Passes over the
workload repeat until the next one would end after `--seconds`.  Every
pass runs the same inputs.  Times are scaled to a fixed CPU speed with the
reference loop that each command times next to itself (see README.md).

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json;
with `--trace 1` one untraced pass is followed by traced passes and the
metrics are the per-layer ones.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
MARK = "\x1eperfbench "  # the same as child.MARK
COMMAND_TIMEOUT_S = 150
MIN_TRACED_PASSES = 2
# The reference loop of child.py took about this long when the shared CPU
# ran at its fastest (2-vCPU Intel Xeon at 2.0 GHz, Python 3.11.7).  Times
# are reported at this speed: a command's clock time is scaled by this over
# the reference time measured next to it.
REFERENCE_NOMINAL_S = 0.015
CENSUS_PRIMES = (2, 3, 5, 7, 11, 13)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load(name: str) -> dict:
    with open(BENCH_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics(kind: str) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as err:
        raise BenchError(f"cannot read BENCHMARK.json: {err}")
    return {m["name"]: m["unit"] for m in spec[kind]}


def command_lines(workload: dict, seed: int, pool: int) -> List[Tuple[List[str], bool]]:
    """(argv, is_probe) for the workload's commands, then its probes.

    A command with a `{seed}` argument runs once for each of the
    workload's `seed_offsets`, with `(seed + offset) % pool`: the seeds
    whose reports are recorded in expected.json.
    """
    lines = []
    for probe in (False, True):
        for argv in workload["probes" if probe else "commands"]:
            offsets = workload["seed_offsets"] if "{seed}" in argv else [0]
            for offset in offsets:
                cmd_seed = str((seed + offset) % pool)
                lines.append(([cmd_seed if arg == "{seed}" else arg for arg in argv],
                              probe))
    return lines


def parse_report(cli_output: str):
    """The `report` subtree of the CLI's output and its sha256, or Nones."""
    try:
        report = json.loads(cli_output)["report"]
    except (ValueError, KeyError, TypeError):
        return None, None
    blob = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
    return report, hashlib.sha256(blob).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("HALLQ_BUDGET_OVERRIDE", None)
    return env


def launch(mode: str, argv: List[str]) -> dict:
    """Run child.py in a fresh interpreter; return its exit code, timings
    (seconds), the CPU's speed next to the command, peak memory (MB),
    report digest and trace."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), mode, *argv],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": None, "digest": None}
    out, found, tail = proc.stdout.rpartition(MARK)
    if not found:
        sys.stderr.write(proc.stderr[-2000:])
        return {"rc": proc.returncode, "digest": None}
    info = json.loads(tail)
    report, digest = parse_report(out)
    result = {"rc": proc.returncode, "report": report, "digest": digest,
              "setup_s": info["ready"] - spawned,
              "rss_mb": info["rss_kb"] / 1024.0}
    if "ended" in info:
        result["verdict_s"] = info["ended"] - info["began"]
        result["speed"] = REFERENCE_NOMINAL_S / statistics.fmean(info["reference_s"])
    if "trace" in info:
        result["trace"] = info["trace"]
    return result


class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, argv: List[str], result: dict, expected: dict) -> bool:
        self.attempted += 1
        want = expected.get(" ".join(argv))
        if want is None:
            problem = "no recorded result"
        elif result["rc"] != want["rc"]:
            problem = f"exit code {result['rc']}, expected {want['rc']}"
        elif result["digest"] != want["report_sha256"]:
            problem = "report digest differs from the recorded one"
        else:
            return True
        self.failed += 1
        self.problems.append(f"hallq {' '.join(argv)}: {problem}")
        return False


def run_pass(lines: List[Tuple[List[str], bool]], expected: dict, tally: Tally,
             mode: str = "run") -> dict:
    """One pass over the workload: each command once, in order.  `times`
    holds each command's verdict time at the reference speed and `wall`
    as the clock read it; `setups` are set-up times at the reference
    speed."""
    started = time.monotonic()
    times: Dict[int, float] = {}
    wall: Dict[int, float] = {}
    setups: List[float] = []
    speeds: List[float] = []
    rss = 0.0
    pairs_checked = 0
    traces = []
    for position, (argv, probe) in enumerate(lines):
        result = launch(mode, argv)
        if not tally.check(argv, result, expected) or "verdict_s" not in result:
            continue
        times[position] = result["verdict_s"] * result["speed"]
        wall[position] = result["verdict_s"]
        setups.append(result["setup_s"] * result["speed"])
        speeds.append(result["speed"])
        rss = max(rss, result["rss_mb"])
        if not probe:
            pairs_checked += result["report"].get("pairs_checked", 0)
        if "trace" in result:
            traces.append(result["trace"])
    return {"wall_s": time.monotonic() - started, "times": times, "wall": wall,
            "verdict_s": sum(times.values()), "setups": setups, "speeds": speeds,
            "rss_mb": rss, "pairs_checked": pairs_checked, "traces": traces, "commands": len(lines)}


def run_loop(lines, expected, tally, seconds: float, mode: str,
             minimum: int = 1) -> List[dict]:
    """Passes until the next one, at the median pass length so far, would
    end after `seconds`."""
    started = time.monotonic()
    passes: List[dict] = []
    while True:
        passes.append(run_pass(lines, expected, tally, mode))
        typical = statistics.median(p["wall_s"] for p in passes)
        if (len(passes) >= minimum
                and time.monotonic() - started + typical > seconds):
            return passes


def per_command_median(passes: List[dict], key: str) -> float:
    """Sum over the workload's commands of each one's median over passes."""
    positions = sorted({k for p in passes for k in p[key]})
    return sum(statistics.median(p[key][k] for p in passes if k in p[key])
               for k in positions)


def end_to_end(passes: List[dict]) -> Dict[str, float]:
    setups = [s for p in passes for s in p["setups"]]
    if not setups:
        raise BenchError("no command passed its check, so nothing was timed")
    return {
        "verdict_s": per_command_median(passes, "times"),
        # Commands in a pass times the median set-up of one launch.
        "setup_s": passes[0]["commands"] * statistics.median(setups),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }


def pass_layers(p: dict) -> Dict[str, float]:
    """Per-layer figures of one traced pass, summed over its commands."""
    calls, self_s, total_s = Counter(), Counter(), Counter()
    by_p, work = Counter(), Counter()
    for t in p["traces"]:
        calls.update(t["calls"])
        self_s.update(t["self_s"])
        total_s.update(t["total_s"])
        by_p.update(t["census_self_by_p"])
        work.update(t["work"])
    out: Dict[str, float] = {}
    for name in set(calls) | set(self_s):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.total_s"] = total_s[name]
    census = "hall.submodule_census"
    for prime in CENSUS_PRIMES:
        out[f"{census}.self_s.p{prime}"] = by_p[str(prime)]
    n_census = calls[census]
    out[f"{census}.misses"] = work["census_misses"]
    out[f"{census}.hit_ratio"] = (
        (n_census - work["census_misses"]) / n_census if n_census else 0.0)
    out[f"{census}.submodules"] = work["census_submodules"]
    out[f"{census}.candidates"] = work["census_candidates"]
    out[f"{census}.useful_ratio"] = (
        work["census_submodules"] / work["census_candidates"]
        if work["census_candidates"] else 0.0)
    out["torus.convolve.term_pairs"] = work["convolve_pairs"]
    out["torus.convolve.out_terms"] = work["convolve_out"]
    out["torus.convolve.kept_ratio"] = (
        work["convolve_kept"] / work["convolve_pairs"]
        if work["convolve_pairs"] else 0.0)
    out["verify.pairs_checked"] = p["pairs_checked"]
    return out


def per_layer(untraced: dict, traced: List[dict], workload: dict,
              declared: Dict[str, str], problems: List[str]) -> Dict[str, float]:
    """Medians over traced passes for times; counts must repeat exactly."""
    rows = [pass_layers(p) for p in traced]
    names = set(declared) | {k for row in rows for k in row}
    out: Dict[str, float] = {}
    for name in names:
        values = [row.get(name, 0) for row in rows]
        if declared.get(name) in ("count", "ratio") and len(set(values)) > 1:
            problems.append(f"work count {name} differs between passes: {values}")
        out[name] = statistics.median(values)
    for layer in workload["idle_layers"]:
        busy = [k for k, v in out.items()
                if k.startswith(layer + ".") and k.endswith(".calls") and v]
        if busy:
            problems.append(f"layer {layer} should be idle here: {busy}")
    traced_verdict = statistics.median(p["verdict_s"] for p in traced)
    out["trace.overhead_ratio"] = traced_verdict / untraced["verdict_s"]
    for kind in ("self_s", "total_s"):
        ranked = sorted((v, k) for k, v in out.items()
                        if k.endswith("." + kind) and k != "cli.total_s")
        sys.stderr.write(f"largest {kind}: "
                         + ", ".join(f"{k} {v:.3f}" for v, k in ranked[-4:][::-1]) + "\n")
    sys.stderr.write(f"predicted dominant: {', '.join(workload['dominant'])}\n")
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load("workloads.json")
    workload = spec["workloads"][name]
    expected = load("expected.json")["commands"]
    pool = spec["pool_seeds"]
    kind = "per_layer" if trace else "end_to_end"
    declared = declared_metrics(kind)
    tally = Tally()
    launch("setup", [])  # compiles the bytecode caches; users do not pay that per run
    # Every pass has the same inputs, so its work counts must repeat.
    lines = command_lines(workload, seed, pool)
    if trace:
        untraced = run_pass(lines, expected, tally)
        traced = run_loop(lines, expected, tally,
                          seconds - untraced["wall_s"], "trace", MIN_TRACED_PASSES)
        values = per_layer(untraced, traced, workload, declared, tally.problems)
        values["fail_ratio"] = tally.failed / tally.attempted
    else:
        passes = run_loop(lines, expected, tally, seconds, "run")
        values = end_to_end(passes)
        # The clock's own reading, for comparison; not a declared metric.
        print(f"{name} verdict_wall_s {per_command_median(passes, 'wall'):.6g} s"
              f" (CPU at {statistics.median(s for p in passes for s in p['speeds']):.3g}"
              f" of the reference speed over {len(passes)} passes)")
    missing = sorted(set(declared) - set(values))
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    for problem in tally.problems:
        sys.stderr.write(problem + "\n")
    return {"correct": not tally.problems, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in declared.items()}}


def environment(seed: int) -> dict:
    spec = load("expected.json")
    return {"recorded_at_commit": spec["recorded_at_commit"], "seed": seed,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: every one")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "hallq" / "cli.py").is_file():
            raise BenchError(f"no hallq sources under {ROOT / 'src'}")
        names = list(load("workloads.json")["workloads"])
        if args.workload is not None and args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        print(json.dumps({"environment": environment(args.seed)}))
        results = {}
        for name in [args.workload] if args.workload else names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            for metric, m in results[name]["metrics"].items():
                print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
            r = results[name]
            print(f"{name} fail_ratio {r['failed'] / r['attempted']:.6g} ratio"
                  f" ({r['failed']} of {r['attempted']} commands)", flush=True)
    except (BenchError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.workload:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
