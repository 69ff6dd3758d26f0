#!/usr/bin/env python3
"""Record the expected exit code and report digest of every benchmark command.

    python3 perfbench/record.py

Runs each workload's commands for every seed of the pool, and each probe
once, and writes expected.json.  Commands must exit 0 and probes 1;
otherwise nothing is written.  Run it only at a commit whose reports are
known to be right, and keep the commit in the file.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from run import BENCH_DIR, ROOT, command_lines, launch, load


def main() -> int:
    spec = load("workloads.json")
    wanted = {}
    for workload in spec["workloads"].values():
        for seed in range(spec["pool_seeds"]):
            for argv, probe in command_lines(workload, seed, spec["pool_seeds"]):
                wanted[" ".join(argv)] = (argv, 1 if probe else 0)
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(zip(wanted, pool.map(lambda key: launch("run", wanted[key][0]),
                                            wanted)))
    bad = [key for key, result in results.items() if result["rc"] != wanted[key][1]
           or result["digest"] is None]
    if bad:
        print("unexpected results, nothing written:", *bad, sep="\n  ", file=sys.stderr)
        return 1
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    out = {"recorded_at_commit": commit,
           "commands": {key: {"rc": r["rc"], "report_sha256": r["digest"]}
                        for key, r in sorted(results.items())}}
    with open(BENCH_DIR / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(out['commands'])} commands at {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
