"""Driving the verification campaigns from Python and from the shell.

Each campaign re-derives one identity from scratch and reports a JSON
payload.  The ``hallq`` command wraps the same functions; exit code 0
means the identity held, 1 means it failed, 2 means bad input.
"""

import json
import os
import subprocess
import sys
import tempfile

from hallq import Budget, BudgetError, hall_count
from hallq.hall import budget_from_env
from hallq.quiver import CyclicQuiver, ModuleIso
from hallq.verify import CAMPAIGNS, SABOTAGE_MODES, CampaignConfig

# The command line through this interpreter, so the demo also runs from a
# source checkout without the installed console script.
HALLQ = [sys.executable, "-m", "hallq"]


def main():
    print("== campaigns, straight from Python ==")
    cfg = CampaignConfig(n=3, trials=3, seed=0).check("invariance")
    ok, payload = CAMPAIGNS["invariance"](cfg)
    print(f"invariance ok={ok}, digest {payload['element_sha256'][:16]}...")

    ok, payload = CAMPAIGNS["pentagon"](CampaignConfig(n=3).check("pentagon"))
    print(f"pentagon   ok={ok}, left factors {payload['left_factors']}")
    print(f"           right factors {payload['right_factors']}")

    print()
    print("== sabotage switches flip one sign or step, and must fail ==")
    for campaign, modes in sorted(SABOTAGE_MODES.items()):
        for mode in modes:
            small = {"max_total": 2} if campaign == "integration" else {}
            trials = 2 if campaign in ("invariance", "jacobian") else 1
            cfg = CampaignConfig(n=3, trials=trials, seed=0, sabotage=mode,
                                 **small).check(campaign)
            ok, _ = CAMPAIGNS[campaign](cfg)
            print(f"  {campaign:12s} --sabotage {mode:16s} ok={ok}")

    print()
    print("== the same campaigns through the command line ==")
    cmd = HALLQ + ["verify", "invariance", "--n", "3", "--trials", "2", "--seed", "0"]
    run = subprocess.run(cmd, capture_output=True, text=True)
    report = json.loads(run.stdout)["report"]
    print("$ hallq verify invariance --n 3 --trials 2 --seed 0")
    print(f"exit {run.returncode}, campaign={report['campaign']}, ok={report['ok']}")

    cmd = HALLQ + ["verify", "invariance", "--n", "3", "--trials", "2",
           "--seed", "0", "--sabotage", "include-delta"]
    run = subprocess.run(cmd, capture_output=True, text=True)
    print("$ hallq verify invariance ... --sabotage include-delta")
    print(f"exit {run.returncode} (a failed identity exits 1)")

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({"charges": [["2", "1"], ["-2", "1"], ["1", "2"]]}, fh)
        path = fh.name
    run = subprocess.run(HALLQ + ["stables", "--config", path],
                         capture_output=True, text=True)
    stables = json.loads(run.stdout)["report"]["stables"]
    print(f"$ hallq stables --config charges.json")
    print(f"exit {run.returncode}, stable objects: {stables}")
    os.unlink(path)

    run = subprocess.run(HALLQ + ["stables", "--n", "3"],
                         capture_output=True, text=True)
    print("$ hallq stables --n 3")
    print(f"exit {run.returncode}: {run.stderr.strip()}")

    print()
    print("== enumeration budgets, and the environment override ==")
    q3 = CyclicQuiver(3)
    s1 = ModuleIso.of(q3.R(1, 1))
    plane = ModuleIso.of(q3.R(1, 1), q3.R(1, 1))
    try:
        hall_count(q3, s1, s1, plane, 7)
    except BudgetError as err:
        print(f"p=7 under the default caps: BudgetError: {err}")
    os.environ["HALLQ_BUDGET_OVERRIDE"] = "4,7"
    lifted = budget_from_env(Budget())
    print(f"HALLQ_BUDGET_OVERRIDE=4,7 lifts the prime cap: "
          f"{hall_count(q3, s1, s1, plane, 7, budget=lifted)} lines over F_7")
    del os.environ["HALLQ_BUDGET_OVERRIDE"]


if __name__ == "__main__":
    main()
