"""Run one hallq CLI command in this fresh interpreter and report its timing.

    PYTHONPATH=src python3 perfbench/child.py {setup|run|trace} [hallq arguments...]

run.py launches it once per command.  The interpreter starts, imports
`hallq.cli` as the `hallq` console script does, and then, depending on
the mode:

- setup: stops before `main`;
- run:   calls `main` with the arguments;
- trace: wraps every layer's public functions (see layertrace.py), then
  calls `main`.

In run and trace mode the reference loop (`reference_s`) is timed just
before `main` and just after it.  After the CLI's own output the child
prints one line that starts with MARK and holds JSON: the monotonic clock
when set-up ended, when `main` began and when it returned, the two
reference times, the peak resident memory and, in trace mode, the
per-layer trace.  The exit code is the CLI's.  Only `sys` and `time` are imported before
`hallq`, so the start-up measured is the CLI's own.
"""

import sys
import time

import hallq.cli

MARK = "\x1eperfbench "
REFERENCE_ROUNDS = 400


def reference_s() -> float:
    """Seconds for a fixed piece of pure-Python exact arithmetic that does
    not use hallq: products of integer polynomials kept in dicts, each
    coefficient list reduced by its gcd.  Timed next to a command, it
    tells how fast this shared CPU runs at that moment."""
    import gc
    from math import gcd

    collecting = gc.isenabled()
    gc.disable()  # a collection would scan the command's heap too
    started = time.perf_counter()
    poly = {(0,): 1}
    for k in range(REFERENCE_ROUNDS):
        factor = {(0,): k + 3, (1,): -2 * k - 1, (2,): k + 7}
        product = {}
        for (a,), x in poly.items():
            for (b,), y in factor.items():
                if a + b < 12:
                    product[(a + b,)] = product.get((a + b,), 0) + x * y
        common = 0
        for value in product.values():
            common = gcd(common, value)
        poly = {key: value // common for key, value in product.items()} if common else product
    elapsed = time.perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


def _finish(info: dict, code: int) -> None:
    import json
    import resource

    info["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write("\n" + MARK + json.dumps(info) + "\n")
    sys.stdout.flush()
    sys.exit(code)


def _main() -> None:
    mode, argv = sys.argv[1], sys.argv[2:]
    ready = time.monotonic()
    if mode == "setup":
        _finish({"ready": ready}, 0)
    tracer = None
    if mode == "trace":
        from layertrace import LayerTrace

        tracer = LayerTrace()
        tracer.install()
    elif mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")
    before = reference_s()
    began = time.monotonic()
    code = hallq.cli.main(argv)
    ended = time.monotonic()
    sys.stdout.flush()
    info = {"ready": ready, "began": began, "ended": ended,
            "reference_s": [before, reference_s()]}
    if tracer is not None:
        info["trace"] = tracer.summary()
    _finish(info, code)


if __name__ == "__main__":
    _main()
