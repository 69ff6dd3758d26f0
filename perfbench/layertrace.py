"""Per-layer tracing of the hallq package, installed from outside it.

Every traced function is replaced by a wrapper in *every* place it is
bound: the defining module, each module that imported it with
`from .x import f`, the package namespace and the `verify.CAMPAIGNS`
table.  Methods (`RationalFunction` arithmetic, `CyclicQuiver.aut_poly`)
are replaced on the class.  Each wrapper times its call and charges the
time to its caller as child time, so `self_s` of a name is the time in
that name minus the time in traced functions it called, and `total_s`
includes them.  Work counted from outside the package (term pairs,
submodules, candidate subspaces) is computed after the timed span and
charged to nobody.

Spans are aggregated per name in memory and returned by `summary()` at
the end of the command.
"""

import sys
import time
from collections import Counter, defaultdict
from math import prod
from typing import Callable, Dict, List, Optional, Tuple

from hallq import cli, exact, hall, quiver, stability, torus, verify

# Trace name -> (owner, attribute).  The owner is a module for functions
# and a class for methods.
TRACED: Dict[str, Tuple[object, str]] = {
    "exact.rf_mul": (exact.RationalFunction, "__mul__"),
    "exact.rf_add": (exact.RationalFunction, "__add__"),
    "exact.rf_new": (exact.RationalFunction, "__init__"),
    "quiver.aut_poly": (quiver.CyclicQuiver, "aut_poly"),
    "stability.stable_objects": (stability, "stable_objects"),
    "stability.is_semistable": (stability, "is_semistable"),
    "torus.convolve": (torus, "convolve"),
    "torus.torus_inverse": (torus, "torus_inverse"),
    "torus.integrate_iso_sum": (torus, "integrate_iso_sum"),
    "torus.semistable_phase_factor": (torus, "semistable_phase_factor"),
    "torus.ez_delta": (torus, "ez_delta"),
    "hall.submodule_census": (hall, "submodule_census"),
    "hall.iso_class_of": (hall, "iso_class_of"),
    "hall.interpolate_hall": (hall, "interpolate_hall"),
    "hall.check_integration_homomorphism": (hall, "check_integration_homomorphism"),
    "cli": (cli, "main"),
}


def _verify_functions() -> List[str]:
    """Public functions defined in `verify`; all of them count as `verify`."""
    return [name for name, value in vars(verify).items()
            if callable(value) and not name.startswith("_")
            and getattr(value, "__module__", None) == verify.__name__
            and not isinstance(value, type)]


def subspace_count(dim: int, p: int) -> int:
    """Number of subspaces of F_p^dim: the sum of the Gaussian binomials."""
    total = 0
    for k in range(dim + 1):
        num = prod(p ** (dim - i) - 1 for i in range(k))
        den = prod(p ** (i + 1) - 1 for i in range(k))
        total += num // den
    return total


class LayerTrace:
    """Wrappers, their aggregated spans and the work counted around them."""

    def __init__(self):
        self._stack: List[float] = [0.0]
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.census_self_by_p: Dict[int, float] = defaultdict(float)
        self.work: Counter = Counter()
        self._census_missed: List[tuple] = []

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        stack, calls, self_s, total_s = (self._stack, self.calls, self.self_s,
                                         self.total_s)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entered = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - entered
                own = span - stack.pop()
                self_s[name] += own
                total_s[name] += span
                calls[name] += 1
                stack[-1] += span
            if after is not None:
                started = clock()
                after(args, result, own)
                stack[-1] += clock() - started
            return result

        return traced

    # -- work counted around single functions ---------------------------------

    def _after_convolve(self, args, result, own) -> None:
        a, b = args[0], args[1]
        bound = a.truncation
        ta = Counter(sum(d) for d in a.terms)
        tb = Counter(sum(e) for e in b.terms)
        self.work["convolve_pairs"] += len(a.terms) * len(b.terms)
        self.work["convolve_kept"] += sum(ca * cb for x, ca in ta.items()
                                          for y, cb in tb.items() if x + y <= bound)
        self.work["convolve_out"] += len(result.terms)

    def _census_after(self, census) -> Callable:
        last = [census.cache_info().misses]

        def after(args, result, own) -> None:
            self.census_self_by_p[args[2]] += own
            misses = census.cache_info().misses
            if misses != last[0]:
                last[0] = misses
                self.work["census_misses"] += 1
                self.work["census_submodules"] += sum(c for _, _, c in result)
                self._census_missed.append(args)

        return after

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "hallq" or key.startswith("hallq.")]
        hooks = {"torus.convolve": self._after_convolve,
                 "hall.submodule_census": self._census_after(hall.submodule_census)}
        targets = [(name, owner, attr) for name, (owner, attr) in TRACED.items()]
        targets += [("verify", verify, attr) for attr in _verify_functions()]
        for name, owner, attr in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hooks.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)
            for key in [k for k, v in verify.CAMPAIGNS.items() if v is original]:
                verify.CAMPAIGNS[key] = wrapper

    def summary(self) -> dict:
        candidates = 0
        for n, big, p in self._census_missed:
            dims = quiver.CyclicQuiver(n).dim_of(big)
            candidates += prod(subspace_count(d, p) for d in dims)
        work = dict(self.work)
        work["census_candidates"] = candidates
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "census_self_by_p": {str(p): s for p, s in self.census_self_by_p.items()},
                "work": work}
