"""Stability functions on nilpotent cyclic-quiver representations.

A stability function assigns to each simple S_i a central charge in the
upper half plane (phase in [0, pi)); charges extend additively to all
dimension vectors.  An indecomposable R(i, l) is stable when every proper
nonzero subobject along its chain has strictly smaller phase, semistable
with <= in place of <.  A function is *discrete* when distinct stable
objects never share a phase; stables then have length at most n and there
is exactly one stable object of dimension delta.

Phases are never materialised as floats.  Charges are scaled to integers
by the lcm of their denominators (no phase changes) and kept as cyclic
prefix sums, so Z(R(i, l)) costs O(1) and every phase comparison is one
integer cross product; charges leave this module as Gaussian rationals.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Callable, List, Sequence, Tuple

from .exact import (BudgetError, GaussianRational, Immutable,
                    PhaseDomainError, require_phase_domain)
from .quiver import CyclicQuiver, DimVector, Indecomposable, ModuleIso


class NotDiscreteError(ValueError):
    """Two stable objects share a phase; carries the offending pair."""

    def __init__(self, witness: Tuple[Indecomposable, Indecomposable]):
        self.witness = witness
        super().__init__(f"equal phases: {witness[0]} and {witness[1]}")


class ZeroChargeError(ValueError):
    """Charge requested for the zero dimension vector."""


class StabilityFunction(Immutable):
    """Central charges for the simples of a cyclic quiver, one per vertex.

    `_scaled` is (L, xs, ys): L the lcm of all charge denominators, and for
    k = 0..2n xs[k] + ys[k] i = L * (Z(S_1) + ... + Z(S_k)), vertex indices
    mod n.
    """

    __slots__ = ("n", "charges", "_scaled")

    def __init__(self, n: int, charges: Tuple[GaussianRational, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "charges", charges)
        if self.n < 2 or len(self.charges) != self.n:
            raise ValueError("need one charge per vertex, n >= 2")
        for z in self.charges:
            require_phase_domain(z)
        scale = lcm(*(x.denominator for c in charges for x in (c.re, c.im)))
        xs, ys = [0], [0]
        for c in charges + charges:
            xs.append(xs[-1] + c.re.numerator * (scale // c.re.denominator))
            ys.append(ys[-1] + c.im.numerator * (scale // c.im.denominator))
        object.__setattr__(self, "_scaled", (scale, xs, ys))

    def _icharge(self, socle: int, length: int) -> Tuple[int, int]:
        """L * Z(R(socle, length)) as an integer pair."""
        n, (_, xs, ys) = self.n, self._scaled
        s, (k, r) = (socle - 1) % n, divmod(length, n)
        return k * xs[n] + xs[s + r] - xs[s], k * ys[n] + ys[s + r] - ys[s]

    @property
    def quiver(self) -> CyclicQuiver:
        return CyclicQuiver(self.n)

    @staticmethod
    def of(pairs: Sequence[Tuple[object, object]]) -> "StabilityFunction":
        charges = tuple(GaussianRational.of(re, im) for re, im in pairs)
        return StabilityFunction(len(charges), charges)

    def to_json(self) -> dict:
        return {"n": self.n, "charges": [z.to_json() for z in self.charges]}


def charge_of(z: StabilityFunction, d: DimVector) -> GaussianRational:
    """Additive extension of the charges; rejects the zero vector."""
    if len(d) != z.n:
        raise ValueError("dimension vector has the wrong length")
    if not any(d):
        raise ZeroChargeError("zero dimension vector has no charge")
    scale, xs, ys = z._scaled
    x = sum(k * (xs[i + 1] - xs[i]) for i, k in enumerate(d))
    y = sum(k * (ys[i + 1] - ys[i]) for i, k in enumerate(d))
    return GaussianRational(Fraction(x, scale), Fraction(y, scale))


def charge_of_indec(z: StabilityFunction, r: Indecomposable) -> GaussianRational:
    return charge_of(z, z.quiver.dim_of_indec(r))


def _cross(a: Tuple[int, int], b: Tuple[int, int]) -> int:
    """Positive exactly when arg(a) < arg(b), zero when the phases agree."""
    return a[0] * b[1] - a[1] * b[0]


def _ray(w: GaussianRational) -> Tuple[int, int]:
    """An integer pair with the phase of w."""
    require_phase_domain(w)
    return w.re.numerator * w.im.denominator, w.im.numerator * w.re.denominator


def sort_by_decreasing_phase(items: Sequence, charge: Callable) -> list:
    """Stable sort by decreasing phase of the integer charge of each item."""
    return sorted(items, key=functools.cmp_to_key(lambda a, b: _cross(charge(a), charge(b))))


# ----------------------------------------------------------------------
# Stability and semistability
# ----------------------------------------------------------------------

def _prefixes_below(z: StabilityFunction, r: Indecomposable, strict: bool) -> bool:
    """Every proper subobject R(i, k), k < l, of R(i, l) has phase below
    that of R(i, l): strictly, or with ties allowed."""
    whole, least = z._icharge(r.socle, r.length), int(strict)
    return all(_cross(z._icharge(r.socle, k), whole) >= least for k in range(1, r.length))


def is_stable(z: StabilityFunction, x) -> bool:
    """Stability; decomposables are never stable.

    For a uniserial the subobject lattice is the chain R(i, k), so the
    test is l-1 strict phase comparisons against the whole.
    """
    if isinstance(x, ModuleIso):
        if len(x) != 1:
            return False
        x = x[0]
    return _prefixes_below(z, x, strict=True)


def is_semistable(z: StabilityFunction, x) -> bool:
    """Semistability; a direct sum qualifies when all summands are
    semistable of one common phase."""
    if isinstance(x, Indecomposable):
        return _prefixes_below(z, x, strict=False)
    if not x:
        return False
    mu = z._icharge(x[0].socle, x[0].length)
    return all(_prefixes_below(z, r, strict=False)
               and _cross(z._icharge(r.socle, r.length), mu) == 0
               for r in x)


# ----------------------------------------------------------------------
# Stable object census
# ----------------------------------------------------------------------

class StableObjectReport(Immutable):
    """Stable objects sorted by strictly decreasing phase; gamma is the
    charge of delta."""

    __slots__ = ("stables", "delta_stable", "gamma")

    def __init__(self, stables: Tuple[Indecomposable, ...],
                 delta_stable: Indecomposable, gamma: GaussianRational):
        object.__setattr__(self, "stables", stables)
        object.__setattr__(self, "delta_stable", delta_stable)
        object.__setattr__(self, "gamma", gamma)

    def to_json(self, z: StabilityFunction) -> dict:
        return {
            "stables": [{"socle": r.socle, "length": r.length,
                         "charge": charge_of_indec(z, r).to_json()}
                        for r in self.stables],
            "delta_stable": [self.delta_stable.socle, self.delta_stable.length],
            "gamma": self.gamma.to_json(),
        }


def stable_indecomposables_up_to(z: StabilityFunction, max_length: int) -> List[Indecomposable]:
    """Stable uniserials of length <= max_length, decreasing phase.

    One pass per socle i: R(i, l) is stable when every R(i, k), k < l, has
    a smaller phase.  Raises :class:`NotDiscreteError` if two stables share
    a phase."""
    found = []
    for i in range(1, z.n + 1):
        top = None  # charge of a proper subobject of largest phase so far
        for l in range(1, max_length + 1):
            c = z._icharge(i, l)
            if top is None or _cross(top, c) > 0:
                found.append((l, i, c))
                top = c
    found = sort_by_decreasing_phase(sorted(found), itemgetter(2))
    for a, b in zip(found, found[1:]):
        if _cross(a[2], b[2]) == 0:
            raise NotDiscreteError((Indecomposable(a[1], a[0]), Indecomposable(b[1], b[0])))
    return [Indecomposable(i, l) for l, i, _ in found]


def stable_objects(z: StabilityFunction) -> StableObjectReport:
    """Full stable census.  Any stable object has length <= n, so the
    search space is the n*n uniserials R(i, l) with l <= n."""
    q = z.quiver
    stables = tuple(stable_indecomposables_up_to(z, q.n))
    of_delta = [r for r in stables if r.length == q.n]
    if len(of_delta) != 1:
        raise RuntimeError(
            f"internal inconsistency: {len(of_delta)} stable objects of dimension delta")
    return StableObjectReport(stables, of_delta[0], charge_of(z, q.delta))


def check_discrete(z: StabilityFunction):
    """(True, None) if all stable phases are pairwise distinct, else
    (False, offending pair)."""
    try:
        stable_objects(z)
    except NotDiscreteError as err:
        return False, err.witness
    return True, None


# ----------------------------------------------------------------------
# The delta-stable object through vertex runs
# ----------------------------------------------------------------------

def delta_stable_via_ci(z: StabilityFunction) -> Indecomposable:
    """Locate the unique stable object of dimension delta combinatorially.

    Let gamma be the phase of Z(delta).  For each vertex i whose simple
    has phase >= gamma, walk downward through i, i-1, i-2, ... as long as
    every partial sum of charges keeps phase >= gamma; this collects the
    run C_i.  Exactly one starting vertex i0 yields the full vertex set,
    and the answer is R(i0 + 1, n).  After v steps the sum is Z(R(i - v, v + 1)).
    """
    n = z.n
    gamma = z._icharge(1, n)
    winners = [i for i in range(1, n + 1)
               if all(_cross(z._icharge(i - v, v + 1), gamma) <= 0 for v in range(n))]
    if len(winners) != 1:
        raise RuntimeError(
            f"internal inconsistency: {len(winners)} full vertex runs")
    return z.quiver.R(winners[0] + 1, n)


# ----------------------------------------------------------------------
# Harder-Narasimhan filtrations
# ----------------------------------------------------------------------

def hn_filtration(z: StabilityFunction, m: ModuleIso) -> List[Tuple[ModuleIso, GaussianRational]]:
    """Semistable subquotients with strictly decreasing phases.

    Uniserials are filtered greedily along their chain: the first stratum
    is the subobject of maximal phase (maximal length on ties), and the
    rest is the filtration of the quotient.  For a direct sum the strata
    of the summands are merged by exact phase equality; each stratum
    carries the charge of its first part.
    """
    q = z.quiver
    buckets: List[Tuple[Tuple[int, int], List[Indecomposable]]] = []
    for socle, length in m:
        while length > 0:
            best_k, best = 1, z._icharge(socle, 1)
            for k in range(2, length + 1):
                c = z._icharge(socle, k)
                if _cross(c, best) <= 0:
                    best_k, best = k, c
            stratum = Indecomposable(socle, best_k)
            for phase, parts in buckets:
                if _cross(phase, best) == 0:
                    parts.append(stratum)
                    break
            else:
                buckets.append((best, [stratum]))
            socle = q.vertex(socle + best_k)
            length -= best_k
    return [(ModuleIso.of(*parts), charge_of_indec(z, parts[0]))
            for _, parts in sort_by_decreasing_phase(buckets, itemgetter(0))]


# ----------------------------------------------------------------------
# Random generation and perturbation
# ----------------------------------------------------------------------

# draw budgets: seeded draws of a random function, candidate perturbations
_DRAWS = 1000
_PERTURBATIONS = 400


def random_discrete(n: int, seed: int, bound: int = 8) -> StabilityFunction:
    """Seeded random discrete stability function.

    Real parts in [-bound, bound], imaginary parts in [1, bound], all
    with denominators <= 16; resampled until the stable census has
    pairwise distinct phases.  Deterministic in (n, seed, bound).  Raises
    :class:`BudgetError` when `_DRAWS` draws find none.
    """
    rng = random.Random(seed)
    for _ in range(_DRAWS):
        z = _sample(rng, n, bound)
        ok, _witness = check_discrete(z)
        if ok:
            return z
    raise _draws_spent("no discrete function", _DRAWS)


def _draws_spent(what: str, draws: int) -> BudgetError:
    return BudgetError(f"{what} found within the draw budget of {draws} draws; "
                       f"a larger --bound spreads the charges further")


def _sample(rng: random.Random, n: int, bound: int) -> StabilityFunction:
    charges = []
    for _ in range(n):
        dre = rng.randint(1, 16)
        dim = rng.randint(1, 16)
        re = Fraction(rng.randint(-bound * dre, bound * dre), dre)
        im = Fraction(rng.randint(dim, bound * dim), dim)
        charges.append(GaussianRational(re, im))
    return StabilityFunction(n, tuple(charges))


def random_restricted_discrete(n: int, seed: int, max_length: int,
                               bound: int = 8) -> StabilityFunction:
    """Seeded random function whose stables of length <= max_length have
    pairwise distinct phases (no condition on longer objects).  Raises
    :class:`BudgetError` when `_DRAWS` draws find none."""
    rng = random.Random(seed)
    for _ in range(_DRAWS):
        z = _sample(rng, n, bound)
        try:
            stable_indecomposables_up_to(z, max_length)
        except NotDiscreteError:
            continue
        return z
    raise _draws_spent("no suitable function", _DRAWS)


def translate_function(z: StabilityFunction) -> StabilityFunction:
    """Z composed with the translation on classes: (Z tau)(e_i) = Z(e_{i-1})."""
    q = z.quiver
    charges = tuple(z.charges[q.vertex(i - 1) - 1] for i in range(1, z.n + 1))
    return StabilityFunction(z.n, charges)


def perturb_to_ambient_discrete(z: StabilityFunction, subcat_max_length: int
                                ) -> StabilityFunction:
    """Nudge charges until the function is discrete on the whole category
    while the stables of length <= subcat_max_length survive unchanged and
    in the same phase order.

    The input must already have distinct phases on that restricted stable
    set.  Candidate perturbations shrink geometrically and every candidate
    is checked exactly, so the result is trustworthy whenever it returns.
    Raises :class:`BudgetError` when `_PERTURBATIONS` candidates find none.
    """
    target = stable_indecomposables_up_to(z, subcat_max_length)
    ok, _ = check_discrete(z)
    if ok and _restricted_match(z, subcat_max_length, target):
        return z
    rng = random.Random(0xD15C)
    scale = Fraction(1, 64)
    for attempt in range(_PERTURBATIONS):
        charges = []
        for zi in z.charges:
            dre = Fraction(rng.randint(-8, 8), 64)
            dim = Fraction(rng.randint(0, 8), 64)
            charges.append(GaussianRational(zi.re + dre * scale, zi.im + dim * scale))
        try:
            cand = StabilityFunction(z.n, tuple(charges))
        except PhaseDomainError:
            continue
        ok, _ = check_discrete(cand)
        if not ok:
            continue
        if _restricted_match(cand, subcat_max_length, target):
            return cand
        if attempt % 20 == 19:
            scale /= 2
    raise _draws_spent("no admissible perturbation", _PERTURBATIONS)


def _restricted_match(z: StabilityFunction, max_length: int,
                      target: Sequence[Indecomposable]) -> bool:
    try:
        got = stable_indecomposables_up_to(z, max_length)
    except NotDiscreteError:
        return False
    return list(got) == list(target)
