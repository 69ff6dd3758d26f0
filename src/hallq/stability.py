"""Stability functions on nilpotent cyclic-quiver representations.

A stability function assigns to each simple S_i a central charge in the
upper half plane (phase in [0, pi)); charges extend additively to all
dimension vectors.  An indecomposable R(i, l) is stable when every proper
nonzero subobject along its chain has strictly smaller phase, semistable
with <= in place of <.  A function is *discrete* when distinct stable
objects never share a phase; stables then have length at most n and there
is exactly one stable object of dimension delta.

Phases are never materialised as floats: all comparisons go through the
exact cross-product order on Gaussian rationals.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

from .exact import (GaussianRational, PhaseDomainError, phase_cmp, phase_eq,
                    phase_le, phase_lt, require_phase_domain)
from .quiver import CyclicQuiver, DimVector, Indecomposable, ModuleIso


class NotDiscreteError(ValueError):
    """Two stable objects share a phase; carries the offending pair."""

    def __init__(self, witness: Tuple[Indecomposable, Indecomposable]):
        self.witness = witness
        super().__init__(f"equal phases: {witness[0]} and {witness[1]}")


class ZeroChargeError(ValueError):
    """Charge requested for the zero dimension vector."""


@dataclass(frozen=True)
class StabilityFunction:
    """Central charges for the simples of a cyclic quiver, one per vertex."""

    n: int
    charges: Tuple[GaussianRational, ...]

    def __post_init__(self):
        if self.n < 2 or len(self.charges) != self.n:
            raise ValueError("need one charge per vertex, n >= 2")
        for z in self.charges:
            require_phase_domain(z)

    @property
    def quiver(self) -> CyclicQuiver:
        return CyclicQuiver(self.n)

    @staticmethod
    def of(pairs: Sequence[Tuple[object, object]]) -> "StabilityFunction":
        charges = tuple(GaussianRational.of(re, im) for re, im in pairs)
        return StabilityFunction(len(charges), charges)

    def to_json(self) -> dict:
        return {"n": self.n, "charges": [z.to_json() for z in self.charges]}

    @staticmethod
    def from_json(data: dict) -> "StabilityFunction":
        charges = tuple(GaussianRational.from_json(c) for c in data["charges"])
        return StabilityFunction(int(data["n"]), charges)


def charge_of(z: StabilityFunction, d: DimVector) -> GaussianRational:
    """Additive extension of the charges; rejects the zero vector."""
    if len(d) != z.n:
        raise ValueError("dimension vector has the wrong length")
    if not any(d):
        raise ZeroChargeError("zero dimension vector has no charge")
    acc = GaussianRational.of(0, 0)
    for k, zi in zip(d, z.charges):
        if k:
            acc = acc + zi.scale(k)
    return acc


def charge_of_indec(z: StabilityFunction, r: Indecomposable) -> GaussianRational:
    return charge_of(z, z.quiver.dim_of_indec(r))


def charge_of_module(z: StabilityFunction, m: ModuleIso) -> GaussianRational:
    return charge_of(z, z.quiver.dim_of(m))


# ----------------------------------------------------------------------
# Stability and semistability
# ----------------------------------------------------------------------

def is_stable(z: StabilityFunction, x) -> bool:
    """Stability; decomposables are never stable.

    For a uniserial the subobject lattice is the chain R(i, k), so the
    test is l-1 strict phase comparisons against the whole.
    """
    if isinstance(x, ModuleIso):
        if len(x) != 1:
            return False
        x = x.summands[0]
    whole = charge_of_indec(z, x)
    q = z.quiver
    for k in range(1, x.length):
        sub = charge_of_indec(z, Indecomposable(x.socle, k))
        if not phase_lt(sub, whole):
            return False
    return True


def is_semistable(z: StabilityFunction, x) -> bool:
    """Semistability; a direct sum qualifies when all summands are
    semistable of one common phase."""
    if isinstance(x, Indecomposable):
        return _indec_semistable(z, x)
    if x.is_zero:
        return False
    mu = charge_of_indec(z, x.summands[0])
    for r in x.summands:
        if not _indec_semistable(z, r):
            return False
        if not phase_eq(charge_of_indec(z, r), mu):
            return False
    return True


def _indec_semistable(z: StabilityFunction, r: Indecomposable) -> bool:
    whole = charge_of_indec(z, r)
    for k in range(1, r.length):
        sub = charge_of_indec(z, Indecomposable(r.socle, k))
        if not phase_le(sub, whole):
            return False
    return True


# ----------------------------------------------------------------------
# Stable object census
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StableObjectReport:
    """Stable objects sorted by strictly decreasing phase."""

    stables: Tuple[Indecomposable, ...]
    delta_stable: Indecomposable
    gamma: GaussianRational  # charge of delta

    def to_json(self, z: StabilityFunction) -> dict:
        return {
            "stables": [{"socle": r.socle, "length": r.length,
                         "charge": charge_of_indec(z, r).to_json()}
                        for r in self.stables],
            "delta_stable": [self.delta_stable.socle, self.delta_stable.length],
            "gamma": self.gamma.to_json(),
        }


def sort_by_decreasing_phase(z: StabilityFunction, items: Sequence, charge_fn: Callable):
    def cmp(a, b) -> int:
        return -phase_cmp(charge_fn(z, a), charge_fn(z, b))

    return sorted(items, key=functools.cmp_to_key(cmp))


def stable_indecomposables_up_to(z: StabilityFunction, max_length: int) -> List[Indecomposable]:
    """Stable uniserials of length <= max_length, decreasing phase.

    Raises :class:`NotDiscreteError` if two of them share a phase.
    """
    q = z.quiver
    found = [r for r in q.enumerate_indecomposables(max_length) if is_stable(z, r)]
    found = sort_by_decreasing_phase(z, found, charge_of_indec)
    for a, b in zip(found, found[1:]):
        if phase_eq(charge_of_indec(z, a), charge_of_indec(z, b)):
            raise NotDiscreteError((a, b))
    return found


def stable_objects(z: StabilityFunction) -> StableObjectReport:
    """Full stable census.  Any stable object has length <= n, so the
    search space is the n*n uniserials R(i, l) with l <= n."""
    q = z.quiver
    stables = tuple(stable_indecomposables_up_to(z, q.n))
    delta = q.delta
    of_delta = [r for r in stables if q.dim_of_indec(r) == delta]
    if len(of_delta) != 1:
        raise RuntimeError(
            f"internal inconsistency: {len(of_delta)} stable objects of dimension delta")
    return StableObjectReport(stables, of_delta[0], charge_of(z, delta))


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
    and the answer is R(i0 + 1, n).
    """
    q = z.quiver
    n = q.n
    gamma = charge_of(z, q.delta)
    winners = []
    for i in range(1, n + 1):
        if phase_lt(z.charges[i - 1], gamma):
            continue
        acc = z.charges[i - 1]
        run = 0
        for v in range(1, n):
            acc = acc + z.charges[q.vertex(i - v) - 1]
            if phase_lt(acc, gamma):
                break
            run = v
        if run == n - 1:
            winners.append(i)
    if len(winners) != 1:
        raise RuntimeError(
            f"internal inconsistency: {len(winners)} full vertex runs")
    return q.R(winners[0] + 1, n)


# ----------------------------------------------------------------------
# Harder-Narasimhan filtrations
# ----------------------------------------------------------------------

def hn_filtration(z: StabilityFunction, m: ModuleIso) -> List[Tuple[ModuleIso, GaussianRational]]:
    """Semistable subquotients with strictly decreasing phases.

    Uniserials are filtered greedily along their chain: the first stratum
    is the subobject of maximal phase (maximal length on ties), and the
    rest is the filtration of the quotient.  For a direct sum the strata
    of the summands are merged by exact phase equality.
    """
    if m.is_zero:
        return []
    q = z.quiver
    buckets: List[Tuple[GaussianRational, List[Indecomposable]]] = []

    def add(stratum: Indecomposable):
        mu = charge_of_indec(z, stratum)
        for phase, parts in buckets:
            if phase_eq(phase, mu):
                parts.append(stratum)
                return
        buckets.append((mu, [stratum]))

    for r in m.summands:
        socle, length = r.socle, r.length
        while length > 0:
            best_k = 1
            best = charge_of_indec(z, Indecomposable(socle, 1))
            for k in range(2, length + 1):
                c = charge_of_indec(z, Indecomposable(socle, k))
                if not phase_lt(c, best):
                    best = c
                    best_k = k
            add(Indecomposable(socle, best_k))
            socle = q.vertex(socle + best_k)
            length -= best_k

    def cmp(a, b) -> int:
        return -phase_cmp(a[0], b[0])

    buckets.sort(key=functools.cmp_to_key(cmp))
    return [(ModuleIso.of(*parts), phase) for phase, parts in buckets]


# ----------------------------------------------------------------------
# Random generation and perturbation
# ----------------------------------------------------------------------

def random_discrete(n: int, seed: int, bound: int = 8,
                    max_tries: int = 1000) -> StabilityFunction:
    """Seeded random discrete stability function.

    Real parts in [-bound, bound], imaginary parts in [1, bound], all
    with denominators <= 16; resampled until the stable census has
    pairwise distinct phases.  Deterministic in (n, seed, bound).
    """
    rng = random.Random(seed)
    for _ in range(max_tries):
        z = _sample(rng, n, bound)
        ok, _witness = check_discrete(z)
        if ok:
            return z
    raise RuntimeError(f"no discrete function found in {max_tries} draws")


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
                               bound: int = 8, max_tries: int = 1000) -> StabilityFunction:
    """Seeded random function whose stables of length <= max_length have
    pairwise distinct phases (no condition on longer objects)."""
    rng = random.Random(seed)
    for _ in range(max_tries):
        z = _sample(rng, n, bound)
        try:
            stable_indecomposables_up_to(z, max_length)
        except NotDiscreteError:
            continue
        return z
    raise RuntimeError(f"no suitable function found in {max_tries} draws")


def translate_function(z: StabilityFunction) -> StabilityFunction:
    """Z composed with the translation on classes: (Z tau)(e_i) = Z(e_{i-1})."""
    q = z.quiver
    charges = tuple(z.charges[q.vertex(i - 1) - 1] for i in range(1, z.n + 1))
    return StabilityFunction(z.n, charges)


def perturb_to_ambient_discrete(z: StabilityFunction, subcat_max_length: int,
                                max_tries: int = 400) -> StabilityFunction:
    """Nudge charges until the function is discrete on the whole category
    while the stables of length <= subcat_max_length survive unchanged and
    in the same phase order.

    The input must already have distinct phases on that restricted stable
    set.  Candidate perturbations shrink geometrically and every candidate
    is checked exactly, so the result is trustworthy whenever it returns.
    """
    target = stable_indecomposables_up_to(z, subcat_max_length)
    ok, _ = check_discrete(z)
    if ok and _restricted_match(z, subcat_max_length, target):
        return z
    rng = random.Random(0xD15C)
    scale = Fraction(1, 64)
    for attempt in range(max_tries):
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
    raise RuntimeError("no admissible perturbation found")


def _restricted_match(z: StabilityFunction, max_length: int,
                      target: Sequence[Indecomposable]) -> bool:
    try:
        got = stable_indecomposables_up_to(z, max_length)
    except NotDiscreteError:
        return False
    return list(got) == list(target)
