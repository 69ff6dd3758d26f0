"""Verification campaigns over the stability/torus/hall layers.

Each campaign returns (ok, payload) where payload is a deterministic,
JSON-ready dict: no timestamps, keys sorted at dump time, witnesses
capped at 20 diff terms unless verbose.  Sabotage modes deliberately
break one ingredient (include the central factor, reverse an order,
reverse a product, which flips the twist, drop a factor) so the
comparisons are provably not vacuous.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

# sha256 from the interpreter's built-in module, as random.py takes its
# sha512: hashlib would load the OpenSSL binding _hashlib at each launch
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .exact import GaussianRational, Immutable
from .hall import (CATALOG_BUDGET, ENV_BUDGET, BudgetError, ConfigError,
                   budget_from_env, check_integration_homomorphism,
                   hall_polynomials, is_prime, next_prime)
from .quiver import CyclicQuiver, DimVector, Indecomposable, ModuleIso
from .stability import (NotDiscreteError, StabilityFunction,
                        charge_of_indec, delta_stable_via_ci,
                        hn_filtration, is_semistable,
                        perturb_to_ambient_discrete, random_discrete,
                        random_restricted_discrete, sort_by_decreasing_phase,
                        stable_indecomposables_up_to, stable_objects)
from .torus import (TorusElement, apply_translate, convolve, dilog, ez,
                    ez_delta, ez_factors, integrate_iso_sum, ordered_product,
                    semistable_phase_factor, stable_dims, torus_diff,
                    torus_inverse)


# Cap on the keys of a truncated torus, C(D + n, n) dimension vectors of
# total <= D; ez(6, 12) needs 18,564.  Checked by the commands that build
# torus elements before they build any.
TORUS_KEY_BUDGET = 20_000
TORUS_COMMANDS = ("ez", "invariance", "cyclic", "hn-identity", "pentagon", "jacobian")

# Cap on the number of vertices, checked by every command before any work
# that grows with n; nothing else bounds n for stables, hn or hall.
MAX_VERTICES = 32

# Cap on the class pairs, each a Hall census, of verify integration.
INTEGRATION_PAIR_BUDGET = 2_000

# Cap on the iso classes of total <= D that verify hn-identity sums; the
# largest admitted sums (n = 2 at D = 20, 80,377 classes; n = 5 at D = 10,
# 57,559) take about 3 s and 0.6 s per command.
ISO_CLASS_BUDGET = 100_000

# Cap on the trials of a campaign; 100 of invariance at n = 4, D = 8 take 2 s.
MAX_TRIALS = 1_000

# Charge arrangements verify pentagon tries on its coarse grid, then as
# many again on a fine one.
PENTAGON_COARSE = 200


def _torus_key_count(n: int, truncation: int) -> Optional[int]:
    """C(truncation + n, n), or None once the partial binomials
    C(truncation + n, k), k <= min(n, truncation), pass TORUS_KEY_BUDGET
    squared, so that absurd sizes are refused without big arithmetic."""
    keys = 1
    for k in range(1, min(n, truncation) + 1):
        keys = keys * (truncation + n + 1 - k) // k
        if keys > TORUS_KEY_BUDGET ** 2:
            return None
    return keys


def _class_counts(n: int, max_total: int) -> List[int]:
    """c_k for k <= max_total, the number of iso classes of total k: the
    x^k coefficient of prod_l (1 - x^l)^-n, n uniserials of each length l."""
    c = [1] + [0] * max_total
    for l in range(1, max_total + 1):
        for _ in range(n):
            for k in range(l, max_total + 1):
                c[k] += c[k - l]
    return c


def _integration_pair_count(n: int, max_total: int) -> Optional[int]:
    """sum of c_a c_b over a + b <= max_total (:func:`_class_counts`), or
    None once the (a, b) alone pass INTEGRATION_PAIR_BUDGET."""
    if (max_total + 1) * (max_total + 2) // 2 > INTEGRATION_PAIR_BUDGET:
        return None
    c = _class_counts(n, max_total)
    return sum(c[a] * c[b] for a in range(max_total + 1)
               for b in range(max_total + 1 - a))


SABOTAGE_MODES: Dict[str, Tuple[str, ...]] = {
    "invariance": ("include-delta", "reverse-order"),
    "cyclic": ("drop-factor",),
    "hn-identity": ("flip-twist",),
    "pentagon": ("reverse-residual",),
    "jacobian": ("include-delta",),
    "integration": ("flip-twist",),
}


class CampaignConfig(Immutable):
    __slots__ = ("n", "truncation", "trials", "seed", "bound", "explicit_z",
                 "primes", "max_total", "sabotage", "verbose")

    def __init__(self, n: int = 3, truncation: Optional[int] = None,
                 trials: int = 10, seed: int = 0, bound: int = 8,
                 explicit_z: Optional[StabilityFunction] = None,
                 primes: Tuple[int, ...] = (2, 3, 5, 7, 11), max_total: int = 4,
                 sabotage: Optional[str] = None, verbose: bool = False):
        for key, value in zip(self.__slots__, (n, truncation, trials, seed, bound,
                                               explicit_z, primes, max_total,
                                               sabotage, verbose)):
            object.__setattr__(self, key, value)
        for key in ("n", "truncation", "trials", "seed", "bound", "max_total"):
            value = getattr(self, key)
            if type(value) is not int and not (key == "truncation" and value is None):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if any(type(p) is not int for p in self.primes):
            raise ConfigError(f"primes must be integers, got {list(self.primes)!r}")

    def check(self, campaign: Optional[str] = None) -> "CampaignConfig":
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.trials > MAX_TRIALS:
            raise BudgetError(f"trials {self.trials} exceeds the trial budget {MAX_TRIALS}")
        if self.bound < 1:
            raise ConfigError("bound must be at least 1")
        if self.max_total < 0:
            raise ConfigError("max_total must be at least 0")
        # the cap comes before the trial division in is_prime, which a
        # huge prime would keep busy for hours
        cap = budget_from_env(CATALOG_BUDGET).hall_prime
        if self.primes and max(self.primes) > cap:
            raise BudgetError(f"prime {max(self.primes)} exceeds the Hall prime "
                              f"budget {cap} (override via {ENV_BUDGET})")
        if (len(self.primes) < 2 or len(set(self.primes)) != len(self.primes)
                or not all(is_prime(p) for p in self.primes)):
            raise ConfigError(f"primes must be at least two distinct primes, "
                              f"got {list(self.primes)}")
        holdout = next_prime(max(self.primes))
        if holdout > cap:
            raise BudgetError(f"holdout prime {holdout} after primes "
                              f"{list(self.primes)} exceeds the Hall prime "
                              f"budget {cap} (override via {ENV_BUDGET})")
        cfg = self
        if cfg.truncation is None:
            cfg = CampaignConfig(cfg.n, 2 * cfg.n, cfg.trials, cfg.seed, cfg.bound,
                                 cfg.explicit_z, cfg.primes, cfg.max_total,
                                 cfg.sabotage, cfg.verbose)
        if cfg.truncation < 1:
            raise ConfigError("truncation must be at least 1")
        if campaign in TORUS_COMMANDS:
            keys = _torus_key_count(cfg.n, cfg.truncation)
            if keys is None or keys > TORUS_KEY_BUDGET:
                shown = keys if keys is not None else f"more than {TORUS_KEY_BUDGET ** 2}"
                raise BudgetError(
                    f"truncation {cfg.truncation} at n = {cfg.n} needs {shown} "
                    f"torus keys; the budget is {TORUS_KEY_BUDGET}")
        if cfg.n > MAX_VERTICES:
            raise BudgetError(f"n = {cfg.n} exceeds the vertex budget {MAX_VERTICES}")
        if campaign == "hn-identity":
            # after the key cap, which bounds the truncation for this count
            classes = sum(_class_counts(cfg.n, cfg.truncation))
            if classes > ISO_CLASS_BUDGET:
                raise BudgetError(
                    f"truncation {cfg.truncation} at n = {cfg.n} has {classes} "
                    f"iso classes; the budget is {ISO_CLASS_BUDGET}")
        if cfg.explicit_z is not None and cfg.explicit_z.n != cfg.n:
            raise ConfigError("explicit stability function has the wrong n")
        if cfg.sabotage is not None:
            allowed = SABOTAGE_MODES.get(campaign or "", ())
            if cfg.sabotage not in allowed:
                raise ConfigError(
                    f"unknown sabotage mode {cfg.sabotage!r} for "
                    f"{campaign!r}; allowed: {', '.join(allowed) or 'none'}")
            if cfg.n == 2 and cfg.sabotage in ("flip-twist", "reverse-order"):
                raise ConfigError(
                    f"sabotage mode {cfg.sabotage!r} cannot fail at n = 2: the "
                    f"twist form vanishes there (λ ≡ 0), so the torus is commutative")
        return cfg


def _z_for_trial(cfg: CampaignConfig, i: int) -> StabilityFunction:
    if cfg.explicit_z is not None:
        return cfg.explicit_z
    return random_discrete(cfg.n, cfg.seed + i, cfg.bound)


def _element_digest(a: TorusElement) -> str:
    """sha256 of ``json.dumps(a.to_json(), sort_keys=True)``, written out
    without the nested structure: each distinct coefficient is rendered
    once by ``json.dumps``, and the fixed frame around the renderings and
    the dimension vectors has the keys in sorted order and the default
    separators.  A product has far fewer distinct coefficients than keys
    (92 for the 495 of an ez(4, 8) product).  The renderings are keyed on
    (t_low, numerator ints, exponents) of a coefficient, which determine
    its value, so no key hashes a denominator polynomial."""
    coeffs: Dict[object, str] = {}
    parts = []
    for d in sorted(a.terms):
        c = a.terms[d]
        key = (c.num.t_low, c.num._ints, c._exps)
        s = coeffs.get(key)
        if s is None:
            s = coeffs[key] = json.dumps(c.to_json(), sort_keys=True)
        parts.append(f'{{"coeff": {s}, "dim": [{", ".join(map(str, d))}]}}')
    blob = f'{{"n": {a.n}, "terms": [{", ".join(parts)}], "truncation": {a.truncation}}}'
    return sha256(blob.encode()).hexdigest()


def _finish(payload: dict, witness: list) -> Tuple[bool, dict]:
    payload["witness"] = witness
    payload["ok"] = not witness
    return not witness, payload


def _mismatch(cfg: CampaignConfig, a: TorusElement, b: TorusElement, **where) -> list:
    """The witness of one comparison: [] when a == b, else one entry holding
    the fields `where` and the diff a - b, capped at 20 terms unless verbose."""
    if a == b:
        return []
    return [dict(where, diff=torus_diff(a, b, None if cfg.verbose else 20))]


def _first(witnesses: Iterable[list]) -> list:
    """The first nonempty witness of a lazy sequence of comparisons, or []."""
    return next(filter(None, witnesses), [])


def _trial_products(cfg: CampaignConfig, payload: dict,
                    orders: List[List[DimVector]]) -> Tuple[bool, dict]:
    """The "all products agree" comparison: the ordered dilogarithm
    product of each trial's dimension vectors `orders`, with the orders
    and the digest of trial 0's product in the payload, and the witness
    of the first trial whose product differs from trial 0's.  Only trial
    0's product is kept: each later one is compared as soon as it is
    built, and dropped."""
    n, D = cfg.n, cfg.truncation
    products = (ordered_product([dilog(n, D, d) for d in dims], n, D) for dims in orders)
    first = next(products)
    payload["factor_orders"] = [[list(d) for d in dims] for dims in orders]
    payload["element_sha256"] = _element_digest(first)
    return _finish(payload, _first(_mismatch(cfg, first, b, trials=[0, i])
                                   for i, b in enumerate(products, 1)))


def _base(cfg: CampaignConfig, campaign: str) -> dict:
    return {
        "campaign": campaign,
        "n": cfg.n,
        "truncation": cfg.truncation,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "sabotage": cfg.sabotage,
    }


# ----------------------------------------------------------------------
# Stable objects
# ----------------------------------------------------------------------

def campaign_stables(cfg: CampaignConfig) -> Tuple[bool, dict]:
    cfg = cfg.check("stables")
    payload = _base(cfg, "stables")
    z = _z_for_trial(cfg, 0)
    payload["charges"] = z.to_json()["charges"]
    try:
        report = stable_objects(z)
    except NotDiscreteError as err:
        a, b = err.witness
        return _finish(payload, [{
            "reason": "equal phases",
            "pair": [[a.socle, a.length], [b.socle, b.length]],
        }])
    via_runs = delta_stable_via_ci(z)
    payload.update(report.to_json(z))
    payload["delta_via_runs"] = [via_runs.socle, via_runs.length]
    witness = []
    if via_runs != report.delta_stable:
        witness.append({
            "reason": "vertex-run location disagrees with brute force",
            "pair": [[via_runs.socle, via_runs.length],
                     [report.delta_stable.socle, report.delta_stable.length]],
        })
    return _finish(payload, witness)


# ----------------------------------------------------------------------
# Invariance of the stable-object product
# ----------------------------------------------------------------------

def campaign_invariance(cfg: CampaignConfig) -> Tuple[bool, dict]:
    cfg = cfg.check("invariance")
    if cfg.trials < 2:
        raise ConfigError("invariance needs at least 2 trials")
    payload = _base(cfg, "invariance")
    orders = []
    for i in range(cfg.trials):
        dims = stable_dims(_z_for_trial(cfg, i),
                           include_delta=(cfg.sabotage == "include-delta" and i == 0))
        orders.append(dims[::-1] if cfg.sabotage == "reverse-order" and i == 0 else dims)
    return _trial_products(cfg, payload, orders)


# ----------------------------------------------------------------------
# Invariance under the socle rotation
# ----------------------------------------------------------------------

def campaign_cyclic(cfg: CampaignConfig) -> Tuple[bool, dict]:
    cfg = cfg.check("cyclic")
    payload = _base(cfg, "cyclic")
    z = _z_for_trial(cfg, 0)
    dims, factors = ez_factors(z, cfg.truncation)
    if cfg.sabotage == "drop-factor":
        dims, factors = dims[:-1], factors[:-1]
    element = ordered_product(factors, cfg.n, cfg.truncation)
    payload["factor_order"] = [list(d) for d in dims]
    payload["element_sha256"] = _element_digest(element)
    return _finish(payload, _first(_mismatch(cfg, element, apply_translate(element, k),
                                             rotation=k) for k in range(1, cfg.n)))


# ----------------------------------------------------------------------
# Filtration identity
# ----------------------------------------------------------------------

def _distinct_phases_desc(z: StabilityFunction, truncation: int) -> List[GaussianRational]:
    """Charge of the first semistable uniserial per phase, phases decreasing."""
    first: Dict[Tuple[int, int], Indecomposable] = {}
    for r in z.quiver.enumerate_indecomposables(truncation):
        if is_semistable(z, r):
            x, y = z._icharge(r.socle, r.length)
            g = gcd(x, y)
            first.setdefault((x // g, y // g), r)
    return [charge_of_indec(z, r)
            for _, r in sort_by_decreasing_phase(first.items(), itemgetter(0))]


def campaign_hn_identity(cfg: CampaignConfig) -> Tuple[bool, dict]:
    cfg = cfg.check("hn-identity")
    payload = _base(cfg, "hn-identity")
    q = CyclicQuiver(cfg.n)
    flip = cfg.sabotage == "flip-twist"
    witness = []
    total = integrate_iso_sum(q, cfg.truncation)
    for i in range(cfg.trials):
        z = _z_for_trial(cfg, i)
        per_phase = TorusElement.one(cfg.n, cfg.truncation)
        for phase in _distinct_phases_desc(z, cfg.truncation):
            factor = semistable_phase_factor(z, cfg.truncation, phase)
            # a flipped twist multiplies on the left: lambda(d, e) = -lambda(e, d)
            per_phase = convolve(factor, per_phase) if flip else convolve(per_phase, factor)
        split = ez_delta(z, cfg.truncation) * ez(z, cfg.truncation)
        witness = (_mismatch(cfg, total, per_phase, trial=i,
                             comparison="iso-sum vs per-phase product")
                   or _mismatch(cfg, total, split, trial=i,
                                comparison="iso-sum vs central-factor split"))
        if witness:
            break
    return _finish(payload, witness)


# ----------------------------------------------------------------------
# Simple-root product identities
# ----------------------------------------------------------------------

def _pentagon_candidates(n: int, attempt: int
                         ) -> Tuple[StabilityFunction, StabilityFunction]:
    """Two stability functions with reversed simple orderings on the
    vertices 1..n-1 and a far-right charge on vertex n.  Attempts from
    PENTAGON_COARSE on jitter on a finer grid: past n = 20 the roughly
    n^2 stable phases collide on the 1/128 one."""
    x = Fraction((n - 2) * (n + 1), 2) + 1
    re1 = [Fraction(k - 1) for k in range(1, n)]
    re2 = [Fraction(n - 1 - k) for k in range(1, n)]
    if attempt:
        rng = random.Random(0x5EED ^ (attempt << 8))
        step, grid = (8, 128) if attempt < PENTAGON_COARSE else (1 << 16, 1 << 20)
        re1 = [r + Fraction(rng.randint(-step, step), grid) for r in re1]
        re2 = [r + Fraction(rng.randint(-step, step), grid) for r in re2]
        x = x + Fraction(rng.randint(0, step), grid)
    z1 = StabilityFunction.of([(r, Fraction(1)) for r in re1] + [(x, Fraction(1))])
    z2 = StabilityFunction.of([(r, Fraction(1)) for r in re2] + [(x, Fraction(1))])
    return z1, z2


def _short_root_dims(n: int) -> List[DimVector]:
    """Dimension vectors of the uniserials not touching vertex n."""
    q = CyclicQuiver(n)
    return [q.dim_of_indec(q.R(i, l))
            for i in range(1, n) for l in range(1, n - i + 1)]


def campaign_pentagon(cfg: CampaignConfig) -> Tuple[bool, dict]:
    cfg = cfg.check("pentagon")
    if cfg.n < 3:
        raise ConfigError("the residual identity needs n >= 3")
    payload = _base(cfg, "pentagon")
    q = CyclicQuiver(cfg.n)
    simples = [q.e(i) for i in range(1, cfg.n)]
    roots = set(_short_root_dims(cfg.n))
    found = None
    for attempt in range(2 * PENTAGON_COARSE):
        z1, z2 = _pentagon_candidates(cfg.n, attempt)
        try:
            dims1, dims2 = stable_dims(z1), stable_dims(z2)
        except NotDiscreteError:
            continue
        k = 0
        while (k < min(len(dims1), len(dims2))
               and dims1[-1 - k] == dims2[-1 - k]):
            k += 1
        if dims1[:len(dims1) - k] != simples:
            continue
        prefix2 = dims2[:len(dims2) - k]
        if set(prefix2) != roots or len(prefix2) != len(roots):
            continue
        found = (z1, z2, dims1, dims2, k)
        break
    if found is None:
        raise ConfigError(f"no valid charge arrangement found in {attempt + 1} attempts")
    z1, z2, dims1, dims2, k = found
    payload["charges"] = {"left": z1.to_json()["charges"],
                          "right": z2.to_json()["charges"]}
    payload["canceled"] = [list(d) for d in dims1[len(dims1) - k:]]
    payload["left_factors"] = [list(d) for d in dims1[:len(dims1) - k]]
    payload["right_factors"] = [list(d) for d in dims2[:len(dims2) - k]]

    n, D = cfg.n, cfg.truncation
    facs1 = [dilog(n, D, d) for d in dims1]
    facs2 = [dilog(n, D, d) for d in dims2]
    full1 = ordered_product(facs1, n, D)
    full2 = ordered_product(facs2, n, D)
    shared = ordered_product(facs1[len(facs1) - k:], n, D)
    shared_inv = torus_inverse(shared)
    residual1 = full1 * shared_inv
    residual2 = full2 * shared_inv
    left = ordered_product(facs1[:len(facs1) - k], n, D)
    rhs_factors = facs2[:len(facs2) - k]
    if cfg.sabotage == "reverse-residual":
        rhs_factors = rhs_factors[::-1]
    right = ordered_product(rhs_factors, n, D)

    residual = "residual vs left factorization"
    return _finish(payload,
                   _mismatch(cfg, full1, full2, comparison="full products")
                   or _mismatch(cfg, residual1 * shared, full1, comparison="cancellation sanity")
                   or _mismatch(cfg, residual1, left, comparison=residual)
                   or _mismatch(cfg, residual2, left, comparison=residual)
                   or _mismatch(cfg, left, right, comparison="simple-root identity"))


# ----------------------------------------------------------------------
# Radical-square-zero quotient instance
# ----------------------------------------------------------------------

def campaign_jacobian(cfg: CampaignConfig) -> Tuple[bool, dict]:
    cfg = cfg.check("jacobian")
    if cfg.n != 3:
        raise ConfigError("this campaign is specific to n = 3")
    payload = _base(cfg, "jacobian")
    q = CyclicQuiver(cfg.n)
    orders = []
    for i in range(cfg.trials):
        z0 = random_restricted_discrete(cfg.n, cfg.seed + i, max_length=2,
                                        bound=cfg.bound)
        z = perturb_to_ambient_discrete(z0, subcat_max_length=2)
        dims = [q.dim_of_indec(r) for r in stable_indecomposables_up_to(z, 2)]
        if cfg.sabotage == "include-delta" and i == 0:
            dims = [q.delta] + dims
        orders.append(dims)
    return _trial_products(cfg, payload, orders)


# ----------------------------------------------------------------------
# Integration homomorphism catalog
# ----------------------------------------------------------------------

def campaign_integration(cfg: CampaignConfig) -> Tuple[bool, dict]:
    cfg = cfg.check("integration")
    payload = _base(cfg, "integration")
    q = CyclicQuiver(cfg.n)
    budget = budget_from_env(CATALOG_BUDGET)
    if cfg.max_total > budget.hall_total:
        raise BudgetError(f"max_total {cfg.max_total} exceeds the Hall budget "
                          f"total {budget.hall_total} (override via {ENV_BUDGET})")
    pairs = _integration_pair_count(cfg.n, cfg.max_total)
    if pairs is None or pairs > INTEGRATION_PAIR_BUDGET:
        shown = pairs if pairs is not None else f"more than {INTEGRATION_PAIR_BUDGET}"
        raise BudgetError(f"max_total {cfg.max_total} at n = {cfg.n} needs {shown} "
                          f"class pairs; the budget is {INTEGRATION_PAIR_BUDGET}")
    twist = -1 if cfg.sabotage == "flip-twist" else 1
    # by ascending total, so each row ends at the first class too big
    classes = [(m, sum(r.length for r in m)) for m in q.enumerate_iso_classes(cfg.max_total)]
    checked = 0
    witness = []
    for left, a in classes:
        for right, b in classes:
            if a + b > cfg.max_total:
                break
            ok, report = check_integration_homomorphism(
                q, left, right, cfg.primes, budget, twist_sign=twist)
            checked += 1
            if not ok:
                witness.append({
                    "left": left.to_json(), "right": right.to_json(),
                    "lhs": report["lhs"], "rhs": report["rhs"],
                })
                break
        if witness:
            break
    payload["pairs_checked"] = checked
    return _finish(payload, witness)


# ----------------------------------------------------------------------
# Table and report commands
# ----------------------------------------------------------------------

def hall_table(cfg: CampaignConfig, sub: ModuleIso, quo: ModuleIso) -> Tuple[bool, dict]:
    cfg = cfg.check()
    q = CyclicQuiver(cfg.n)
    budget = budget_from_env(CATALOG_BUDGET)
    total = sum(r.length for r in sub + quo)
    if total > budget.hall_total:
        raise BudgetError(f"total {total} of L + M exceeds the Hall budget "
                          f"total {budget.hall_total} (override via {ENV_BUDGET})")
    table = hall_polynomials(q, sub, quo, cfg.primes, budget)[1]
    payload = _base(cfg, "hall")
    payload["L"] = sub.to_json()
    payload["M"] = quo.to_json()
    payload["polynomials"] = [t.to_json() for t in table]
    return _finish(payload, [])


def hn_report(cfg: CampaignConfig, module: ModuleIso) -> Tuple[bool, dict]:
    cfg = cfg.check()
    z = _z_for_trial(cfg, 0)
    strata = hn_filtration(z, module)
    payload = _base(cfg, "hn")
    payload["charges"] = z.to_json()["charges"]
    payload["module"] = module.to_json()
    payload["strata"] = [{"subquotient": m.to_json(),
                          "charge": c.to_json()} for m, c in strata]
    return _finish(payload, [])


def ez_report(cfg: CampaignConfig) -> Tuple[bool, dict]:
    cfg = cfg.check("ez")
    z = _z_for_trial(cfg, 0)
    element = ez(z, cfg.truncation)
    payload = _base(cfg, "ez")
    payload["charges"] = z.to_json()["charges"]
    payload["element"] = element.to_json()
    return _finish(payload, [])


CAMPAIGNS = {
    "invariance": campaign_invariance,
    "cyclic": campaign_cyclic,
    "hn-identity": campaign_hn_identity,
    "pentagon": campaign_pentagon,
    "jacobian": campaign_jacobian,
    "integration": campaign_integration,
}
