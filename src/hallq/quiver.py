"""Combinatorics of nilpotent representations of a cyclic quiver.

The quiver has vertices 1..n arranged in a cycle.  Every indecomposable
nilpotent representation is uniserial and is written R(i, l): socle the
simple S_i, length l, composition series S_i, S_{i+1}, ..., S_{i+l-1}
read from the bottom up (indices mod n).  Subobjects of R(i, l) form the
chain R(i, k) for k <= l, with quotient R(i+k, l-k).

Dimension vectors are plain tuples of n nonnegative integers.  The Euler
form here is chi(e_i, e_j) = [i = j] - [j = i - 1 mod n]; its
antisymmetrisation lambda vanishes against the cyclic vector delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .exact import LaurentPoly

DimVector = Tuple[int, ...]


@dataclass(frozen=True)
class Indecomposable:
    """R(socle, length): the uniserial with the given socle index, 1-based."""

    socle: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be positive")
        if self.socle < 1:
            raise ValueError("socle index is 1-based")

    def __str__(self) -> str:
        return f"R({self.socle},{self.length})"


@dataclass(frozen=True)
class ModuleIso:
    """Isomorphism class of a finite module: a sorted multiset of uniserials."""

    summands: Tuple[Indecomposable, ...]

    @staticmethod
    def of(*parts: Indecomposable) -> "ModuleIso":
        return ModuleIso(tuple(sorted(parts, key=lambda r: (r.socle, r.length))))

    @staticmethod
    def zero() -> "ModuleIso":
        return ModuleIso(())

    def __post_init__(self):
        key = [(r.socle, r.length) for r in self.summands]
        if key != sorted(key):
            raise ValueError("summands must be sorted by (socle, length)")

    @property
    def is_zero(self) -> bool:
        return not self.summands

    def __iter__(self) -> Iterator[Indecomposable]:
        return iter(self.summands)

    def __len__(self) -> int:
        return len(self.summands)

    def __add__(self, other: "ModuleIso") -> "ModuleIso":
        return ModuleIso.of(*(self.summands + other.summands))

    def counts(self) -> Dict[Indecomposable, int]:
        out: Dict[Indecomposable, int] = {}
        for r in self.summands:
            out[r] = out.get(r, 0) + 1
        return out

    def __str__(self) -> str:
        if not self.summands:
            return "0"
        return " + ".join(str(r) for r in self.summands)

    def to_json(self) -> list:
        return [[r.socle, r.length] for r in self.summands]

    @staticmethod
    def from_json(data: Sequence[Sequence[int]]) -> "ModuleIso":
        return ModuleIso.of(*(Indecomposable(int(a), int(b)) for a, b in data))


class CyclicQuiver:
    """The cycle on n >= 2 vertices together with its dimension arithmetic."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need at least two vertices")
        object.__setattr__(self, "n", n)

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("CyclicQuiver is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CyclicQuiver) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("CyclicQuiver", self.n))

    def __repr__(self) -> str:
        return f"CyclicQuiver({self.n})"

    # -- vertices and dimension vectors ---------------------------------

    def vertex(self, i: int) -> int:
        """Normalise an integer to the 1-based vertex range."""
        return (i - 1) % self.n + 1

    def e(self, i: int) -> DimVector:
        v = [0] * self.n
        v[self.vertex(i) - 1] = 1
        return tuple(v)

    @property
    def delta(self) -> DimVector:
        return (1,) * self.n

    def R(self, socle: int, length: int) -> Indecomposable:
        return Indecomposable(self.vertex(socle), length)

    def simple(self, i: int) -> Indecomposable:
        return self.R(i, 1)

    def dim_of_indec(self, r: Indecomposable) -> DimVector:
        return self.dim_of((r,))

    def dim_of(self, m: Iterable[Indecomposable]) -> DimVector:
        """Dimension vector of a module, or of any list of its summands."""
        v = [0] * self.n
        for r in m:
            for j in range(r.length):
                v[(r.socle - 1 + j) % self.n] += 1
        return tuple(v)

    def top(self, r: Indecomposable) -> int:
        return self.vertex(r.socle + r.length - 1)

    # -- subobject chain --------------------------------------------------

    def subobjects(self, r: Indecomposable) -> List[Indecomposable]:
        """Proper and improper nonzero subobjects R(i, k), k = 1..length."""
        return [Indecomposable(r.socle, k) for k in range(1, r.length + 1)]

    def chain_quotient(self, r: Indecomposable, k: int) -> Indecomposable:
        """R(i, l) / R(i, k) = R(i+k, l-k); requires 0 < k < l."""
        if not 0 < k < r.length:
            raise ValueError("quotient needs a proper nonzero subobject")
        return self.R(r.socle + k, r.length - k)

    # -- bilinear forms ---------------------------------------------------

    def euler_form(self, d: DimVector, e: DimVector) -> int:
        n = self.n
        return sum(d[a] * e[a] for a in range(n)) - sum(d[a] * e[a - 1] for a in range(n))

    def lambda_form(self, d: DimVector, e: DimVector) -> int:
        n = self.n
        return sum(d[a] * (e[(a + 1) % n] - e[a - 1]) for a in range(n))

    # -- hom spaces ---------------------------------------------------------

    def hom_dim(self, a: Indecomposable, b: Indecomposable) -> int:
        """dim Hom(R(i,l), R(j,m)) = #{1 <= s <= min(l,m) : s = i+l-j mod n}."""
        r = (a.socle + a.length - b.socle) % self.n
        hi = min(a.length, b.length)
        if r == 0:
            r = self.n
        if r > hi:
            return 0
        return (hi - r) // self.n + 1

    def hom_dim_modules(self, a: ModuleIso, b: ModuleIso) -> int:
        return sum(self.hom_dim(x, y) for x in a.summands for y in b.summands)

    def end_dim(self, m: ModuleIso) -> int:
        return self.hom_dim_modules(m, m)

    # -- automorphism counts -------------------------------------------------

    def aut_q_coeffs(self, m: ModuleIso) -> Dict[int, int]:
        """|Aut(M over F_q)| as a polynomial in q: exponent -> coefficient.

        For M with pairwise nonisomorphic parts R_r of multiplicity m_r,
        |Aut M| = q^(dim End M) * prod_r prod_{k=1..m_r} (1 - q^-k).
        """
        e = self.end_dim(m)
        k_total = 0
        poly = {0: 1}
        for mult in m.counts().values():
            k_total += mult * (mult + 1) // 2
            for k in range(1, mult + 1):
                nxt: Dict[int, int] = {}
                for exp, c in poly.items():
                    nxt[exp + k] = nxt.get(exp + k, 0) + c
                    nxt[exp] = nxt.get(exp, 0) - c
                poly = {exp: c for exp, c in nxt.items() if c}
        return {exp + e - k_total: c for exp, c in poly.items()}

    def aut_poly(self, m: ModuleIso) -> LaurentPoly:
        """|Aut(M)| as a polynomial in t with q = t**2 substituted."""
        coeffs = self.aut_q_coeffs(m)
        if not coeffs:
            return LaurentPoly.one()
        lo = min(coeffs)
        hi = max(coeffs)
        dense = [0] * (2 * (hi - lo) + 1)
        for exp, c in coeffs.items():
            dense[2 * (exp - lo)] = c
        return LaurentPoly(2 * lo, dense)

    def aut_value(self, m: ModuleIso, p: int) -> int:
        total = 0
        for exp, c in self.aut_q_coeffs(m).items():
            total += c * p ** exp
        return total

    # -- Auslander-Reiten translation -----------------------------------------

    def translate(self, r: Indecomposable) -> Indecomposable:
        """tau R(i, l) = R(i-1, l)."""
        return self.R(r.socle - 1, r.length)

    def translate_inv(self, r: Indecomposable) -> Indecomposable:
        return self.R(r.socle + 1, r.length)

    def translate_module(self, m: ModuleIso) -> ModuleIso:
        return ModuleIso.of(*(self.translate(r) for r in m.summands))

    def translate_dim(self, d: DimVector) -> DimVector:
        """(tau d)_j = d_{j+1 mod n}; dim(tau M) = tau(dim M)."""
        n = self.n
        return tuple(d[(j + 1) % n] for j in range(n))

    # -- enumeration ------------------------------------------------------------

    def enumerate_indecomposables(self, max_length: int) -> List[Indecomposable]:
        """All R(i, l) with l <= max_length, ordered by (length, socle)."""
        return [Indecomposable(i, l)
                for l in range(1, max_length + 1)
                for i in range(1, self.n + 1)]

    def enumerate_iso_classes(self, max_total: int) -> Iterator[ModuleIso]:
        """All iso classes of total dimension <= max_total, zero included.

        Deterministic order: total dimension ascending, then the sorted
        summand lists lexicographically.
        """
        indecs = [Indecomposable(i, l)
                  for i in range(1, self.n + 1)
                  for l in range(1, max_total + 1)]
        indecs.sort(key=lambda r: (r.socle, r.length))
        by_total: Dict[int, List[Tuple[Indecomposable, ...]]] = {k: [] for k in range(max_total + 1)}

        def extend(start: int, budget: int, acc: List[Indecomposable]):
            by_total[max_total - budget].append(tuple(acc))
            for idx in range(start, len(indecs)):
                l = indecs[idx].length
                if l <= budget:
                    acc.append(indecs[idx])
                    extend(idx, budget - l, acc)
                    acc.pop()

        extend(0, max_total, [])
        for total in range(max_total + 1):
            for summands in sorted(by_total[total],
                                   key=lambda ss: [(r.socle, r.length) for r in ss]):
                yield ModuleIso(summands)

    def enumerate_with_dim(self, d: DimVector) -> List[ModuleIso]:
        """All iso classes with the exact dimension vector d."""
        return [m for m in self.enumerate_iso_classes(sum(d)) if self.dim_of(m) == d]


def count_congruent(lo: int, hi: int, r: int, n: int) -> int:
    """#{s : lo <= s <= hi, s = r mod n}; small helper shared with tests."""
    if hi < lo:
        return 0
    r = r % n
    first = lo + (r - lo) % n
    if first > hi:
        return 0
    return (hi - first) // n + 1
