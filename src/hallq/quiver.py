"""Combinatorics of nilpotent representations of a cyclic quiver.

The quiver has vertices 1..n arranged in a cycle.  Every indecomposable
nilpotent representation is uniserial and is written R(i, l): socle the
simple S_i, length l, composition series S_i, S_{i+1}, ..., S_{i+l-1}
read from the bottom up (indices mod n).  Subobjects of R(i, l) form the
chain R(i, k) for k <= l, with quotient R(i+k, l-k), as
`hall.submodule_census` lists them; the translation tau R(i, l) =
R(i-1, l) rotates dimension vectors, as `torus.apply_translate` does.

A uniserial is the named pair `Indecomposable(socle, length)`, and an
iso class, `ModuleIso`, is the tuple of its summands sorted as pairs;
both compare, hash and sort as the plain tuples they are.  Dimension
vectors are plain tuples of n nonnegative integers.  The Euler
form here is chi(e_i, e_j) = [i = j] - [j = i - 1 mod n]; its
antisymmetrisation lambda vanishes against the cyclic vector delta.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import groupby
from operator import gt, mul, sub
from typing import Iterable, Iterator, List, Sequence, Tuple

from .exact import Immutable, LaurentPoly

DimVector = Tuple[int, ...]


class Indecomposable(namedtuple("Indecomposable", "socle length")):
    """R(socle, length): the uniserial with the given socle index, 1-based.

    A named tuple, so equality, hash and order are those of the pair
    (socle, length)."""

    __slots__ = ()

    def __new__(cls, socle: int, length: int):
        if length < 1:
            raise ValueError("length must be positive")
        if socle < 1:
            raise ValueError("socle index is 1-based")
        return tuple.__new__(cls, (socle, length))

    def __str__(self) -> str:
        return f"R({self.socle},{self.length})"


class ModuleIso(tuple):
    """Isomorphism class of a finite module: the tuple of its uniserial
    summands, sorted by (socle, length).

    Equality, hash and order are those of the tuple, so sorting classes
    sorts them as their JSON lists.  Tuple `+` of two classes gives a
    plain tuple, unsorted: `ModuleIso.of(*a, *b)` is the direct sum."""

    __slots__ = ()

    def __new__(cls, summands: Iterable[Indecomposable] = ()):
        m = tuple.__new__(cls, summands)
        if any(map(gt, m, m[1:])):
            raise ValueError("summands must be sorted by (socle, length)")
        return m

    @staticmethod
    def of(*parts: Indecomposable) -> "ModuleIso":
        return ModuleIso(sorted(parts))

    @staticmethod
    def zero() -> "ModuleIso":
        return ModuleIso()

    def __repr__(self) -> str:
        return f"ModuleIso({tuple(self)!r})"

    def __str__(self) -> str:
        return " + ".join(map(str, self)) or "0"

    def to_json(self) -> list:
        return [list(r) for r in self]


@lru_cache(maxsize=None)
def _aut_factors(n: int, m: ModuleIso) -> Tuple[int, Tuple[int, ...]]:
    """`CyclicQuiver(n).aut_factors(m)`: the one-summand increment of
    :meth:`CyclicQuiver.aut_exponents` folded over the summands of M, run
    by run; ks lists 1..m_r for every part R_r of multiplicity m_r,
    ascending.  The Hall tables of one command ask for the same classes
    again and again: the integration catalog at n = 3 makes 423 requests
    for 35 classes."""
    parts, steps = [], []
    for j, (r, run) in enumerate(groupby(m)):
        parts.append(r)
        for k, _ in enumerate(run, 1):
            steps.append((len(steps) + 1, j, k))
    e = 0
    for _, _, _, e in CyclicQuiver(n).aut_exponents(parts, steps):
        pass
    return e, tuple(sorted(k for _, _, k in steps))


class CyclicQuiver(Immutable):
    """The cycle on n >= 2 vertices together with its dimension arithmetic."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need at least two vertices")
        object.__setattr__(self, "n", n)

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

    # -- bilinear forms ---------------------------------------------------

    def euler_form(self, d: DimVector, e: DimVector) -> int:
        n = self.n
        return sum(d[a] * e[a] for a in range(n)) - sum(d[a] * e[a - 1] for a in range(n))

    def lambda_form(self, d: DimVector, e: DimVector) -> int:
        return sum(map(mul, d, self.lambda_row(e)))

    def lambda_row(self, e: DimVector) -> DimVector:
        """The vector r with lambda(d, e) = d . r: r_a = e_(a+1) - e_(a-1)."""
        return tuple(map(sub, e[1:] + e[:1], e[-1:] + e[:-1]))

    # -- hom spaces ---------------------------------------------------------

    def _hom_table(self, ra: list, rb: list) -> List[List[int]]:
        """m_r m_s dim Hom(R_r, R_s), one row per run r of ra and one entry
        per run s of rb, runs given as (socle, length, m)."""
        n, table = self.n, []
        for i, l, ma in ra:
            row = []
            for j, m, mb in rb:
                r = (i + l - j) % n or n
                hi = l if l < m else m
                row.append(ma * mb * ((hi - r) // n + 1) if r <= hi else 0)
            table.append(row)
        return table

    # -- automorphism counts -------------------------------------------------

    def aut_factors(self, m: ModuleIso) -> Tuple[int, Tuple[int, ...]]:
        """(e, ks) with |Aut(M over F_q)| = q^e * prod_{k in ks} (q^k - 1),
        computed once per (n, M) by `_aut_factors`."""
        return _aut_factors(self.n, m)

    def aut_exponents(self, parts: Sequence[Tuple[int, int]],
                      steps: Iterable[Tuple[int, int, int]]) -> Iterator[Tuple[int, int, int, int]]:
        """(depth, i, m, e) per step (depth, i, m), as :func:`multiset_walk`
        yields them, of a walk over multisets of the uniserials R(socle,
        length) in `parts`: e is the exponent of |Aut M| = q^e * prod_{k in
        ks} (q^k - 1) for the multiset M the step reaches, whose ks are those
        of its parent with m added.

        With |Aut M| = q^(dim End M) * prod_r prod_{k=1..m_r} (1 - q^-k),
        e = dim End M - sum_r m_r (m_r + 1) / 2; adding R_i to a class that
        holds it m - 1 times adds dim End R_i, dim Hom(R_i, R) + dim Hom(R,
        R_i) for each summand R of the class, and -m.  The Hom numbers are
        one table over `parts`; a walk adds the indices in ascending order,
        so row i holds the indices <= i alone.
        """
        runs = [(s, l, 1) for s, l in parts]
        hom = self._hom_table(runs, runs)
        ends = [hom[i][i] for i in range(len(runs))]
        rows = [[hom[i][j] + hom[j][i] for j in range(i + 1)] for i in range(len(runs))]
        es, path = [0], []
        for depth, i, m in steps:
            del es[depth:], path[depth - 1:]
            e = es[-1] + ends[i] - m + sum(map(rows[i].__getitem__, path))
            es.append(e)
            path.append(i)
            yield depth, i, m, e

    def aut_poly(self, m: ModuleIso) -> LaurentPoly:
        """|Aut(M)| as a polynomial in t with q = t**2 substituted."""
        e, ks = self.aut_factors(m)
        out = LaurentPoly.q_power(e)
        for k in ks:
            out = out * (LaurentPoly.q_power(k) - LaurentPoly.one())
        return out

    # -- enumeration ------------------------------------------------------------

    def enumerate_indecomposables(self, max_length: int) -> List[Indecomposable]:
        """All R(i, l) with l <= max_length, ordered by (length, socle)."""
        return [Indecomposable(i, l)
                for l in range(1, max_length + 1)
                for i in range(1, self.n + 1)]

    def enumerate_iso_classes(self, max_total: int) -> List[ModuleIso]:
        """All iso classes of total dimension <= max_total, zero included.

        Deterministic order: total dimension ascending, then the sorted
        summand lists lexicographically.
        """
        found = multisets_with_budget(self.enumerate_indecomposables(max_total), max_total)
        return sorted(found, key=lambda m: sum(r.length for r in m))

    def enumerate_with_dim(self, d: DimVector) -> List[ModuleIso]:
        """All iso classes with the exact dimension vector d, in the order
        of `enumerate_iso_classes`; only uniserials that fit under d are
        tried."""
        fits = [r for r in self.enumerate_indecomposables(sum(d))
                if all(a <= b for a, b in zip(self.dim_of_indec(r), d))]
        return [m for m in multisets_with_budget(fits, sum(d))
                if self.dim_of(m) == d]


def multiset_walk(weights: Sequence[int], budget: int) -> Iterator[Tuple[int, int, int]]:
    """(depth, i, m) per nonempty multiset of indices into `weights` (each
    positive) of total weight <= budget; none when the budget is negative.

    The walk runs depth first with each index list ascending, so the lists
    come out in lexicographic order.  A multiset of `depth` indices is the
    one the walk last reached at depth - 1 (the empty one at depth 0) with
    index i added, which it then holds m times.  A part heavier than the
    weight left is passed in one jump to the next lighter part: every
    index in between weighs at least as much.
    """
    top = len(weights)
    # lighter[i]: the first index after i of strictly smaller weight, or top
    lighter, later = [top] * top, []
    for i in range(top - 1, -1, -1):
        while later and weights[later[-1]] >= weights[i]:
            later.pop()
        if later:
            lighter[i] = later[-1]
        later.append(i)
    # per open multiset: next index to try, weight left, last index, its multiplicity
    stack = [[0, budget, -1, 0]] if budget >= 0 else []
    while stack:
        frame = stack[-1]
        i, left, last, m = frame
        while i < top and weights[i] > left:
            i = lighter[i]
        if i == top:
            stack.pop()
            continue
        frame[0] = i + 1
        m = m + 1 if i == last else 1
        yield len(stack), i, m
        stack.append([i, left - weights[i], i, m])


def multisets_with_budget(parts: Iterable[Indecomposable], budget: int) -> List[ModuleIso]:
    """All multisets of the given parts with total length <= budget; none
    when the budget is negative.

    One :func:`multiset_walk` over the parts sorted by (socle, length), so
    the summand lists come out lexicographically ascending, the zero class
    first.
    """
    if budget < 0:
        return []
    parts = sorted(parts)
    out = [ModuleIso()]
    acc: List[Indecomposable] = []
    for depth, i, _ in multiset_walk([r.length for r in parts], budget):
        del acc[depth - 1:]
        acc.append(parts[i])
        out.append(ModuleIso(acc))
    return out

