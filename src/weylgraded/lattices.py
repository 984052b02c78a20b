"""Rank-1 graded projective modules as fractional lattices inside D.

A lattice stores one monic cyclic k[z]-generator g_m per degree m of a finite
window [lo, hi]; outside the window the generators follow the saturated tail
rules g_m = g_hi for m > hi and g_m = g_{m+1} (z+m) for m < lo.  The right
A-module conditions are degreewise divisibilities:

    g_{m+1} | g_m            (closure under right multiplication by x)
    g_m | g_{m+1} (z+m)      (closure under right multiplication by y)

Along each root line z = -j the exponent of (z+j) is constant except for a
possible single unit drop between degrees j and j+1; the drop occurring is
exactly "X<j> is a simple factor", which makes isomorphism testing and the
involution functors completely mechanical.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .zfin import FinSet, absorb_shift
from .skew import RationalPoly, fractional_lcm


@dataclass(frozen=True)
class SimpleLabel:
    """A graded simple module: X(n), Y(n), or M(lam) with lam rational non-integral."""

    kind: str
    n: int | None = None
    param: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind in ("X", "Y"):
            if self.n is None or self.param is not None:
                raise ValueError(f"{self.kind}-labels carry an integer index")
        elif self.kind == "M":
            if self.param is None or self.n is not None:
                raise ValueError("M-labels carry a rational parameter")
            if Fraction(self.param).denominator == 1:
                raise ValueError("M-parameters must be non-integral")
        else:
            raise ValueError(f"unknown simple kind {self.kind!r}")

    @classmethod
    def X(cls, n: int) -> "SimpleLabel":
        return cls("X", n=n)

    @classmethod
    def Y(cls, n: int) -> "SimpleLabel":
        return cls("Y", n=n)

    @classmethod
    def M(cls, lam) -> "SimpleLabel":
        return cls("M", param=Fraction(lam))

    def __str__(self) -> str:
        if self.kind == "M":
            return f"M({self.param})"
        return f"{self.kind}({self.n})"


@dataclass(frozen=True)
class DSet:
    """Isomorphism invariant of a rank-1 projective: its X-side factor set.

    The actual set is Z>=0 XOR exceptions; only the finite deviation from the
    base ray is stored.
    """

    exceptions: FinSet

    def __contains__(self, j: int) -> bool:
        return (j >= 0) != (j in self.exceptions)

    def min_element(self) -> int:
        neg = [j for j in self.exceptions if j < 0]
        if neg:
            return min(neg)
        t = 0
        while t in self.exceptions:
            t += 1
        return t

    def __str__(self) -> str:
        return f"Z>=0 xor {self.exceptions}"

    def to_json(self) -> dict:
        return {"exceptions": self.exceptions.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "DSet":
        return cls(FinSet.from_json(data["exceptions"]))


class GradedLattice:
    """Graded submodule of D with one cyclic generator per degree."""

    __slots__ = ("_lo", "_hi", "_gens")

    def __init__(self, lo: int, gens: Sequence[RationalPoly]) -> None:
        if not gens:
            raise ValueError("a lattice needs at least one stored generator")
        norm: list[RationalPoly] = []
        for g in gens:
            if not isinstance(g, RationalPoly):
                g = RationalPoly(g)
            if g.is_zero():
                raise ValueError("lattice generators must be nonzero")
            norm.append(g.monic())
        hi = lo + len(norm) - 1
        # canonical window: drop degrees the tail rules reproduce
        while hi > lo and norm[-1] == norm[-2]:
            norm.pop()
            hi -= 1
        while lo < hi and norm[0] == norm[1] * RationalPoly.linear(lo):
            norm.pop(0)
            lo += 1
        self._lo, self._hi = lo, hi
        self._gens = tuple(norm)

    @classmethod
    def free(cls) -> "GradedLattice":
        """The lattice of A itself: g_m = 1 for m >= 0, left tail below."""
        return cls(0, [RationalPoly.one()])

    @classmethod
    def from_generators(cls, gens: Mapping[int, RationalPoly]) -> "GradedLattice":
        degrees = sorted(gens)
        if degrees != list(range(degrees[0], degrees[-1] + 1)):
            raise ValueError("generator map must cover a contiguous window")
        return cls(degrees[0], [gens[m] for m in degrees])

    @property
    def lo(self) -> int:
        return self._lo

    @property
    def hi(self) -> int:
        return self._hi

    @property
    def generators(self) -> dict[int, RationalPoly]:
        return {self._lo + i: g for i, g in enumerate(self._gens)}

    def generator_at(self, m: int) -> RationalPoly:
        if m >= self._hi:
            return self._gens[-1]
        if m >= self._lo:
            return self._gens[m - self._lo]
        g = self._gens[0]
        for t in range(m, self._lo):
            g = g * RationalPoly.linear(t)
        return g

    # functor actions ---------------------------------------------------------

    def involute(self, j: int) -> "GradedLattice":
        """Apply the involution at index j: pass to the reject of F_j.

        When F_j is X(j) the degrees <= j are multiplied by (z+j); when it is
        Y(j) the degrees >= j+1 are.  Both tail rules survive the ray scaling.
        """
        lo, hi = min(self._lo, j), max(self._hi, j + 1)
        gens = [self.generator_at(m) for m in range(lo, hi + 1)]
        zj = RationalPoly.linear(j)
        if not self._drops_at(j):
            gens = [g * zj if lo + i <= j else g for i, g in enumerate(gens)]
        else:
            gens = [g * zj if lo + i >= j + 1 else g for i, g in enumerate(gens)]
        return GradedLattice(lo, gens)

    def _drops_at(self, j: int) -> bool:
        """Whether the exponent of (z+j) drops between degrees j and j+1."""
        return (self.generator_at(j) / self.generator_at(j + 1)).multiplicity(j) != 0

    def shifted(self, s: int) -> "GradedLattice":
        """Left multiplication by x^s: the degree shift functor on lattices."""
        return GradedLattice(self._lo + s, [g.shift(s) for g in self._gens])

    def scaled(self, f: RationalPoly) -> "GradedLattice":
        """Left-multiply every degree piece by the nonzero rational function f."""
        if not isinstance(f, RationalPoly):
            f = RationalPoly(f)
        if f.is_zero():
            raise ValueError("cannot scale a lattice by zero")
        return GradedLattice(self._lo, [g * f for g in self._gens])

    # comparison / presentation -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GradedLattice)
            and self._lo == other._lo
            and self._hi == other._hi
            and self._gens == other._gens
        )

    def __hash__(self) -> int:
        return hash((self._lo, self._hi, self._gens))

    def __repr__(self) -> str:
        inner = ", ".join(f"{m}: {g}" for m, g in self.generators.items())
        return f"GradedLattice[{self._lo}..{self._hi}]({inner})"

    def to_json(self) -> dict:
        return {
            "lo": self._lo,
            "hi": self._hi,
            "gens": {str(m): g.to_json() for m, g in self.generators.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "GradedLattice":
        gens = {int(m): RationalPoly.from_json(g) for m, g in data["gens"].items()}
        return cls.from_generators(gens)


def iota_lattice(J: FinSet | Iterable[int], shift: int = 0) -> GradedLattice:
    """The lattice of iota_J(A) shifted by the given degree."""
    L = GradedLattice.free()
    for j in sorted(FinSet(J)):
        L = L.involute(j)
    return L.shifted(shift) if shift else L


def lattice_intersect(L1: GradedLattice, L2: GradedLattice) -> GradedLattice:
    """Degreewise intersection; generators are the fractional lcm per degree."""
    lo, hi = min(L1.lo, L2.lo), max(L1.hi, L2.hi)
    gens = [
        fractional_lcm([L1.generator_at(m), L2.generator_at(m)])
        for m in range(lo, hi + 1)
    ]
    return GradedLattice(lo, gens)


def is_A_module(L: GradedLattice) -> bool:
    """Check the x/y divisibility closures on the window (tails hold by shape)."""
    for m in range(L.lo - 1, L.hi + 1):
        g_m, g_next = L.generator_at(m), L.generator_at(m + 1)
        if not g_next.divides(g_m):
            return False
        if not g_m.divides(g_next * RationalPoly.linear(m)):
            return False
    return True


def simple_factor(L: GradedLattice, j: int) -> SimpleLabel:
    """F_j(L): X(j) when the root line z=-j does not drop at j, else Y(j)."""
    return SimpleLabel.Y(j) if L._drops_at(j) else SimpleLabel.X(j)


def to_dset(J: FinSet | Iterable[int], shift: int = 0) -> DSet:
    """DSet of iota_J(A)<shift> by pure set arithmetic: (ray xor J) + shift."""
    return DSet(absorb_shift(FinSet(J), shift))


def lattice_dset(L: GradedLattice) -> DSet:
    """DSet read directly off the lattice's simple factors."""
    lo = min(L.lo - 1, -1)
    hi = max(L.hi + 1, 1)
    exc = [
        j
        for j in range(lo, hi + 1)
        if (j >= 0) != (simple_factor(L, j).kind == "X")
    ]
    return DSet(FinSet(exc))


def hom_generator(P: GradedLattice, Q: GradedLattice) -> RationalPoly:
    """Monic generator of {q in k(z) : q P <= Q}; q P <= Q is then maximal.

    The degree-m constraint is q in (g^Q_m / g^P_m) k[z]; the ratios stabilize
    outside the union window, so a finite lcm suffices.
    """
    lo, hi = min(P.lo, Q.lo), max(P.hi, Q.hi)
    ratios = [Q.generator_at(m) / P.generator_at(m) for m in range(lo - 1, hi + 2)]
    return fractional_lcm(ratios).monic()


def cokernel_support(
    P: GradedLattice, Q: GradedLattice
) -> tuple[tuple[Fraction, int], ...]:
    """Support multiset of Q / h P for the maximal embedding h = hom_generator.

    The degree-m annihilator is q_m = h g^P_m / g^Q_m; a simple supported at
    -j contributes the factor (z+j) on exactly one side of the transition
    between degrees j and j+1, so the multiset is read off the two
    multiplicities there.
    """
    h = hom_generator(P, Q)
    lo, hi = min(P.lo, Q.lo), max(P.hi, Q.hi)
    cache: dict[int, RationalPoly] = {}

    def annihilator(m: int) -> RationalPoly:
        if m not in cache:
            q = h * P.generator_at(m) / Q.generator_at(m)
            if not q.is_polynomial():
                raise ArithmeticError(
                    f"degree-{m} multiplier is not integral; hom generator is wrong"
                )
            cache[m] = q
        return cache[m]

    candidates = range(lo - 2, hi + 2)
    support: dict[Fraction, int] = {}
    for j in candidates:
        count = annihilator(j).multiplicity(j) + annihilator(j + 1).multiplicity(j)
        if count:
            support[Fraction(-j)] = count
    # every annihilator on the window must factor into the candidate lines
    for m in range(lo - 1, hi + 2):
        q = annihilator(m)
        if sum(q.multiplicity(j) for j in candidates) != q.degree():
            raise ValueError(
                "cokernel is not integrally supported on the expected window; "
                "inputs are outside the involution family"
            )
    return tuple(sorted(support.items()))


def ext_dim_simples(S: SimpleLabel, S2: SimpleLabel) -> int:
    """dim ext^1 in gr-A between two simples.

    The only nonsplit extensions are between X(n) and Y(n) at the same index
    (either order) and M(lam) by itself; everything else vanishes.
    """
    if S.kind in ("X", "Y") and S2.kind in ("X", "Y"):
        return 1 if (S.kind != S2.kind and S.n == S2.n) else 0
    if S.kind == "M" and S2.kind == "M":
        return 1 if S.param == S2.param else 0
    return 0
