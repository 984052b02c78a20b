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

Every generator is a product of powers of (z+j) with integer j, so it is
stored as its root-to-exponent map: products add exponents, intersections
and hom generators take maxima, divisibility compares them, and no
polynomial gcd is ever taken.  A RationalPoly that does not split over
integer roots is rejected with ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import isqrt
from typing import Iterable, Mapping, Sequence

from .zfin import FinSet, absorb_shift
from .skew import RationalPoly


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


# A factored generator: sorted pairs (j, e) with integer root j and nonzero
# exponent e, standing for the product of the (z+j)^e; e < 0 is a denominator.
_Factored = tuple


def _mul(a: _Factored, b: _Factored, sign: int = 1) -> _Factored:
    """a * b^sign: the exponents add."""
    exps = dict(a)
    for j, e in b:
        exps[j] = exps.get(j, 0) + sign * e
    return tuple(sorted(p for p in exps.items() if p[1]))


def _lcm(a: _Factored, b: _Factored) -> _Factored:
    """Generator of a k[z] intersected with b k[z]: the larger exponent per root."""
    ea, eb = dict(a), dict(b)
    return tuple(sorted(
        (j, e) for j in ea.keys() | eb.keys() if (e := max(ea.get(j, 0), eb.get(j, 0)))
    ))


def _integral(a: _Factored) -> bool:
    """Whether a lies in k[z]: no exponent is negative."""
    return all(e > 0 for _, e in a)


def _exponent(a: _Factored, j: int) -> int:
    return next((e for r, e in a if r == j), 0)


def _deflate(cs: list[int], j: int) -> list[int] | None:
    """cs / (z+j) by synthetic division, or None when (z+j) does not divide cs."""
    q = [0] * (len(cs) - 1)
    acc = 0
    for i in range(len(cs) - 1, 0, -1):
        acc = cs[i] - j * acc
        q[i - 1] = acc
    return q if cs[0] == j * acc else None


def _integer_roots(coeffs: tuple, g: RationalPoly) -> dict[int, int]:
    """Exponent of each (z+j) in c * prod (z+j); ValueError if coeffs do not split so."""
    lc = coeffs[-1]
    monic = coeffs if lc == 1 else [Fraction(c, lc) for c in coeffs]
    if any(c.denominator != 1 for c in monic):
        raise ValueError(f"{g} does not split over integer roots")
    cs = [c.numerator for c in monic]
    d = len(cs) - 1
    e1 = cs[d - 1] if d >= 1 else 0
    e2 = cs[d - 2] if d >= 2 else 0
    # the squares of the roots sum to e1^2 - 2 e2, which bounds each |j|
    bound = isqrt(max(e1 * e1 - 2 * e2, 0))
    roots: dict[int, int] = {}
    for j in range(-bound, bound + 1):
        if len(cs) <= 2:
            break
        while cs[0] % j == 0 if j else cs[0] == 0:
            q = _deflate(cs, j)
            if q is None:
                break
            cs = q
            roots[j] = roots.get(j, 0) + 1
    if len(cs) == 2:  # the last root is read off z + j
        roots[cs[0]] = roots.get(cs[0], 0) + 1
    elif len(cs) > 2:
        raise ValueError(f"{g} does not split over integer roots")
    return roots


def _factor(g) -> _Factored:
    """Factor a nonzero rational function over integer roots, dropping its leading constant."""
    if not isinstance(g, RationalPoly):
        g = RationalPoly(g)
    if g.is_zero():
        raise ValueError("lattice generators must be nonzero")
    exps = _integer_roots(g.num, g)
    if not g.is_polynomial():
        # num and den are coprime, so their roots are distinct
        exps.update((j, -e) for j, e in _integer_roots(g.den, g).items())
    return tuple(sorted(exps.items()))


def _expand(a: _Factored) -> RationalPoly:
    """Multiply a factored generator out, in integer arithmetic."""
    num = RationalPoly.linear_product(j for j, e in a if e > 0 for _ in range(e))
    den = RationalPoly.linear_product(j for j, e in a if e < 0 for _ in range(-e))
    return RationalPoly(num.num, den.num)


class GradedLattice:
    """Graded submodule of D with one cyclic generator per degree.

    Generators are stored factored over their integer roots.  They enter as
    RationalPoly values, which must split over integer roots (ValueError
    otherwise), and leave multiplied out as RationalPoly values.
    """

    __slots__ = ("_lo", "_hi", "_gens")

    def __init__(self, lo: int, gens: Sequence[RationalPoly | _Factored]) -> None:
        """Lattice with generators gens[i] at degree lo + i.

        Each generator is a nonzero RationalPoly, whose leading constant is
        dropped, or an already-factored tuple of (root, exponent) pairs.
        """
        if not gens:
            raise ValueError("a lattice needs at least one stored generator")
        norm = [g if isinstance(g, tuple) else _factor(g) for g in gens]
        hi = lo + len(norm) - 1
        # canonical window: drop degrees the tail rules reproduce
        while hi > lo and norm[-1] == norm[-2]:
            norm.pop()
            hi -= 1
        while lo < hi and norm[0] == _mul(norm[1], ((lo, 1),)):
            norm.pop(0)
            lo += 1
        self._lo, self._hi = lo, hi
        self._gens = tuple(norm)

    @classmethod
    def free(cls) -> "GradedLattice":
        """The lattice of A itself: g_m = 1 for m >= 0, left tail below."""
        return cls(0, [()])

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
        return {self._lo + i: _expand(g) for i, g in enumerate(self._gens)}

    def generator_at(self, m: int) -> RationalPoly:
        return _expand(self._at(m))

    def _at(self, m: int) -> _Factored:
        if m >= self._hi:
            return self._gens[-1]
        if m >= self._lo:
            return self._gens[m - self._lo]
        return _mul(self._gens[0], tuple((t, 1) for t in range(m, self._lo)))

    # functor actions ---------------------------------------------------------

    def involute(self, j: int) -> "GradedLattice":
        """Apply the involution at index j: pass to the reject of F_j.

        When F_j is X(j) the degrees <= j are multiplied by (z+j); when it is
        Y(j) the degrees >= j+1 are.  Both tail rules survive the ray scaling.
        """
        lo, hi = min(self._lo, j), max(self._hi, j + 1)
        gens = [self._at(m) for m in range(lo, hi + 1)]
        zj = ((j, 1),)
        if not self._drops_at(j):
            gens = [_mul(g, zj) if lo + i <= j else g for i, g in enumerate(gens)]
        else:
            gens = [_mul(g, zj) if lo + i >= j + 1 else g for i, g in enumerate(gens)]
        return GradedLattice(lo, gens)

    def _drops_at(self, j: int) -> bool:
        """Whether the exponent of (z+j) drops between degrees j and j+1."""
        return _exponent(self._at(j), j) != _exponent(self._at(j + 1), j)

    def shifted(self, s: int) -> "GradedLattice":
        """Left multiplication by x^s: the degree shift functor on lattices."""
        return GradedLattice(self._lo + s, [tuple((j + s, e) for j, e in g) for g in self._gens])

    def scaled(self, f: RationalPoly) -> "GradedLattice":
        """Left-multiply every degree piece by the nonzero rational function f."""
        if not isinstance(f, RationalPoly):
            f = RationalPoly(f)
        if f.is_zero():
            raise ValueError("cannot scale a lattice by zero")
        factors = _factor(f)
        return GradedLattice(self._lo, [_mul(g, factors) for g in self._gens])

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
    return GradedLattice(lo, [_lcm(L1._at(m), L2._at(m)) for m in range(lo, hi + 1)])


def is_A_module(L: GradedLattice) -> bool:
    """Check the x/y divisibility closures on the window (tails hold by shape)."""
    for m in range(L.lo - 1, L.hi + 1):
        g_m, g_next = L._at(m), L._at(m + 1)
        if not _integral(_mul(g_m, g_next, -1)):
            return False
        if not _integral(_mul(_mul(g_next, ((m, 1),)), g_m, -1)):
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
    return _expand(_hom(P, Q))


def _hom(P: GradedLattice, Q: GradedLattice) -> _Factored:
    lo, hi = min(P.lo, Q.lo), max(P.hi, Q.hi)
    return reduce(_lcm, (_mul(Q._at(m), P._at(m), -1) for m in range(lo - 1, hi + 2)))


def cokernel_support(
    P: GradedLattice, Q: GradedLattice
) -> tuple[tuple[Fraction, int], ...]:
    """Support multiset of Q / h P for the maximal embedding h = hom_generator.

    The degree-m annihilator is q_m = h g^P_m / g^Q_m; a simple supported at
    -j contributes the factor (z+j) on exactly one side of the transition
    between degrees j and j+1, so the multiset is read off the two
    multiplicities there.
    """
    h = _hom(P, Q)
    lo, hi = min(P.lo, Q.lo), max(P.hi, Q.hi)
    cache: dict[int, _Factored] = {}

    def annihilator(m: int) -> _Factored:
        if m not in cache:
            q = _mul(_mul(h, P._at(m)), Q._at(m), -1)
            if not _integral(q):
                raise ArithmeticError(
                    f"degree-{m} multiplier is not integral; hom generator is wrong"
                )
            cache[m] = q
        return cache[m]

    candidates = range(lo - 2, hi + 2)
    support: dict[Fraction, int] = {}
    for j in candidates:
        count = _exponent(annihilator(j), j) + _exponent(annihilator(j + 1), j)
        if count:
            support[Fraction(-j)] = count
    # every annihilator on the window must factor into the candidate lines
    for m in range(lo - 1, hi + 2):
        if any(j not in candidates for j, _ in annihilator(m)):
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
