"""Rank-1 graded projective modules as fractional lattices inside D.

A lattice has one monic cyclic k[z]-generator g_m per degree m.  The right
A-module conditions are degreewise divisibilities:

    g_{m+1} | g_m            (closure under right multiplication by x)
    g_m | g_{m+1} (z+m)      (closure under right multiplication by y)

Every generator is a product of powers of (z+t) with integer t, so a lattice
is stored by root line: line t is the exponent of (z+t) as a step function of
m, a value and a short sorted list of jumps.  Only the lines that differ from
A's are kept; line t of A is 1 for m <= t < 0 and 0 otherwise.  Along each
line of an A-module the exponent is constant except for a possible single
unit drop between degrees t and t+1; whether it drops decides whether the
simple factor at t is Y(t) or X(t), which makes isomorphism testing and the
involution functors completely mechanical.  A set of involutions edits its
own lines in one pass, a shift relabels them, an intersection takes the
larger exponent line by line, and no polynomial gcd is ever taken.
iota_lattice(J, s) writes the lines of iota_J(A)<s> in closed form, in one
pass over J and the integers between 0 and -s: with u = t + s, a member t < 0
gives the constant line u, a member t >= 0 with u >= 0 a line that drops at
u+1, a non-member t between 0 and -s a line that drops at u+1 (s > 0) or the
zero line (s < 0), and every other line is A's.  Every query is one pass per
root line: an intersection merges the two sorted jump lists; hom generators
and cokernel supports read the ratio g^Q/g^P off one walk per line, which
sums the two jump lists by degree and yields the ratio's largest value and
its values at t and t+1; the shortest window is one scan of the lines; and
A's own lines, which are not stored, are read in closed form.  The generator
at degree m is read in one loop over the stored lines, each summed over its
jumps up to m and left at the first jump past m, on top of A's (z+t) for
m <= t < 0.

A lattice enters as the root maps {t: e}, products of the (z+t)^e with e < 0
a denominator, of its generators on a window [lo, hi], continued by g_m = g_hi
for m > hi and g_m = g_{m+1} (z+m) for m < lo, and leaves as root maps on the
shortest such window; only its JSON form multiplies them out, and from_json
factors them back by RationalPoly.root_map.  A scale factor is a root map too.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import inf
from typing import Callable, Iterable, Iterator, Mapping

from .zfin import FinSet, _as_finset, _check_int, _check_root_map, _check_shift, absorb_shift
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
            _check_int(self.n, f"{self.kind}-labels carry an integer index")
        elif self.kind == "M":
            if self.param is None or self.n is not None:
                raise ValueError("M-labels carry a rational parameter")
            if not isinstance(self.param, (int, Fraction)):
                raise TypeError(f"M-labels carry an int or Fraction parameter, got {self.param!r}")
            if self.param.denominator == 1:
                raise ValueError("M-parameters must be non-integral")
        else:
            raise ValueError(f"unknown simple kind {self.kind!r}")

    @classmethod
    def _of(cls, kind: str, n: int) -> "SimpleLabel":
        """The label kind(n) for kind "X" or "Y" and an int n: no check."""
        S = object.__new__(cls)
        S.__dict__.update(kind=kind, n=n, param=None)
        return S

    @classmethod
    def X(cls, n: int) -> "SimpleLabel":
        return cls("X", n=n)

    @classmethod
    def Y(cls, n: int) -> "SimpleLabel":
        return cls("Y", n=n)

    @classmethod
    def M(cls, lam) -> "SimpleLabel":
        return cls("M", param=lam)

    def __str__(self) -> str:
        if self.kind == "M":
            return f"M({self.param})"
        return f"{self.kind}({self.n})"


@dataclass(frozen=True, init=False)
class DSet:
    """Isomorphism invariant of a rank-1 projective: its X-side factor set.

    The actual set is Z>=0 XOR exceptions; only the finite deviation from the
    base ray is stored.
    """

    exceptions: FinSet

    def __init__(self, exceptions: FinSet | Iterable[int]) -> None:
        """TypeError unless exceptions is a FinSet or an iterable of ints (zfin._as_finset)."""
        # a frozen dataclass refuses setattr; its field is set in __dict__
        self.__dict__["exceptions"] = _as_finset(exceptions)

    def __contains__(self, j: int) -> bool:
        return (j >= 0) != (j in self.exceptions)

    def min_element(self) -> int:
        """Least element of Z>=0 xor exceptions."""
        E = self.exceptions._elements
        low = min(E, default=0)
        return low if low < 0 else next(t for t in count() if t not in E)

    def __str__(self) -> str:
        return f"Z>=0 xor {self.exceptions}"

    def to_json(self) -> dict:
        return {"exceptions": self.exceptions.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "DSet":
        return cls(FinSet.from_json(data["exceptions"]))


# A root line (v, jumps): the exponent of (z+t) as a function of the degree m.
# It is v below the first jump and changes by d at each jump (m, d); jumps are
# sorted by m, with distinct m and nonzero d.
_Line = tuple


def _free_line(t: int) -> _Line:
    """Line t of A: exponent 1 for m <= t < 0, else 0."""
    return (1, ((t + 1, -1),)) if t < 0 else (0, ())


_END = (inf, 0)  # past the last jump of a line


def _combine(op: Callable[[int, int], int], a: _Line, b: _Line) -> _Line:
    """The line m -> op(a(m), b(m)), in one merge walk of the two jump lists.

    The walk relies on each jump list being sorted by m, and steps both
    lines at a point where both jump, so it is linear in the jumps.
    """
    x, ja = a
    y, jb = b
    start = prev = op(x, y)
    jumps = []
    ia, ib = iter(ja), iter(jb)
    pa, da = next(ia, _END)
    pb, db = next(ib, _END)
    while (p := min(pa, pb)) < inf:
        if pa == p:
            x += da
            pa, da = next(ia, _END)
        if pb == p:
            y += db
            pb, db = next(ib, _END)
        cur = op(x, y)
        if cur != prev:
            jumps.append((p, cur - prev))
            prev = cur
    return (start, tuple(jumps))


def _drops_at(lines: Mapping[int, _Line], t: int) -> bool:
    """Whether line t of these stored lines steps between degrees t and t+1.

    A line that is not stored is A's, which drops exactly when t < 0.  The
    jumps are sorted, so the first one past t decides.
    """
    line = lines.get(t)
    if line is None:
        return t < 0
    for m, _ in line[1]:
        if m > t:
            return m == t + 1
    return False


def _canonical(lines: Mapping[int, _Line]) -> dict[int, _Line]:
    """Drop the lines that equal A's, so equal lattices store equal maps."""
    return {t: line for t, line in lines.items() if line != _free_line(t)}


class GradedLattice:
    """Graded submodule of D with one cyclic generator per degree.

    The generators are stored by root line: line t is the exponent of (z+t)
    as a step function of the degree, kept only where it differs from A's.
    Generators enter and leave as root maps {t: e}, and leave multiplied out
    as RationalPoly values through generator_at.
    """

    __slots__ = ("_lines",)

    def __init__(self, gens: Mapping[int, Mapping[int, int]]) -> None:
        """Lattice with the root map gens[m] as its generator at each degree m.

        The degrees form a contiguous, non-empty window [lo, hi]; above it
        g_m = g_hi, below it g_m = g_{m+1} (z+m).  TypeError unless every
        degree, root and exponent is an int.
        """
        for m, g in gens.items():
            _check_int(m, "lattice degrees must be integers")
            _check_root_map(g)
        if not gens or len(gens) != max(gens) - min(gens) + 1:
            raise ValueError("a lattice's generators must cover a contiguous, non-empty window")
        lo = min(gens)
        exps = [gens[m] for m in range(lo, lo + len(gens))]
        lines = {}
        # A's lines between 0 and lo change under the left-tail rule
        for t in set().union(*exps, range(min(lo, 0), max(lo, 0))):
            vals = [e.get(t, 0) for e in exps]
            jumps = tuple(
                (lo + i, b - a) for i, (a, b) in enumerate(zip(vals, vals[1:]), 1) if b != a
            )
            lines[t] = (vals[0] + 1, ((t + 1, -1),) + jumps) if t < lo else (vals[0], jumps)
        self._lines = _canonical(lines)

    @classmethod
    def _of(cls, lines: dict[int, _Line]) -> "GradedLattice":
        """The lattice with these lines, which must already be canonical."""
        L = cls.__new__(cls)
        L._lines = lines
        return L

    @classmethod
    def free(cls) -> "GradedLattice":
        """The lattice of A itself: g_m = 1 for m >= 0, left tail below."""
        return cls._of({})

    def _line(self, t: int) -> _Line:
        return self._lines.get(t) or _free_line(t)

    def _with(self, lines: Mapping[int, _Line]) -> "GradedLattice":
        """This lattice with the given lines replaced."""
        merged = {**self._lines, **lines}
        for t in lines:
            if merged[t] == _free_line(t):
                del merged[t]
        return GradedLattice._of(merged)

    def _bounds(self) -> tuple[int, int]:
        """(lo, hi) in one scan of the lines.

        hi is the last degree whose generator differs from the one below it:
        the last jump of any line, or the first degree past the run of
        negative lines -1, -2, ... that are stored.  lo is the first degree m
        with g_m != g_{m+1} (z+m), or hi if that is lower: line t follows
        that rule up to its first jump off the pattern (t+1, -1), and an
        unstored line t >= 0 breaks it at t+1.
        """
        lines = self._lines
        top = -1
        while top in lines:
            top -= 1
        bottom = 0
        while bottom in lines:
            bottom += 1
        hi, first = top + 1, bottom + 1
        for t, (_, jumps) in lines.items():
            if not jumps:
                first = min(first, t + 1)
                continue
            hi = max(hi, jumps[-1][0])
            if jumps[0] != (t + 1, -1):
                first = min(first, jumps[0][0], t + 1)
            elif len(jumps) > 1:
                first = min(first, jumps[1][0])
        return min(hi, first - 1), hi

    @property
    def lo(self) -> int:
        """The first degree of the shortest window; see _bounds."""
        return self._bounds()[0]

    @property
    def hi(self) -> int:
        """The last degree of the shortest window; see _bounds."""
        return self._bounds()[1]

    @property
    def generators(self) -> dict[int, RationalPoly]:
        lo, hi = self._bounds()
        return {m: RationalPoly._of_roots(self._generator_roots(m)) for m in range(lo, hi + 1)}

    def generator_at(self, m: int) -> RationalPoly:
        return RationalPoly._of_roots(self.factored_generator_at(m))

    def factored_generator_at(self, m: int) -> dict[int, int]:
        """The degree-m generator as a new root map {t: e}, zero exponents dropped."""
        _check_int(m, "lattice degrees must be integers")
        return self._generator_roots(m)

    def _generator_roots(self, m: int) -> dict[int, int]:
        """factored_generator_at for an int m, unchecked.

        A's lines give (z+t) for m <= t < 0; each stored line t then sets or
        drops its entry, its value summed over the jumps at degrees <= m, which
        come first since the jumps are sorted.
        """
        exps = dict.fromkeys(range(m, 0), 1)
        for t, (v, jumps) in self._lines.items():
            for p, d in jumps:
                if p > m:
                    break
                v += d
            if v:
                exps[t] = v
            else:
                exps.pop(t, None)
        return exps

    # functor actions ---------------------------------------------------------

    def involute(self, K: FinSet | Iterable[int]) -> "GradedLattice":
        """Apply the involution at every index j of K: pass to the reject of each F_j.

        When F_j is X(j) the degrees <= j are multiplied by (z+j); when it is
        Y(j) the degrees >= j+1 are.  Index j edits only line j, so K is one pass.
        A line that is not stored is A's, and is edited in closed form: to
        (1, ((j+1, -1),)) for j >= 0 (X(j)) and to the constant (1, ()) for j < 0 (Y(j)).
        """
        lines = {}
        for j in _as_finset(K)._elements:
            line = self._lines.get(j)
            if line is None:
                lines[j] = (1, ((j + 1, -1),)) if j >= 0 else (1, ())
                continue
            v, jumps = line
            steps = dict(jumps)
            if j + 1 in steps:  # Y(j): the jump at j+1 rises by 1
                steps[j + 1] += 1
            else:  # X(j): the value rises by 1 below a new jump of -1 at j+1
                v, steps[j + 1] = v + 1, -1
            lines[j] = (v, tuple(sorted((m, d) for m, d in steps.items() if d)))
        return self._with(lines)

    def shifted(self, s: int) -> "GradedLattice":
        """Left multiplication by x^s: line t becomes line t+s, its jumps moved by s.

        A's own line t moves onto A's line t+s except for t between 0 and -s.
        """
        _check_shift(s)
        lines = {}
        for t in self._lines.keys() | set(range(min(0, -s), max(0, -s))):
            v, jumps = self._line(t)
            lines[t + s] = (v, tuple((m + s, d) for m, d in jumps))
        return GradedLattice._of(_canonical(lines))

    def scaled(self, f: Mapping[int, int]) -> "GradedLattice":
        """Left-multiply every degree piece by the product of the (z+t)^e over the root map f.

        TypeError unless every root t and exponent e is an int.
        """
        _check_root_map(f)
        return self._scaled(f)

    def _scaled(self, f: Mapping[int, int]) -> "GradedLattice":
        """scaled by a root map f that must already hold only ints: no check."""
        lines = {}
        for t, e in f.items():
            v, jumps = self._line(t)
            lines[t] = (v + e, jumps)
        return self._with(lines)

    # comparison / presentation -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedLattice) and self._lines == other._lines

    def __hash__(self) -> int:
        return hash(frozenset(self._lines.items()))

    def __repr__(self) -> str:
        gens = self.generators
        inner = ", ".join(f"{m}: {g}" for m, g in gens.items())
        return f"GradedLattice[{min(gens)}..{max(gens)}]({inner})"

    def to_json(self) -> dict:
        lo, hi = self._bounds()
        gens = {str(m): g.to_json() for m, g in self.generators.items()}
        return {"lo": lo, "hi": hi, "gens": gens}

    @classmethod
    def from_json(cls, data: dict) -> "GradedLattice":
        return cls({int(m): RationalPoly.from_json(g).root_map() for m, g in data["gens"].items()})


def iota_lattice(J: FinSet | Iterable[int], shift: int = 0) -> GradedLattice:
    """The lattice of iota_J(A)<s>, s the shift, its lines written in one pass.

    It equals GradedLattice.free().involute(J).shifted(s), in closed form.
    Line t of iota_J(A) moves to line u = t + s, and only lines unlike A's
    are stored:
      t in J, t < 0:           line u is the constant (1, ());
      t in J, t >= 0, u >= 0:  line u is (1, ((u+1, -1),));
      t not in J, -s <= t < 0: line u is (1, ((u+1, -1),));
      t not in J, 0 <= t < -s: line u is (0, ()).
    A member t >= 0 with u < 0 lands on A's own line u, so it is not stored.
    """
    _check_shift(shift)
    members = _as_finset(J)._elements
    lines = {}
    for t in members:
        u = t + shift
        if t < 0:
            lines[u] = (1, ())
        elif u >= 0:
            lines[u] = (1, ((u + 1, -1),))
    # a non-member t between 0 and -s keeps A's line t, unlike A's line u = t + s
    if shift > 0:
        lines.update((u, (1, ((u + 1, -1),))) for u in range(shift) if u - shift not in members)
    else:
        lines.update((u, (0, ())) for u in range(shift, 0) if u - shift not in members)
    return GradedLattice._of(lines)


def lattice_intersect(L1: GradedLattice, L2: GradedLattice) -> GradedLattice:
    """Degreewise intersection: the larger exponent on every root line."""
    keys = L1._lines.keys() | L2._lines.keys()
    return GradedLattice._of(_canonical({t: _combine(max, L1._line(t), L2._line(t)) for t in keys}))


def is_A_module(L: GradedLattice) -> bool:
    """The x/y divisibility closures g_{m+1} | g_m | g_{m+1} (z+m).

    Per line t they allow one step only: a unit drop between degrees t and t+1.
    """
    return all(jumps in ((), ((t + 1, -1),)) for t, (_, jumps) in L._lines.items())


def simple_factor(L: GradedLattice, j: int) -> SimpleLabel:
    """F_j(L): X(j) when the root line z=-j does not drop at j, else Y(j)."""
    _check_int(j, "simple factors are indexed by integers")
    return SimpleLabel._of("Y" if _drops_at(L._lines, j) else "X", j)


def to_dset(J: FinSet | Iterable[int], shift: int = 0) -> DSet:
    """DSet of iota_J(A)<shift> by pure set arithmetic: (ray xor J) + shift."""
    return DSet(absorb_shift(_as_finset(J), shift))


def lattice_dset(L: GradedLattice) -> DSet:
    """DSet read directly off the lattice's simple factors.

    Its exceptions are the lines whose drop at t -> t+1 differs from A's.
    """
    lines = L._lines
    return DSet(FinSet._of(frozenset(t for t in lines if _drops_at(lines, t) != (t < 0))))


def _ratio_walk(P: GradedLattice, Q: GradedLattice) -> Iterator[tuple[int, int, int, int, bool]]:
    """Line t of g^Q_m / g^P_m, for each t where P or Q differs from A, in one walk.

    Yields (t, top, at, after, moves): the ratio's largest exponent of (z+t),
    its exponents at degrees t and t+1, and whether it changes with m.  The
    walk sums the two jump lists by degree and builds no line; equal lines give
    the zero ratio at once.  It sums them in a dict and sorts its degrees once,
    not by _combine's merge walk: at the few jumps of an iota line the two
    measure the same, and on a line of 20000 jumps the sort is twice as fast.
    """
    p_lines, q_lines = P._lines, Q._lines
    for t in p_lines.keys() | q_lines.keys():
        a = q_lines.get(t) or _free_line(t)
        b = p_lines.get(t) or _free_line(t)
        if a == b:
            yield t, 0, 0, 0, False
            continue
        (x, ja), (y, jb) = a, b
        v = top = at = after = x - y
        steps = dict(ja)
        for p, d in jb:
            steps[p] = steps.get(p, 0) - d
        moves = False
        for p in sorted(steps):
            if d := steps[p]:
                v += d
                moves = True
                if v > top:
                    top = v
                if p <= t + 1:
                    after = v
                    if p <= t:
                        at = v
        yield t, top, at, after, moves


def hom_generator(P: GradedLattice, Q: GradedLattice) -> RationalPoly:
    """Monic generator of {q in k(z) : q P <= Q}; q P <= Q is then maximal.

    The degree-m constraint is q in (g^Q_m / g^P_m) k[z], so on each root line
    the exponent of q is the largest that the ratio takes.
    """
    return RationalPoly._of_roots({t: top for t, top, _, _, _ in _ratio_walk(P, Q) if top})


def cokernel_support(P: GradedLattice, Q: GradedLattice) -> tuple[tuple[int, int], ...]:
    """Support multiset of Q / h P for the maximal embedding h = hom_generator.

    The degree-m annihilator is q_m = h g^P_m / g^Q_m, whose exponent on line t
    is a_t(m) = h_t - (Q-P)_t(m) >= 0; a simple supported at -t contributes
    the factor (z+t) on exactly one side of the transition between degrees t
    and t+1, so the multiset is read off a_t(t) + a_t(t+1).
    """
    (p_lo, p_hi), (q_lo, q_hi) = P._bounds(), Q._bounds()
    lo, hi = min(p_lo, q_lo), max(p_hi, q_hi)
    support: dict[int, int] = {}
    for t, top, at, after, moves in _ratio_walk(P, Q):
        if not moves:
            continue
        if not lo - 2 <= t <= hi + 1:
            raise ValueError(
                "cokernel is not integrally supported on the expected window; "
                "inputs are outside the involution family"
            )
        if count := 2 * top - at - after:
            support[-t] = count
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
