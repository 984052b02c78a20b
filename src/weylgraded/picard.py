"""The Picard group of the graded module category of the Weyl algebra.

Every autoequivalence class has a unique normal form S^b iota_J (even) or
S^b iota_J omega (odd), stored as (a, b, J) with a the sign.  Composition is
a closed formula derived from the rewriting relations

    iota_J iota_K = iota_{J xor K}         iota_J S^c = S^c iota_{J-c}
    omega iota_J  = iota_{-1-J} omega      omega S^c  = S^{-c} omega
    omega^2 = e

and realizes the restricted wreath product of Z/2Z by the infinite dihedral
group.  The D-infinity image acts on support indices by n -> a n + rank.

Powers are closed forms too: the set of (S^b iota_J)^k is the boundary
preimage of J xor (J - kb) (for b > 0), so ``power`` costs no composition
per factor, and it is refused by the exact size of its answer's set.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import invert

from .zfin import (
    FinSet,
    _admissible,
    _as_finset,
    _boundary_runs,
    _check_int,
    _check_positive,
    _check_size,
    absorb_shift,
    affine_image,
)
from .lattices import DSet, SimpleLabel


@dataclass(frozen=True, init=False)
class PicElement:
    """Normal form (sign a, shift exponent b, involution set J)."""

    a: int
    b: int
    J: FinSet

    def __init__(self, a: int, b: int, J: FinSet | list[int]) -> None:
        _check_int(a, "sign must be +1 or -1")
        _check_int(b, "shift exponent must be an integer")
        if a not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {a}")
        # a frozen dataclass refuses setattr; its fields are set in __dict__
        self.__dict__.update(a=a, b=b, J=_as_finset(J))

    @classmethod
    def _of(cls, a: int, b: int, J: FinSet) -> "PicElement":
        """The normal form (a, b, J), which must already be valid: no check."""
        F = object.__new__(cls)
        F.__dict__.update(a=a, b=b, J=J)
        return F

    def __mul__(self, other: "PicElement") -> "PicElement":
        return compose(self, other)

    def __invert__(self) -> "PicElement":
        return inverse(self)

    def __str__(self) -> str:
        parts = []
        if self.b == 1:
            parts.append("S")
        elif self.b:
            parts.append(f"S^{self.b}")
        if self.J:
            parts.append("i{" + ",".join(map(str, self.J)) + "}")
        if self.a == -1:
            parts.append("w")
        return " * ".join(parts) if parts else "e"

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "J": self.J.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "PicElement":
        return cls(data["a"], data["b"], FinSet.from_json(data["J"]))


_IDENTITY = PicElement._of(1, 0, FinSet._of(frozenset()))
_OMEGA = PicElement._of(-1, 0, _IDENTITY.J)


def identity() -> PicElement:
    """The identity functor e; one shared constant, since a PicElement is immutable."""
    return _IDENTITY


def shift(b: int) -> PicElement:
    """The b-th power of the shift functor."""
    return PicElement(1, b, FinSet())


def iota(J: FinSet | list[int] | set[int]) -> PicElement:
    """The numerically trivial involution swapping X(j) and Y(j) for j in J."""
    return PicElement(1, 0, J)


def omega() -> PicElement:
    """The order-reversing automorphism x -> y, y -> -x; odd of rank -1.

    One shared constant, like ``identity()``.
    """
    return _OMEGA


def compose(F: PicElement, G: PicElement) -> PicElement:
    """Normal form of F after G (functor composition, right-to-left).

    The set is (F.J - F.a G.b) xor G.J, with G.J first reflected to -1 - G.J
    (that is ~G.J) when F is odd.
    """
    a, b = F.a, G.b
    t = -a * b
    left = F.J._elements
    if t:
        left = frozenset(map(t.__add__, left))
    right = G.J._elements if a == 1 else frozenset(map(invert, G.J._elements))
    return PicElement._of(a * G.a, F.b + a * b, FinSet._of(left ^ right))


def inverse(F: PicElement) -> PicElement:
    b = F.b
    if F.a == 1:
        return PicElement._of(1, -b, FinSet._of(frozenset(map(b.__add__, F.J._elements))))
    return PicElement._of(-1, b, FinSet._of(frozenset(map((-1 - b).__sub__, F.J._elements))))


def power(F: PicElement, k: int) -> PicElement:
    """F^k in time O(|J| log |J| + |K|), K the set of F^k, whatever k is.

    For even F = S^b iota_J with b != 0 and k >= 0, F^k = S^(kb) iota_K with
    K = xor of the J - i b for 0 <= i < k.  The sum telescopes: K xor
    (K - |b|) is J xor (J - kb) when b > 0 and (J - (k-1)b) xor (J + b) when
    b < 0, so K is the boundary preimage mod |b| of a set of at most 2 |J|
    elements.  Its runs are counted before K is built.  Negative k goes
    through the inverse.  Odd F has F^4 = e and iota_J has iota_J^2 = e, so
    their powers take at most three compositions.

    Raises ValueError, by zfin._check_size, when the set of F^k (up to |k| |J|
    elements) passes zfin.POWER_MAX_SET_SIZE; an even F with b != 0 builds nothing before.
    """
    _check_int(k, "power's exponent k must be an integer")
    if F.a == -1 or F.b == 0:
        out = identity()
        for _ in range(k % (4 if F.a == -1 else 2)):
            out = compose(F, out)
        _check_size(len(out.J), "power would build an involution set")
        return out
    if k < 0:
        return power(inverse(F), -k)
    J, b = F.J, F.b
    if b > 0:
        ends = J ^ affine_image(J, 1, -k * b)
    else:
        ends = affine_image(J, 1, -(k - 1) * b) ^ affine_image(J, 1, b)
    runs = _boundary_runs(ends, abs(b))
    # each run is range(a + n, c + n, n) with n dividing c - a; len() overflows past sys.maxsize
    size = sum((r.stop - r.start) // r.step for r in runs)
    _check_size(size, "power would build an involution set")
    return PicElement._of(1, k * b, FinSet._of(frozenset(chain.from_iterable(runs))))


def sign_rank(F: PicElement) -> tuple[int, int]:
    """The D-infinity image (sign, rank); odd normal forms act by n -> -n + b - 1."""
    return (F.a, F.b - (1 if F.a == -1 else 0))


def is_numerically_trivial(F: PicElement) -> bool:
    return F.a == 1 and F.b == 0


def is_generative(F: PicElement) -> bool:
    """Even with nonzero rank; odd elements have fourth power e, rank 0 is an involution."""
    return F.a == 1 and F.b != 0


def act_on_simple(F: PicElement, S: SimpleLabel) -> SimpleLabel:
    """Image of a graded simple, applying omega, then iota_J, then the shift."""
    kind = S.kind
    if kind == "M":
        lam: Fraction = S.param  # type: ignore[assignment]
        if F.a == -1:
            lam = -lam - 1
        return SimpleLabel.M(lam + F.b)
    n: int = S.n  # type: ignore[assignment]
    if F.a == -1:
        kind = "Y" if kind == "X" else "X"
        n = -n - 1
    if n in F.J:
        kind = "Y" if kind == "X" else "X"
    n += F.b
    return SimpleLabel.X(n) if kind == "X" else SimpleLabel.Y(n)


def act_on_dset(F: PicElement, E: DSet) -> DSet:
    """Image of a DSet: omega reflects through -1 and complements, iota_J flips,
    the shift translates; re-encoded against the base ray."""
    exc = E.exceptions._elements
    if F.a == -1:
        exc = frozenset(map(invert, exc))
    return DSet(absorb_shift(FinSet._of(exc ^ F.J._elements), F.b))


def coverage_witness(J: FinSet | list[int], n: int, window: int) -> dict[int, FinSet]:
    """The sets J_j with F^j A = iota_{J_j} A for F = S^n iota_J, 0 < |j| <= window.

    Their union must cover [-n(window-1), n(window-1)], which is the finite
    certificate that F generates the category.  zfin._admissible checks the
    pair: J any iterable of integers, n an int >= 1 and J inside [0, n).
    """
    J = _admissible(J, n)
    _check_positive(window, "window must be a positive integer")
    F, A = PicElement(1, n, J), DSet(FinSet())
    steps = [*range(1, window + 1), *range(-1, -window - 1, -1)]
    return {j: act_on_dset(power(F, j), A).exceptions for j in steps}
