"""The Picard group of the graded module category of the Weyl algebra.

Every autoequivalence class has a unique normal form S^b iota_J (even) or
S^b iota_J omega (odd), stored as (a, b, J) with a the sign.  Composition is
a closed formula derived from the rewriting relations

    iota_J iota_K = iota_{J xor K}         iota_J S^c = S^c iota_{J-c}
    omega iota_J  = iota_{-1-J} omega      omega S^c  = S^{-c} omega
    omega^2 = e

and realizes the restricted wreath product of Z/2Z by the infinite dihedral
group.  The D-infinity image acts on support indices by n -> a n + rank.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .zfin import AdmissiblePair, FinSet, absorb_shift, affine_image, affine_overlap
from .lattices import DSet, SimpleLabel


@dataclass(frozen=True)
class PicElement:
    """Normal form (sign a, shift exponent b, involution set J)."""

    a: int
    b: int
    J: FinSet

    def __post_init__(self) -> None:
        if self.a not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.a}")
        if not isinstance(self.J, FinSet):
            object.__setattr__(self, "J", FinSet(self.J))

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
        return cls(int(data["a"]), int(data["b"]), FinSet.from_json(data["J"]))


def identity() -> PicElement:
    return PicElement(1, 0, FinSet())


def shift(b: int) -> PicElement:
    """The b-th power of the shift functor."""
    return PicElement(1, b, FinSet())


def iota(J: FinSet | list[int] | set[int]) -> PicElement:
    """The numerically trivial involution swapping X(j) and Y(j) for j in J."""
    return PicElement(1, 0, J)


def omega() -> PicElement:
    """The order-reversing automorphism x -> y, y -> -x; odd of rank -1."""
    return PicElement(-1, 0, FinSet())


def compose(F: PicElement, G: PicElement) -> PicElement:
    """Normal form of F after G (functor composition, right-to-left)."""
    twisted = G.J if F.a == 1 else affine_image(G.J, -1, -1)
    return PicElement(
        F.a * G.a,
        F.b + F.a * G.b,
        affine_image(F.J, 1, -F.a * G.b) ^ twisted,
    )


def inverse(F: PicElement) -> PicElement:
    if F.a == 1:
        return PicElement(1, -F.b, affine_image(F.J, 1, F.b))
    return PicElement(-1, F.b, affine_image(F.J, -1, -1 - F.b))


# ``power`` refuses to build an involution set of more than this many elements.
# The set of F^k for even F = S^b iota_J can hold up to k |J| elements, so a
# large enough k would exhaust memory instead of answering.
POWER_MAX_SET_SIZE = 10**6


def power(F: PicElement, k: int) -> PicElement:
    """F^k by repeated squaring: O(log |k|) compositions.

    Every factor is a power of F, so the factors commute and the order of the
    products does not matter.  Each composition costs time linear in the sets
    it combines; only the squares F^(2^i) with 2^i <= |k| are built.  Raises
    ValueError, before building it, when a set would have more than
    POWER_MAX_SET_SIZE elements.
    """
    if k < 0:
        return power(inverse(F), -k)
    out = identity()
    while k:
        if k & 1:
            out = _bounded_compose(F, out)
        k >>= 1
        if k:
            F = _bounded_compose(F, F)
    return out


def _bounded_compose(F: PicElement, G: PicElement) -> PicElement:
    """compose(F, G), refused when its set would exceed POWER_MAX_SET_SIZE.

    That set is A xor B with A = F.J - F.a G.b and B = G.J (reflected to
    -1 - G.J when F is odd), so it has |A| + |B| - 2 |A & B| elements; the
    overlap is counted only when |A| + |B| is over the limit.
    """
    size = len(F.J) + len(G.J)
    if size > POWER_MAX_SET_SIZE:
        s = -F.a * G.b
        size -= 2 * affine_overlap(F.J, F.a, s if F.a == 1 else -1 - s, G.J)
        if size > POWER_MAX_SET_SIZE:
            raise ValueError(
                f"power would build an involution set of {size} elements, over the "
                f"limit POWER_MAX_SET_SIZE = {POWER_MAX_SET_SIZE}"
            )
    return compose(F, G)


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
        lam = Fraction(S.param)  # type: ignore[arg-type]
        if F.a == -1:
            lam = -lam - 1
        return SimpleLabel.M(lam + F.b)
    n = int(S.n)  # type: ignore[arg-type]
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
    exc = E.exceptions
    if F.a == -1:
        exc = affine_image(exc, -1, -1)
    return DSet(absorb_shift(exc ^ F.J, F.b))


def coverage_witness(
    J: FinSet | list[int], n: int, window: int
) -> dict[int, FinSet]:
    """The sets J_j with F^j A = iota_{J_j} A for F = S^n iota_J, 0 < |j| <= window.

    Their union must cover [-n(window-1), n(window-1)], which is the finite
    certificate that F generates the category.
    """
    J = FinSet(J)
    AdmissiblePair(J, n)  # validates admissibility
    if window < 1:
        raise ValueError("window must be positive")
    F, A = PicElement(1, n, J), DSet(FinSet())
    steps = [*range(1, window + 1), *range(-1, -window - 1, -1)]
    return {j: act_on_dset(power(F, j), A).exceptions for j in steps}
