"""The rings S(J, n): idealizers inside generalized Weyl algebras.

For an admissible pair write fbar for the product of (z+i) over the residues
NOT in J.  The ambient ring W is generated by X, Y, z with

    Xz - zX = nX     Yz - zY = -nY     XY = fbar     YX = fbar(z - n)

and S(J, n) = k[z] + f_J W is the idealizer of f_J W.  Inside D the graded
pieces have closed forms (degree j of S means D-degree n*j):

    j = 0:   k[z]
    j < 0:   f_J y^{-nj} k[z]
    j > 0:   f_J (fbar y^{-n})^j k[z]
             = f_J(z) fbar(z) fbar(z+n) ... fbar(z+n(j-1)) y^{-nj} k[z]

so the closed form builds each coefficient from its roots: J, and for j > 0
every 0 <= t < nj with t mod n not in J.

The independent oracle rebuilds each piece from the twisted endomorphism
construction: M(j) is a product of involution lattices (inverted on the
positive side) applied to the free lattice, and the piece is its degree-nj
generator.  The two computation paths share no code beyond raw arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .zfin import AdmissiblePair, FinSet, affine_image
from .skew import RationalPoly, SkewElement
from .lattices import GradedLattice


@dataclass(frozen=True)
class GWAPresentation:
    """Generators-and-relations data for W plus the idealizer factor."""

    n: int
    f: RationalPoly
    idealizer_factor: RationalPoly
    relations: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "f": self.f.to_json(),
            "fJ": self.idealizer_factor.to_json(),
            "relations": list(self.relations),
        }


@dataclass
class RingPieces:
    """Degreewise description: piece j is coefficient(z) y^power k[z]."""

    n: int
    pieces: dict[int, tuple[RationalPoly, int]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            str(j): {"h": h.to_json(), "p": p}
            for j, (h, p) in sorted(self.pieces.items())
        }


def _validated(J, n: int) -> FinSet:
    J = FinSet(J)
    AdmissiblePair(J, n)
    return J


def complement(J: FinSet, n: int) -> FinSet:
    return FinSet(i for i in range(n) if i not in J)


def present(J, n: int) -> GWAPresentation:
    """The presentation of S(J, n); f never has repeated or n-congruent roots."""
    J = _validated(J, n)
    rest = complement(J, n)
    fbar = RationalPoly.linear_product(rest)
    f_J = RationalPoly.linear_product(J)
    relations = (
        f"X z - z X = {n} X",
        f"Y z - z Y = -{n} Y",
        f"X Y = {fbar}",
        f"Y X = {RationalPoly.linear_product(c - n for c in rest)}",
    )
    return GWAPresentation(n=n, f=fbar, idealizer_factor=f_J, relations=relations)


def graded_piece_closed_form(J, n: int, j: int) -> tuple[RationalPoly, int]:
    """Piece j of S(J, n) as (h, p) with the piece equal to h(z) y^p k[z]."""
    J = _validated(J, n)
    if j == 0:
        return (RationalPoly.one(), 0)
    if j < 0:
        return (RationalPoly.linear_product(J), -n * j)
    roots = list(J) + [t for t in range(n * j) if t % n not in J]
    return (RationalPoly.linear_product(roots), -n * j)


def twisted_endo_piece_oracle(J, n: int, j: int) -> tuple[RationalPoly, int]:
    """Piece j recomputed through the twisted endomorphism lattice M(j).

    M(j) applies the inverted involutions at J+n, ..., J+nj (j positive) or
    the plain involutions at J, J-n, ..., J+(j+1)n (j negative) to the free
    lattice; the piece is the monic generator of its degree-nj component,
    converted from x-power to y-power form.
    """
    J = _validated(J, n)
    L = GradedLattice.free()
    if j >= 1:
        for i in range(1, j + 1):
            K = affine_image(J, 1, n * i)
            for k in sorted(K):
                L = L.involute(k)
            if K:
                L = L.scaled(RationalPoly.one() / RationalPoly.linear_product(K))
    elif j <= -1:
        for i in range(0, -j):
            K = affine_image(J, 1, -n * i)
            for k in sorted(K):
                L = L.involute(k)
    g = L.generator_at(n * j)
    d = n * j
    if d >= 0:
        h = g * RationalPoly.rising(d)
    else:
        h = g / RationalPoly.falling(-d)
    return (h, -d)


def ring_pieces(J, n: int, j_min: int, j_max: int, oracle: bool = False) -> RingPieces:
    """Table of pieces over a degree range, by closed form or by the oracle."""
    fn = twisted_endo_piece_oracle if oracle else graded_piece_closed_form
    out = RingPieces(n=n)
    for j in range(j_min, j_max + 1):
        out.pieces[j] = fn(J, n, j)
    return out


def _piece_generator(J, n: int, j: int) -> SkewElement:
    h, p = graded_piece_closed_form(J, n, j)
    return SkewElement.from_poly(h) * SkewElement.y_power(p)


def verify_ring_closure(J, n: int, window: int) -> bool:
    """Products of piece generators land in the right pieces.

    Since each piece is a single cyclic module h y^p k[z], closure on the
    generators implies closure of all products.
    """
    J = _validated(J, n)
    if window < 1:
        raise ValueError(f"window must be a positive integer, got {window}")
    gens = {j: _piece_generator(J, n, j) for j in range(-window, window + 1)}
    for i in range(-window, window + 1):
        for j in range(-window, window + 1):
            if abs(i + j) > window:
                continue
            product = gens[i] * gens[j]
            target = gens[i + j]
            d = n * (i + j)
            c, t = product.coefficient(d), target.coefficient(d)
            if product.degrees() != (d,) or not (c / t).is_polynomial():
                return False
    return True


def verify_gwa_embedding(J, n: int) -> bool:
    """The elements X = fbar y^{-n}, Y = y^n, z of D satisfy the W relations,
    and x^n = (z)(z+1)...(z+n-1) y^{-n}."""
    J = _validated(J, n)
    fbar = RationalPoly.linear_product(complement(J, n))
    X = SkewElement.from_poly(fbar) * SkewElement.y_power(-n)
    Y = SkewElement.y_power(n)
    zel = SkewElement.from_poly(RationalPoly.z())
    checks = [
        X * zel - zel * X == X * n,
        Y * zel - zel * Y == Y * (-n),
        X * Y == SkewElement.from_poly(fbar),
        Y * X == SkewElement.from_poly(fbar.shift(-n)),
        SkewElement.x_power(n)
        == SkewElement.from_poly(RationalPoly.rising(n)) * SkewElement.y_power(-n),
    ]
    return all(checks)


def simplicity_root_test(J, n: int) -> bool:
    """The GWA parameter has no repeated roots and no two roots congruent mod n."""
    J = _validated(J, n)
    roots = [-i for i in complement(J, n)]
    for a in roots:
        for b in roots:
            if a != b and (a - b) % n == 0:
                return False
    return len(roots) == len(set(roots))
