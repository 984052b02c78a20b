"""Conjugacy canonicalization of generative autoequivalences.

Every generative element is conjugate to a unique-up-to-rotation S^n iota_J
with (J, n) admissible; necklace rotation classes of these pairs enumerate the
graded Morita equivalence classes of rings graded equivalent to A.
"""
from __future__ import annotations

from collections import Counter
from itertools import compress

from .zfin import (
    AdmissiblePair,
    FinSet,
    inverse_boundary,
    necklace_canonical,
    necklace_count,
)
from .picard import PicElement, compose, inverse, iota, is_generative, omega


def canonical_admissible(F: PicElement) -> tuple[AdmissiblePair, PicElement]:
    """Admissible pair (J, n) and a conjugator g with g F g^{-1} = S^n iota_J.

    Negative rank is first repaired by conjugating with omega; the involution
    part is then trimmed to residues by inverting the boundary operator on the
    even-sliced complement.  The pair is returned exactly as constructed; any
    rotation canonicalization is a separate, explicit step.
    """
    if not is_generative(F):
        raise ValueError(
            f"{F} is not generative (needs sign +1 and nonzero rank); "
            "no admissible conjugate exists"
        )
    F1 = F
    if F.b < 0:
        w = omega()
        F1 = compose(compose(w, F), inverse(w))
    n, K = F1.b, F1.J
    counts = Counter(map(n.__rmod__, K._elements))
    J = FinSet._of(frozenset(compress(counts, map((1).__and__, counts.values()))))  # odd counts
    g = iota(inverse_boundary(J ^ K, n))
    if F.b < 0:
        g = compose(g, w)
    return AdmissiblePair(J, n), g


def same_morita_class(F: PicElement, G: PicElement) -> bool:
    """Conjugacy test: equal necklace types of the canonical admissible pairs.

    Equivalently, the twisted endomorphism rings the two elements present are
    graded Morita equivalent.
    """
    pf, _ = canonical_admissible(F)
    pg, _ = canonical_admissible(G)
    return necklace_canonical(pf) == necklace_canonical(pg)


def morita_class_count(n: int) -> int:
    """Number of graded Morita classes realized by rank-n generative elements."""
    return necklace_count(n)
