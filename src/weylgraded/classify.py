"""Conjugacy canonicalization of generative autoequivalences.

Every generative element is conjugate to a unique-up-to-rotation S^n iota_J
with (J, n) admissible; necklace rotation classes of these pairs enumerate the
graded Morita equivalence classes of rings graded equivalent to A.

Negative rank is repaired by omega, through the closed form
omega S^b iota_J omega^-1 = S^-b iota_{-1-J}: an element of rank b < 0 is read
as S^|b| iota_{-1-J}, and no composition with omega is taken on it.
"""
from __future__ import annotations

from collections import Counter
from itertools import compress
from operator import invert

from .zfin import (
    AdmissiblePair,
    FinSet,
    inverse_boundary,
    necklace_canonical,
    necklace_count,
)
from .picard import PicElement, compose, is_generative, omega


def _admissible_pair(F: PicElement) -> AdmissiblePair:
    """The admissible pair (J, n) of a generative F = S^b iota_K.

    n = |b|, and J holds the residues mod n hit an odd number of times by K
    (b > 0) or by -1 - K (b < 0).  Raises ValueError when F is not generative.
    """
    if not is_generative(F):
        raise ValueError(
            f"{F} is not generative (needs sign +1 and nonzero rank); "
            "no admissible conjugate exists"
        )
    b, K = F.b, F.J._elements
    n = abs(b)
    counts = Counter(map(n.__rmod__, K if b > 0 else map(invert, K)))
    J = frozenset(compress(counts, map((1).__and__, counts.values())))  # odd counts
    return AdmissiblePair._of(FinSet._of(J), n)


def canonical_admissible(F: PicElement) -> tuple[AdmissiblePair, PicElement]:
    """Admissible pair (J, n) and a conjugator g with g F g^{-1} = S^n iota_J.

    The pair is ``_admissible_pair(F)``.  With K the set of F (b > 0) or
    -1 - that set (b < 0), g is iota_L for L the boundary preimage mod n of
    J xor K, followed by omega when b < 0.  The pair is returned exactly as
    constructed; any rotation canonicalization is a separate, explicit step.
    """
    pair = _admissible_pair(F)
    if F.b > 0:
        return pair, PicElement._of(1, 0, inverse_boundary(pair.J ^ F.J, pair.n))
    K = FinSet._of(frozenset(map(invert, F.J._elements)))
    return pair, compose(PicElement._of(1, 0, inverse_boundary(pair.J ^ K, pair.n)), omega())


def same_morita_class(F: PicElement, G: PicElement) -> bool:
    """Conjugacy test: equal necklace types of the two admissible pairs.

    Equivalently, the twisted endomorphism rings the two elements present are
    graded Morita equivalent.  No conjugator is built.
    """
    return necklace_canonical(_admissible_pair(F)) == necklace_canonical(_admissible_pair(G))


def morita_class_count(n: int) -> int:
    """Number of graded Morita classes realized by rank-n generative elements."""
    return necklace_count(n)
