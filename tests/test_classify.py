import random
import re

import pytest

from weylgraded.zfin import AdmissiblePair, FinSet, inverse_boundary, necklace_canonical, slice
from weylgraded.picard import PicElement, compose, inverse, iota, omega, shift
from weylgraded.classify import (
    canonical_admissible,
    morita_class_count,
    same_morita_class,
)


def fs(*xs):
    return FinSet(xs)


def conjugate(g, F):
    return compose(g, compose(F, inverse(g)))


class TestCanonicalAdmissible:
    def test_positive_rank_example(self):
        F = PicElement(1, 2, fs(0, 2))
        pair, g = canonical_admissible(F)
        assert pair == AdmissiblePair(FinSet(), 2)
        assert g == iota(fs(2))
        assert conjugate(g, F) == PicElement(1, 2, FinSet())

    def test_already_admissible(self):
        F = PicElement(1, 1, fs(0))
        pair, g = canonical_admissible(F)
        assert pair == AdmissiblePair(fs(0), 1)
        assert g == PicElement(1, 0, FinSet())

    def test_negative_rank_example(self):
        F = PicElement(1, -2, fs(0))
        pair, g = canonical_admissible(F)
        assert pair == AdmissiblePair(fs(1), 2)
        assert g.a == -1  # the witness involves omega
        assert conjugate(g, F) == PicElement(1, 2, fs(1))
        # the omega-conjugate alone is S^2 iota_{-1}
        w = omega()
        assert conjugate(w, F) == PicElement(1, 2, fs(-1))

    def test_rejects_non_generative(self):
        with pytest.raises(ValueError):
            canonical_admissible(iota(fs(0)))
        with pytest.raises(ValueError):
            canonical_admissible(omega())
        with pytest.raises(ValueError):
            canonical_admissible(PicElement(-1, 3, fs(1)))


def _canonical_admissible_by_slices(F):
    """canonical_admissible with one slice() call per residue; kept as the reference."""
    g = PicElement(1, 0, FinSet())
    if F.b < 0:
        g = omega()
        F = conjugate(g, F)
    n, K = F.b, F.J
    J = FinSet(i for i in range(n) if len(slice(K, n, i)) % 2 == 1)
    return AdmissiblePair(J, n), compose(iota(inverse_boundary(J ^ K, n)), g)


class TestCanonicalAdmissibleAgainstSlices:
    def test_random_generative_elements(self):
        rng = random.Random(0)
        for _ in range(2000):
            b = rng.choice([-1, 1]) * rng.randint(1, 12)
            F = PicElement(1, b, FinSet(rng.sample(range(-40, 41), rng.randint(0, 12))))
            pair, g = canonical_admissible(F)
            assert (pair, g) == _canonical_admissible_by_slices(F), F
            assert conjugate(g, F) == PicElement(1, pair.n, pair.J)


class TestSameMoritaClass:
    def test_rotated_residues(self):
        F = PicElement(1, 2, fs(0))
        G = PicElement(1, 2, fs(1))
        assert same_morita_class(F, G)

    def test_distinct_ranks(self):
        assert not same_morita_class(shift(1), shift(2))

    def test_reflexive(self):
        F = PicElement(1, 3, fs(-1, 2))
        assert same_morita_class(F, F)

    def test_rejects_non_generative(self):
        for bad in [iota(fs(0)), omega(), PicElement(-1, 3, fs(1))]:
            for args in [(shift(1), bad), (bad, shift(1))]:
                with pytest.raises(ValueError, match=re.escape(str(bad))):
                    same_morita_class(*args)

    def test_matches_the_sliced_pairs_necklaces(self):
        def necklace(F):
            return necklace_canonical(_canonical_admissible_by_slices(F)[0])

        rng = random.Random(7)
        answers = set()
        for i in range(2000):
            b = rng.choice([-1, 1]) * rng.randint(1, 9)
            F = PicElement(1, b, FinSet(rng.sample(range(-30, 31), rng.randint(0, 10))))
            if i % 2:
                J = FinSet(rng.sample(range(-9, 10), 4))
                G = conjugate(PicElement(rng.choice([1, -1]), rng.randint(-9, 9), J), F)
            else:
                c = rng.choice([-1, 1]) * rng.randint(1, 9)
                G = PicElement(1, c, FinSet(rng.sample(range(-30, 31), rng.randint(0, 10))))
            want = necklace(F) == necklace(G)
            assert same_morita_class(F, G) == want, (F, G)
            answers.add(want)
        assert answers == {True, False}


class TestClassCounts:
    def test_small_counts(self):
        assert morita_class_count(1) == 2
        assert morita_class_count(2) == 3
        assert morita_class_count(4) == 6
