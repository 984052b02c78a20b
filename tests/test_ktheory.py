import random
from collections import Counter

import pytest

from weylgraded import ktheory, zfin
from weylgraded.zfin import FinSet, absorb_shift
from weylgraded.lattices import _dset_min
from weylgraded.picard import PicElement, identity
from weylgraded.ktheory import (
    K0Class,
    ProjectiveSum,
    iso_test,
    k0_class,
    normalize_sum,
    stably_free_witness,
    theta_map,
)


def fs(*xs):
    return FinSet(xs)


class TestAbsorbShift:
    def test_positive(self):
        assert absorb_shift(FinSet(), 2) == fs(0, 1)

    def test_negative(self):
        assert absorb_shift(FinSet(), -2) == fs(-2, -1)

    def test_translate_and_flip(self):
        # iota_{0}A<1> has D-set exceptions {1}+... = (J+1) xor {0}
        assert absorb_shift(fs(0), 1) == fs(0, 1)


class TestProjectiveSumOf:
    def test_finsets_and_pairs(self):
        # each summand is stored shift-absorbed: iota_{} A<2> is iota_{0,1} A
        S = ProjectiveSum.of(FinSet([1, 3]), (FinSet(), 2))
        assert S.summands == ((fs(1, 3), 0), (fs(0, 1), 0))

    def test_a_pair_with_shift_zero_is_kept_as_given(self):
        p = (fs(1, 3), 0)
        assert ProjectiveSum((p,)).summands[0] is p

    def test_equality_compares_absorbed_forms(self):
        assert ProjectiveSum.of((FinSet(), 2)) == ProjectiveSum.of(fs(0, 1))
        assert ProjectiveSum.of((fs(0), -1)) == ProjectiveSum.of(FinSet())  # iota_{0} A is A<1>
        assert ProjectiveSum.of((fs(0), 1)) != ProjectiveSum.of(fs(0))

    @pytest.mark.parametrize("part", [(1, 3), [1, 3]])
    def test_bare_integers_are_rejected(self, part):
        with pytest.raises(TypeError):
            ProjectiveSum.of(part)

    def test_json_roundtrip(self):
        S = ProjectiveSum.of(fs(0, 2), (fs(1), -3))
        assert ProjectiveSum.from_json(S.to_json()) == S

    def test_json_shift_is_not_truncated(self):
        # int() once read the shift 1.5 as 1
        with pytest.raises(TypeError, match="summand must be"):
            ProjectiveSum.from_json([{"J": [0], "shift": 1.5}])
        with pytest.raises(TypeError, match="^summand must be shifted by an integer, got True$"):
            ProjectiveSum.from_json([{"J": [0], "shift": True}])
        with pytest.raises(TypeError, match="^FinSet elements must be integers, got False$"):
            ProjectiveSum.from_json([{"J": [0, False], "shift": 0}])

    def test_json_shift_is_bounded(self, monkeypatch):
        # a shift is absorbed when the sum is built, so JSON input bounds it as the CLI does
        monkeypatch.setattr("weylgraded.picard.POWER_MAX_SET_SIZE", 5)
        assert ProjectiveSum.from_json([{"J": [], "shift": 5}]) == ProjectiveSum.of(fs(0, 1, 2, 3, 4))
        assert ProjectiveSum.from_json([{"J": [], "shift": -5}]) == ProjectiveSum.of(fs(-5, -4, -3, -2, -1))
        for s in (6, -6):
            with pytest.raises(ValueError, match=f"^summand shift {s} is over the limit POWER_MAX_SET_SIZE = 5"):
                ProjectiveSum.from_json([{"J": [0], "shift": s}])


class TestNormalize:
    def test_overlapping_pair(self):
        got = normalize_sum(ProjectiveSum.of(fs(1, 3), fs(0, 1, 2)))
        assert got == ProjectiveSum.of(fs(1), fs(0, 1, 2, 3))

    def test_single_summand(self):
        S = ProjectiveSum.of(fs(0, 2))
        assert normalize_sum(S) == S

    def test_disjoint_pair(self):
        got = normalize_sum(ProjectiveSum.of(fs(0), fs(1)))
        assert got == ProjectiveSum.of(FinSet(), fs(0, 1))


class TestIsoTest:
    def test_three_summand_rewrite(self):
        left = ProjectiveSum.of(fs(1, 3), fs(0, 1, 2), fs(0))
        right = ProjectiveSum.of(fs(0, 1, 2, 3), fs(0, 1), FinSet())
        assert iso_test(left, right)

    def test_distinct_rank_one_classes(self):
        assert not iso_test(ProjectiveSum.of(fs(0)), ProjectiveSum.of(FinSet()))

    def test_reflexive(self):
        S = ProjectiveSum.of(fs(0, 2), (fs(1), -1))
        assert iso_test(S, S)

    def test_rank_separates_sums_with_equal_counts(self):
        # A and A + A: no summand set holds any integer, but the ranks differ
        assert not iso_test(ProjectiveSum.of(FinSet()), ProjectiveSum.of(FinSet(), FinSet()))

    def test_matches_the_chain_comparison(self):
        rng = random.Random(13)

        def random_pairs(m):
            return tuple(
                (FinSet(rng.sample(range(-5, 6), rng.randint(0, 4))), rng.randint(-3, 3))
                for _ in range(m)
            )

        def rewrite(pairs):
            # shift-absorb, re-shift by t, and exchange one pair: an isomorphic sum
            sets = [absorb_shift(J, s) for J, s in pairs]
            rng.shuffle(sets)
            if len(sets) >= 2:
                J, K = sets[0], sets[1]
                sets[:2] = [J | K, J & K]
            return ProjectiveSum(tuple(
                (absorb_shift(J, -t), t) for J, t in ((J, rng.randint(-3, 3)) for J in sets)
            ))

        answers = set()
        for i in range(2000):
            pairs = random_pairs(rng.randint(0, 4))
            S1 = ProjectiveSum(pairs)
            S2 = rewrite(pairs) if i % 2 else ProjectiveSum(random_pairs(rng.randint(0, 4)))
            want = normalize_sum(S1) == normalize_sum(S2)
            assert iso_test(S1, S2) == want, (str(S1), str(S2))
            answers.add(want)
        assert answers == {True, False}


class TestAgainstCounterReference:
    """iso_test and normalize_sum against membership Counters built here.

    The Counters are taken from the drawn (J, s) pairs, not from the sums'
    stored summands, so the reference does not rest on the constructor.
    """

    @staticmethod
    def counts(pairs):
        return Counter(t for J, s in pairs for t in absorb_shift(J, s))

    def test_2000_seeded_sums(self):
        rng = random.Random(30)

        def random_pairs(m):
            return tuple(
                (FinSet(rng.sample(range(-6, 7), rng.randint(0, 5))), rng.randint(-4, 4))
                for _ in range(m)
            )

        answers = set()
        for i in range(2000):
            pairs1 = random_pairs(rng.randint(0, 4))
            if i % 3 == 0:  # the same summands, turned and re-shifted: isomorphic
                parts = [absorb_shift(J, s) for J, s in pairs1]
                rng.shuffle(parts)
                pairs2 = tuple((absorb_shift(J, -t), t) for J, t in
                               ((J, rng.randint(-4, 4)) for J in parts))
            elif i % 3 == 1:  # one more free summand: equal counts, larger rank
                pairs2 = pairs1 + ((FinSet(), 0),)
            else:
                pairs2 = random_pairs(rng.randint(0, 4))
            S1, S2 = ProjectiveSum(pairs1), ProjectiveSum(pairs2)
            want = len(pairs1) == len(pairs2) and dict(self.counts(pairs1)) == dict(self.counts(pairs2))
            assert iso_test(S1, S2) == want, (str(S1), str(S2))
            answers.add(want)
            m, counts = len(pairs1), self.counts(pairs1)
            chain = tuple(
                (FinSet(t for t, c in counts.items() if c >= m - k), 0) for k in range(m)
            )
            assert normalize_sum(S1).summands == chain, str(S1)
        assert answers == {True, False}


class TestStablyFreeWitness:
    def test_two_element_example(self):
        assert stably_free_witness(fs(1, 3)) == ([3, 1], [4, 2, 0])

    def test_empty(self):
        assert stably_free_witness(FinSet()) == ([], [0])

    def test_singleton(self):
        adds, result = stably_free_witness(fs(1))
        assert (adds, result) == ([1], [2, 0])
        left = ProjectiveSum.of(fs(1), (FinSet(), 1))
        right = ProjectiveSum.of((FinSet(), 2), (FinSet(), 0))
        assert iso_test(left, right)

    def test_witness_verified_by_iso(self):
        rng = random.Random(5)
        for _ in range(100):
            J = FinSet(rng.sample(range(1, 9), rng.randint(0, 5)))
            adds, result = stably_free_witness(J)
            left = ProjectiveSum.of(J, *[(FinSet(), l) for l in adds])
            right = ProjectiveSum.of(*[(FinSet(), m) for m in result])
            assert iso_test(left, right)

    def test_rejects_nonpositive_support(self):
        with pytest.raises(ValueError):
            stably_free_witness(fs(0, 2))


class TestTheta:
    def test_basis_value(self):
        assert theta_map({fs(0, 3): 1, FinSet(): -1}) == PicElement(1, 0, fs(0, 3))

    def test_mod_two_collapse(self):
        assert theta_map({fs(1, 2): 2, FinSet(): -2}) == identity()

    def test_zero(self):
        assert theta_map({}) == identity()


class TestK0Class:
    def test_free_module(self):
        assert k0_class(ProjectiveSum.of(FinSet())) == K0Class({0: 1})

    def test_shifted_free(self):
        assert k0_class(ProjectiveSum.of(fs(0))) == K0Class({1: 1})
        assert k0_class(ProjectiveSum.of((FinSet(), -2))) == K0Class({-2: 1})

    def test_two_summand_class(self):
        got = k0_class(ProjectiveSum.of(fs(1, 3)))
        assert got == K0Class({4: 1, 2: 1, 0: 1, 3: -1, 1: -1})

    def test_reduced_drops_free_generator(self):
        c = K0Class({0: 5, 2: 1})
        assert c.reduced() == K0Class({2: 1})

    def test_json(self):
        c = K0Class({-1: 2, 3: -1})
        assert c.to_json() == {"-1": 2, "3": -1}

    def test_negative_members_count_with_the_opposite_sign(self):
        # iota_{-1} A is A<-1>, and iota_{-2} A is A<-2> - A<-1> + A
        assert k0_class(ProjectiveSum.of(fs(-1))) == K0Class({-1: 1})
        assert k0_class(ProjectiveSum.of(fs(-2))) == K0Class({-2: 1, -1: -1, 0: 1})


def _k0_class_by_dset_min(pairs):
    """k0_class's coefficients read off (J, s) pairs through the DSet minimum, the reference.

    iota_J A<s> is iota_K A<n> with n = m + s for m the least element of the
    DSet Z>=0 xor J, and K = absorb_shift(J, -m) inside Z>=1; K's stably-free
    witness gives [A<n>] + sum over k in K of ([A<k+n+1>] - [A<k+n>]).
    """
    coeffs = {}
    for J, s in pairs:
        m = _dset_min(J._elements)
        n = m + s
        coeffs[n] = coeffs.get(n, 0) + 1
        for k in absorb_shift(J, -m):
            coeffs[k + n + 1] = coeffs.get(k + n + 1, 0) + 1
            coeffs[k + n] = coeffs.get(k + n, 0) - 1
    return {n: c for n, c in coeffs.items() if c}


class TestK0ClassAgainstTheDSetMinimum:
    def test_2000_seeded_sums(self):
        rng = random.Random(32)
        negative_members = nonzero_shifts = 0
        for _ in range(2000):
            pairs = tuple(
                (FinSet(rng.sample(range(-8, 9), rng.randint(0, 5))), rng.randint(-6, 6))
                for _ in range(rng.randint(0, 5))
            )
            S = ProjectiveSum(pairs)
            assert k0_class(S).coefficients == _k0_class_by_dset_min(pairs), pairs
            negative_members += any(k < 0 for K, _ in S.summands for k in K)
            nonzero_shifts += any(s for _, s in pairs)
        # both sign branches and the shift absorption are exercised
        assert negative_members > 1000 and nonzero_shifts > 1000


class TestBuiltSumsAreNotAbsorbedAgain:
    def test_no_absorb_shift_call(self, monkeypatch):
        S1 = ProjectiveSum.of((fs(0, 2), 3), (fs(-1), -2), fs(4))
        S2 = ProjectiveSum.of((fs(1), -1), (fs(0, 2), 3), (FinSet(), 1))
        calls = []

        def counted(J, s):
            calls.append(s)
            return absorb_shift(J, s)

        monkeypatch.setattr(zfin, "absorb_shift", counted)
        monkeypatch.setattr(ktheory, "absorb_shift", counted)
        iso_test(S1, S2)
        normalize_sum(S1)
        k0_class(S1)
        k0_class(S2)
        assert calls == []
        ProjectiveSum.of((fs(0), 1))
        assert calls == [1]  # the count does see an absorption
