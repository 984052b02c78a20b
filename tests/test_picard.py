import random
from fractions import Fraction

import pytest

from weylgraded.zfin import FinSet
from weylgraded.lattices import DSet, SimpleLabel
from weylgraded.picard import (
    PicElement,
    act_on_dset,
    act_on_simple,
    compose,
    coverage_witness,
    identity,
    inverse,
    iota,
    is_generative,
    is_numerically_trivial,
    omega,
    power,
    shift,
    sign_rank,
)


def fs(*xs):
    return FinSet(xs)


class TestCompose:
    def test_shift_involution_square(self):
        F = compose(shift(1), iota(fs(0)))
        assert F == PicElement(1, 1, fs(0))
        assert compose(F, F) == PicElement(1, 2, fs(-1, 0))

    def test_identity_laws(self):
        F = PicElement(-1, 3, fs(1, 4))
        assert compose(F, identity()) == F
        assert compose(identity(), F) == F

    def test_shift_conjugates_involutions(self):
        # iota_0 * S = S * iota_{-1}
        assert compose(iota(fs(0)), shift(1)) == PicElement(1, 1, fs(-1))

    def test_omega_conjugates_involutions(self):
        # w * iota_j * w = iota_{-1-j}
        got = compose(compose(omega(), iota(fs(3))), omega())
        assert got == iota(fs(-4))


class TestInverse:
    def test_even_example(self):
        assert inverse(PicElement(1, 1, fs(0))) == PicElement(1, -1, fs(1))

    def test_identity(self):
        assert inverse(identity()) == identity()

    def test_omega_self_inverse(self):
        assert inverse(omega()) == omega()


class TestSignRank:
    def test_shift_powers(self):
        for n in range(-4, 5):
            assert sign_rank(shift(n)) == (1, n)

    def test_omega(self):
        assert sign_rank(omega()) == (-1, -1)

    def test_involutions_numerically_trivial(self):
        assert sign_rank(iota(fs(0, 5))) == (1, 0)
        assert is_numerically_trivial(iota(fs(2)))

    def test_kernel_composes_as_xor(self):
        J, K = fs(-2, 1), fs(1, 3)
        assert compose(iota(J), iota(K)) == iota(J ^ K)


class TestActOnSimple:
    def test_omega_on_x(self):
        assert act_on_simple(omega(), SimpleLabel.X(0)) == SimpleLabel.Y(-1)

    def test_involution_swap(self):
        assert act_on_simple(iota(fs(0)), SimpleLabel.X(0)) == SimpleLabel.Y(0)
        assert act_on_simple(iota(fs(0)), SimpleLabel.X(1)) == SimpleLabel.X(1)

    def test_shift_on_weight_module(self):
        got = act_on_simple(shift(2), SimpleLabel.M(Fraction(1, 2)))
        assert got == SimpleLabel.M(Fraction(5, 2))

    def test_omega_on_weight_module(self):
        got = act_on_simple(omega(), SimpleLabel.M(Fraction(1, 2)))
        assert got == SimpleLabel.M(Fraction(-3, 2))


class TestActOnDSet:
    def test_identity(self):
        E = DSet(fs(-1, 2))
        assert act_on_dset(identity(), E) == E

    def test_omega_fixes_free_class(self):
        assert act_on_dset(omega(), DSet(FinSet())) == DSet(FinSet())


class TestGenerativity:
    def test_shift_generative(self):
        assert is_generative(shift(1))
        assert is_generative(shift(-3))

    def test_involutions_not_generative(self):
        assert not is_generative(iota(fs(0, 5)))

    def test_odd_not_generative(self):
        assert not is_generative(omega())
        assert not is_generative(PicElement(-1, 4, fs(2)))


def _power_by_repeated_compose(F, k):
    """The k-fold compose loop that power replaced; kept as the reference."""
    if k < 0:
        F, k = inverse(F), -k
    out = identity()
    for _ in range(k):
        out = compose(F, out)
    return out


class TestPower:
    def test_matches_repeated_compose(self):
        rng = random.Random(0)
        elements = [
            PicElement(a, b, FinSet(rng.sample(range(-15, 16), rng.randint(0, 6))))
            for a in (1, -1)
            for b in (0, 0, 1, -1, 2, -3, 7, -12)
            for _ in range(8)
        ]
        for F in elements:
            for k in (0, 1, -1, 2, -2, 200, -200, rng.randint(-200, 200)):
                assert power(F, k) == _power_by_repeated_compose(F, k), (F, k)

    def test_large_exponent_small_set(self):
        assert power(shift(1), 10**9) == shift(10**9)
        F = compose(shift(1), iota(fs(0, 1)))
        assert power(F, 10**9) == PicElement(1, 10**9, fs(-(10**9) + 1, 1))

    def test_refuses_sets_past_the_limit(self, monkeypatch):
        monkeypatch.setattr("weylgraded.picard.POWER_MAX_SET_SIZE", 100)
        F = compose(shift(1), iota(fs(0)))
        assert len(power(F, 100).J) == 100
        with pytest.raises(ValueError, match="over the limit POWER_MAX_SET_SIZE = 100"):
            power(F, 101)
        with pytest.raises(ValueError, match="POWER_MAX_SET_SIZE"):
            power(F, -101)

    def test_refusal_names_the_exact_size_of_the_power(self, monkeypatch):
        monkeypatch.setattr("weylgraded.picard.POWER_MAX_SET_SIZE", 6)
        rng = random.Random(5)
        refused = answered = 0
        for _ in range(600):
            J = fs(*rng.sample(range(-5, 6), rng.randint(0, 6)))
            F, k = PicElement(rng.choice((1, -1)), rng.randint(-4, 4), J), rng.randint(-40, 40)
            want = _power_by_repeated_compose(F, k)
            if len(want.J) > 6:
                refused += 1
                with pytest.raises(ValueError, match=f"set of {len(want.J)} elements"):
                    power(F, k)
            else:
                answered += 1
                assert power(F, k) == want, (F, k)
        assert refused and answered

    @pytest.mark.parametrize("k", [10**12, 10**30])
    def test_refuses_without_building(self, k):
        # a set of 10**12 elements could not be built in memory
        with pytest.raises(ValueError, match=f"set of {k} elements"):
            power(compose(shift(1), iota(fs(0))), k)


class TestCoverageWitness:
    def test_veronese_row(self):
        out = coverage_witness(FinSet(), 1, 3)
        assert out[2] == fs(0, 1)
        assert out[-2] == fs(-2, -1)
        union = set()
        for J in out.values():
            union |= set(J)
        assert set(range(-2, 3)) <= union

    def test_idealizer_row(self):
        out = coverage_witness(fs(0), 1, 3)
        for j, J in out.items():
            assert J == fs(0, j)
        union = {t for J in out.values() for t in J}
        assert set(range(-2, 3)) <= union

    def test_rank_two(self):
        out = coverage_witness(fs(0, 1), 2, 2)
        union = {t for J in out.values() for t in J}
        assert set(range(-2, 3)) <= union

    def test_covering_certificate(self):
        from itertools import combinations

        for n in range(1, 4):
            for k in range(n + 1):
                for c in combinations(range(n), k):
                    out = coverage_witness(FinSet(c), n, 4)
                    union = {t for J in out.values() for t in J}
                    span = range(-n * 3, n * 3 + 1)
                    assert set(span) <= union

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            coverage_witness(fs(3), 2, 2)


class TestRoundTrip:
    def test_json(self):
        F = PicElement(-1, 2, fs(0, 2))
        assert PicElement.from_json(F.to_json()) == F
