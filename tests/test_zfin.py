import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from weylgraded.zfin import (
    AdmissiblePair,
    FinSet,
    NotInImageError,
    affine_image,
    boundary,
    inverse_boundary,
    necklace_canonical,
    necklace_count,
    necklace_enumerate,
    slice,
)
from weylgraded import zfin

finsets = st.frozensets(st.integers(-10, 10), max_size=5).map(FinSet)
moduli = st.integers(1, 6)


def fs(*xs):
    return FinSet(xs)


class TestSymmetricDifference:
    def test_definition(self):
        assert fs(0, 1) ^ fs(1, 2) == fs(0, 2)

    def test_identity(self):
        assert fs(4, 7) ^ FinSet() == fs(4, 7)

    def test_exponent_two(self):
        assert fs(0, 3) ^ fs(0, 3) == FinSet()

    def test_public_constructor_rejects_non_integers(self):
        with pytest.raises(TypeError):
            FinSet([0, 1.5])

    @given(finsets, finsets, finsets)
    def test_group_axioms(self, a, b, c):
        assert (a ^ b) ^ c == a ^ (b ^ c)
        assert a ^ b == b ^ a
        assert a ^ a == FinSet()


class TestAffineImage:
    def test_shift(self):
        assert affine_image(fs(0, 1), 1, 3) == fs(3, 4)

    def test_dilation(self):
        assert affine_image(fs(0, 1), 2, 0) == fs(0, 2)

    def test_omega_conjugation_map(self):
        # j -> -1-j, the reflection conjugating iota_j to iota_{-1-j}
        assert affine_image(fs(0), -1, -1) == fs(-1)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            affine_image(fs(1), 0, 5)

    @pytest.mark.parametrize("scale, offset", [(1, 0.5), (2.0, 0)])
    def test_non_integer_map_rejected(self, scale, offset):
        with pytest.raises(TypeError):
            affine_image(fs(1), scale, offset)


class TestSlice:
    def test_even_residue(self):
        assert slice(fs(0, 3, 5), 2, 0) == fs(0)

    def test_odd_residue(self):
        assert slice(fs(0, 3, 5), 2, 1) == fs(1, 2)

    def test_empty(self):
        assert slice(FinSet(), 3, 2) == FinSet()

    @given(finsets, moduli)
    def test_slices_reassemble(self, J, n):
        rebuilt = FinSet()
        for i in range(n):
            piece = slice(J, n, i)
            if piece:
                rebuilt = rebuilt ^ affine_image(piece, n, i)
        assert rebuilt == J

    def test_residue_out_of_range(self):
        with pytest.raises(ValueError):
            slice(fs(0), 2, 2)


class TestBoundary:
    def test_interval(self):
        assert boundary(fs(1, 2, 3), 1) == fs(0, 3)

    def test_singleton(self):
        assert boundary(fs(2), 2) == fs(0, 2)

    def test_empty(self):
        assert boundary(FinSet(), 5) == FinSet()


class TestInverseBoundary:
    def test_paired_run(self):
        assert inverse_boundary(fs(0, 3), 1) == fs(1, 2, 3)

    def test_mod_two(self):
        K = inverse_boundary(fs(0, 2), 2)
        assert K == fs(2)
        assert boundary(K, 2) == fs(0, 2)

    def test_odd_parity_rejected(self):
        with pytest.raises(NotInImageError):
            inverse_boundary(fs(0), 1)


def _inverse_boundary_by_slices(J, n):
    """inverse_boundary as one slice() call per residue; kept as the reference."""
    out = []
    for i in range(n):
        s = sorted(slice(J, n, i))
        if len(s) % 2:
            raise NotInImageError(
                f"slice {i} of {J} mod {n} has odd size; no boundary preimage exists"
            )
        for a, b in zip(s[::2], s[1::2]):
            out.extend(n * k + i for k in range(a + 1, b + 1))
    return FinSet(out)


def _outcome(f, *args):
    try:
        return f(*args)
    except NotInImageError as exc:
        return str(exc)


class TestInverseBoundaryAgainstSlices:
    def test_random_sets_and_boundaries(self):
        rng = random.Random(0)
        odd = 0
        for t in range(2000):
            n = rng.randint(1, 12)
            J = FinSet(rng.sample(range(-40, 41), rng.randint(0, 12)))
            if t % 2:
                J = boundary(J, n)
            expected = _outcome(_inverse_boundary_by_slices, J, n)
            assert _outcome(inverse_boundary, J, n) == expected, (J, n)
            odd += isinstance(expected, str)
        assert 0 < odd < 1000


def _necklace_enumerate_by_masks(n):
    """Canonicalize all 2^n subsets of [0, n); the enumeration FKM replaced."""
    seen = {
        necklace_canonical(AdmissiblePair(FinSet(c), n)).representative.J.elements
        for k in range(n + 1)
        for c in combinations(range(n), k)
    }
    return [AdmissiblePair(FinSet(t), n) for t in sorted(seen, key=lambda t: (len(t), t))]


class TestNecklaces:
    def test_enumerate_matches_all_masks(self):
        for n in range(1, 13):
            got = [c.representative for c in necklace_enumerate(n)]
            assert got == _necklace_enumerate_by_masks(n), n

    def test_enumerate_limit(self):
        assert zfin.NECKLACE_ENUM_MAX_N == 22
        assert necklace_count(22) <= zfin.NECKLACE_ENUM_MAX_CLASSES < necklace_count(23)
        for n in (23, 10**9):
            with pytest.raises(ValueError, match="NECKLACE_ENUM_MAX_CLASSES = 262144"):
                necklace_enumerate(n)

    def test_canonical_rotates(self):
        got = necklace_canonical(AdmissiblePair(fs(1), 2))
        assert got.representative == AdmissiblePair(fs(0), 2)

    def test_canonical_fixed_point(self):
        p = AdmissiblePair(fs(0, 2), 4)
        assert necklace_canonical(p).representative == p

    def test_canonical_empty(self):
        p = AdmissiblePair(FinSet(), 3)
        assert necklace_canonical(p).representative == p

    def test_reflections_not_identified(self):
        # {0,1,3} at n=6 is chiral: its reversal {0,3,5} is no rotation of it
        a = necklace_canonical(AdmissiblePair(fs(0, 1, 3), 6))
        b = necklace_canonical(AdmissiblePair(fs(0, 3, 5), 6))
        assert a != b

    def test_count_values(self):
        assert [necklace_count(n) for n in range(1, 7)] == [2, 3, 4, 6, 8, 14]

    def test_count_formula_instances(self):
        assert necklace_count(4) == (16 + 4 + 4) // 4
        assert necklace_count(6) == (64 + 8 + 8 + 4) // 6

    def test_enumerate_small(self):
        ones = necklace_enumerate(1)
        assert [c.representative for c in ones] == [
            AdmissiblePair(FinSet(), 1),
            AdmissiblePair(fs(0), 1),
        ]
        twos = necklace_enumerate(2)
        assert [c.representative for c in twos] == [
            AdmissiblePair(FinSet(), 2),
            AdmissiblePair(fs(0), 2),
            AdmissiblePair(fs(0, 1), 2),
        ]
        assert len(necklace_enumerate(3)) == necklace_count(3) == 4


class TestAdmissiblePair:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissiblePair(fs(2), 2)
        with pytest.raises(ValueError):
            AdmissiblePair(FinSet(), 0)


class TestJson:
    def test_finset_roundtrip(self):
        J = fs(-3, 0, 7)
        assert FinSet.from_json(J.to_json()) == J
        assert J.to_json() == [-3, 0, 7]

    def test_pair_roundtrip(self):
        p = AdmissiblePair(fs(0, 2), 4)
        assert AdmissiblePair.from_json(p.to_json()) == p
