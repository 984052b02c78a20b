import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from weylgraded.zfin import (
    AdmissiblePair,
    FinSet,
    NotInImageError,
    absorb_shift,
    affine_image,
    boundary,
    inverse_boundary,
    necklace_canonical,
    necklace_count,
    necklace_enumerate,
    slice,
)
from weylgraded import gwa, picard, zfin
from weylgraded.ktheory import K0Class, ProjectiveSum, k0_class, stably_free_witness, theta_map
from weylgraded.lattices import DSet, GradedLattice, SimpleLabel, iota_lattice, simple_factor, to_dset
from weylgraded.skew import RationalPoly

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


def _canonical_by_scan(J, n):
    """The least sorted tuple over all n rotations; the scan Booth's algorithm replaced."""
    return min(tuple(sorted((j + r) % n for j in J)) for r in range(n))


def _scan_cases(rng, count):
    """Seeded pairs with n <= 40: random, periodic, empty and full J."""
    for t in range(count):
        n = rng.randint(1, 40)
        kind = t % 4
        if kind == 0:
            J = rng.sample(range(n), rng.randint(0, n))
        elif kind == 1:
            d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            block = [i for i in range(d) if rng.random() < 0.5]
            J = [b + d * k for k in range(n // d) for b in block]
        else:
            J = [] if kind == 2 else range(n)
        yield FinSet(J), n


class TestCanonicalAgainstScan:
    def test_booth_matches_the_rotation_scan(self):
        periodic = 0
        for J, n in _scan_cases(random.Random(14), 2000):
            got = necklace_canonical(AdmissiblePair(J, n)).representative
            assert got == AdmissiblePair(FinSet(_canonical_by_scan(J, n)), n), (J.elements, n)
            periodic += any(
                FinSet((j + r) % n for j in J) == J for r in range(1, n)
            ) and 0 < len(J) < n
        assert periodic > 100


class TestKernelsAgainstDefinitions:
    @pytest.mark.parametrize("scale", [1, -1, 3, -3])
    def test_affine_image(self, scale):
        rng = random.Random(scale)
        for _ in range(200):
            J = FinSet(rng.sample(range(-20, 21), rng.randint(0, 10)))
            offset = rng.randint(-30, 30)
            want = FinSet({scale * j + offset for j in J})
            assert affine_image(J, scale, offset) == want, (J, scale, offset)

    def test_absorb_shift(self):
        rng = random.Random(0)
        for t in range(400):
            J = FinSet(rng.sample(range(-20, 21), rng.randint(0, 10)))
            s = 0 if t % 8 == 0 else rng.randint(-25, 25)
            delta = FinSet(range(0, s) if s >= 0 else range(s, 0))
            assert absorb_shift(J, s) == FinSet({j + s for j in J}) ^ delta, (J, s)

    @pytest.mark.parametrize("args", [(1, 0.5), (2.0, 0), (1, "1")])
    def test_affine_image_rejects_non_integers(self, args):
        with pytest.raises(TypeError):
            affine_image(fs(1), *args)

    @pytest.mark.parametrize("s", [0.5, 2.0, "1"])
    def test_absorb_shift_rejects_non_integers(self, s):
        with pytest.raises(TypeError):
            absorb_shift(fs(1, 4), s)


def _k0_class_two_steps(S):
    """k0_class as it was: absorb the shift, then shift by the DSet minimum."""
    coeffs = {}
    for J, s in S.summands:
        J1 = absorb_shift(J, s)
        n = DSet(J1).min_element()
        adds, result = stably_free_witness(absorb_shift(J1, -n))
        for r in result:
            coeffs[r + n] = coeffs.get(r + n, 0) + 1
        for a in adds:
            coeffs[a + n] = coeffs.get(a + n, 0) - 1
    return K0Class(coeffs)


class TestK0ClassOneShift:
    def test_matches_the_two_step_version(self):
        rng = random.Random(3)
        for _ in range(500):
            S = ProjectiveSum(tuple(
                (FinSet(rng.sample(range(-8, 9), rng.randint(0, 5))), rng.randint(-6, 6))
                for _ in range(rng.randint(1, 4))
            ))
            assert k0_class(S) == _k0_class_two_steps(S), str(S)


class TestAdmissiblePair:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissiblePair(fs(2), 2)
        with pytest.raises(ValueError):
            AdmissiblePair(FinSet(), 0)


# Functions that take a modulus n, called with n; each checks n by zfin._check_modulus.
MODULUS_TAKERS = {
    "AdmissiblePair": lambda n: AdmissiblePair(fs(0, 1), n),
    "slice": lambda n: slice(fs(0, 2), n, 0),
    "boundary": lambda n: boundary(fs(0, 2), n),
    "inverse_boundary": lambda n: inverse_boundary(fs(0, 2), n),
    "necklace_count": necklace_count,
    "necklace_enumerate": necklace_enumerate,
    "graded_piece_closed_form": lambda n: gwa.graded_piece_closed_form([0], n, -1),
    "twisted_endo_piece_oracle": lambda n: gwa.twisted_endo_piece_oracle([0], n, 1),
    "coverage_witness": lambda n: picard.coverage_witness([0], n, 1),
}

# Functions that take a set J: (J, the call).  Each reads J through zfin._as_finset,
# so a list, a tuple and a FinSet give one answer, and a non-integer element raises TypeError.
SET_TAKERS = {
    "AdmissiblePair": ([0, 2], lambda J: AdmissiblePair(J, 4)),
    "factors": ([0, 2], lambda J: gwa.factors(J, 4)),
    "present": ([0, 2], lambda J: gwa.present(J, 4)),
    "graded_piece_closed_form": ([0, 2], lambda J: gwa.graded_piece_closed_form(J, 4, 2)),
    "twisted_endo_piece_oracle": ([0, 2], lambda J: gwa.twisted_endo_piece_oracle(J, 4, -2)),
    "ring_pieces": ([0, 2], lambda J: gwa.ring_pieces(J, 4, -2, 2, oracle=True)),
    "verify_ring_closure": ([0, 2], lambda J: gwa.verify_ring_closure(J, 4, 2)),
    "verify_gwa_embedding": ([0, 2], lambda J: gwa.verify_gwa_embedding(J, 4)),
    "simplicity_root_test": ([0, 2], lambda J: gwa.simplicity_root_test(J, 4)),
    "coverage_witness": ([0, 2], lambda J: picard.coverage_witness(J, 4, 2)),
    "PicElement": ([-1, 3], lambda J: picard.PicElement(1, 2, J)),
    "iota_lattice": ([-1, 3], lambda J: iota_lattice(J, 1)),
    "involute": ([-1, 3], lambda J: GradedLattice.free().involute(J)),
    "to_dset": ([-1, 3], lambda J: to_dset(J, 1)),
    "stably_free_witness": ([1, 3], stably_free_witness),
    "theta_map": ([-1, 3], lambda J: theta_map([(J, 1), (fs(3), 3)])),
    "slice": ([0, 2], lambda J: slice(J, 2, 0)),
    "boundary": ([0, 2], lambda J: boundary(J, 2)),
    "inverse_boundary": ([0, 2], lambda J: inverse_boundary(J, 2)),
}

# Functions that take an integer argument: (the rule its TypeError states, the call).
# Each checks the argument by zfin._check_int, which refuses a bool as well as a float.
INT_TAKERS = {
    "power k": ("power's exponent k must be an integer", lambda k: picard.power(picard.PicElement(1, 2, [0]), k)),
    "slice residue": ("residue i must be an integer", lambda i: slice([0, 1], 2, i)),
    "affine_image scale": ("scale must be an integer", lambda s: affine_image(fs(0), s, 0)),
    "affine_image offset": ("offset must be an integer", lambda t: affine_image(fs(0), 1, t)),
    "PicElement a": ("sign must be +1 or -1", lambda a: picard.PicElement(a, 1, [])),
    "PicElement b": ("shift exponent must be an integer", lambda b: picard.PicElement(1, b, [])),
    "SimpleLabel.X": ("X-labels carry an integer index", SimpleLabel.X),
    "simple_factor": ("simple factors are indexed by integers", lambda j: simple_factor(GradedLattice.free(), j)),
    "ProjectiveSum": ("summand must be shifted by an integer", lambda s: ProjectiveSum(((fs(1), s),))),
    "ProjectiveSum.of": ("summand must be shifted by an integer", lambda s: ProjectiveSum.of((fs(1), s))),
    "verify_ring_closure window": ("window must be a positive integer", lambda w: gwa.verify_ring_closure([0], 1, w)),
    "coverage_witness window": ("window must be a positive integer", lambda w: picard.coverage_witness([0], 1, w)),
    "absorb_shift": ("shift must be an integer", lambda s: absorb_shift(fs(1), s)),
    "to_dset shift": ("shift must be an integer", lambda s: to_dset([1], s)),
    "iota_lattice shift": ("shift must be an integer", lambda s: iota_lattice([1], s)),
    "from_roots root": ("a root map's roots must be integers", lambda t: RationalPoly.from_roots({t: 1})),
    "from_roots exponent": ("a root map's exponents must be integers", lambda e: RationalPoly.from_roots({0: e})),
    "scaled root": ("a root map's roots must be integers", lambda t: GradedLattice.free().scaled({t: 1})),
    "scaled exponent": ("a root map's exponents must be integers", lambda e: GradedLattice.free().scaled({0: e})),
    "GradedLattice degree": ("lattice degrees must be integers", lambda m: GradedLattice({m: {}})),
    "GradedLattice root": ("a root map's roots must be integers", lambda t: GradedLattice({0: {t: 1}})),
    "GradedLattice exponent": ("a root map's exponents must be integers", lambda e: GradedLattice({0: {0: e}})),
    "theta_map coefficient": ("theta_map coefficient must be an integer", lambda c: theta_map([(fs(0), c)])),
    "K0Class degree": ("K_0 basis degree must be an integer", lambda n: K0Class({n: 1})),
    "K0Class coefficient": ("K_0 coefficient must be an integer", lambda c: K0Class({0: c})),
    "graded_piece_closed_form j": ("piece degree j must be an integer", lambda j: gwa.graded_piece_closed_form([0], 1, j)),
    "twisted_endo_piece_oracle j": ("piece degree j must be an integer", lambda j: gwa.twisted_endo_piece_oracle([0], 1, j)),
    "ring_pieces j_min": ("piece degree j_min must be an integer", lambda j: gwa.ring_pieces([0], 1, j, 1)),
    "ring_pieces j_max": ("piece degree j_max must be an integer", lambda j: gwa.ring_pieces([0], 1, -1, j)),
}


class TestInputRules:
    @pytest.mark.parametrize("n", [2.5, 2.0, "2", Fraction(2), True], ids=repr)
    @pytest.mark.parametrize("name", MODULUS_TAKERS)
    def test_modulus_must_be_an_int(self, name, n):
        with pytest.raises(TypeError, match=f"^n must be a positive integer, got {re.escape(repr(n))}$"):
            MODULUS_TAKERS[name](n)

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("name", MODULUS_TAKERS)
    def test_modulus_must_be_positive(self, name, n):
        with pytest.raises(ValueError, match=f"^n must be a positive integer, got {n}$"):
            MODULUS_TAKERS[name](n)

    def test_no_float_reaches_a_finset(self):
        # each of these once answered with floats: ({0.0,1.0}, 2.5), {0.0} and (z, 2.0)
        with pytest.raises(TypeError):
            necklace_canonical(AdmissiblePair(fs(0, 1), 2.5))
        with pytest.raises(TypeError):
            slice(fs(0, 2), 2.0, 0)
        with pytest.raises(TypeError):
            gwa.graded_piece_closed_form([0], 2.0, -1)
        # the residue too: this answered {0.0,1.0}
        with pytest.raises(TypeError, match=r"^residue i must be an integer, got 0\.0$"):
            slice(fs(0, 2), 2, 0.0)

    @pytest.mark.parametrize("name", SET_TAKERS)
    def test_any_iterable_of_integers_gives_one_answer(self, name):
        J, call = SET_TAKERS[name]
        expected = call(FinSet(J))
        assert call(list(J)) == expected
        assert call(tuple(J)) == expected
        assert call(iter(J)) == expected
        with pytest.raises(TypeError, match="FinSet elements must be integers"):
            call([*J[:-1], J[-1] + 0.5])
        # a bool after an equal integer, which a frozenset would merge away, and one alone
        for flag in (True, False):
            with pytest.raises(TypeError, match=f"^FinSet elements must be integers, got {flag}$"):
                call([*J, int(flag), flag])
            with pytest.raises(TypeError, match=f"^FinSet elements must be integers, got {flag}$"):
                call([*J, flag])

    @pytest.mark.parametrize("x", [True, 2.0], ids=repr)
    @pytest.mark.parametrize("name", INT_TAKERS)
    def test_integer_arguments_must_be_ints(self, name, x):
        rule, call = INT_TAKERS[name]
        with pytest.raises(TypeError, match=f"^{re.escape(rule)}, got {re.escape(repr(x))}$"):
            call(x)

    def test_a_finset_passes_through(self):
        J = fs(0, 2)
        assert zfin._as_finset(J) is J
        assert zfin._admissible(J, 4) is J
        assert AdmissiblePair(J, 4).J is J

    def test_pieces_build_no_admissible_pair(self, monkeypatch):
        built = []
        init = AdmissiblePair.__init__

        def counted(self, J, n):
            built.append((J, n))
            init(self, J, n)

        monkeypatch.setattr(AdmissiblePair, "__init__", counted)
        gwa.graded_piece_closed_form([0, 2], 4, 2)
        gwa.twisted_endo_piece_oracle([0, 2], 4, 2)
        assert built == []
        AdmissiblePair(fs(0), 1)
        assert len(built) == 1  # the count does see a constructed pair


class TestJson:
    def test_finset_roundtrip(self):
        J = fs(-3, 0, 7)
        assert FinSet.from_json(J.to_json()) == J
        assert J.to_json() == [-3, 0, 7]

    def test_pair_roundtrip(self):
        p = AdmissiblePair(fs(0, 2), 4)
        assert AdmissiblePair.from_json(p.to_json()) == p

    def test_pair_modulus_is_not_truncated(self):
        # int() once read n = 2.5 as 2
        with pytest.raises(TypeError, match="^n must be a positive integer, got 2.5$"):
            AdmissiblePair.from_json({"J": [0], "n": 2.5})

    def test_json_true_is_no_integer(self):
        # bool is an int to Python, but no integer check takes one
        with pytest.raises(TypeError, match="^n must be a positive integer, got True$"):
            AdmissiblePair.from_json({"J": [0], "n": True})
        # in any order, and also after an equal integer
        for data in ([0, True], [True, 1], [1, True], [0, False], [False, 0]):
            with pytest.raises(TypeError, match="^FinSet elements must be integers, got (True|False)$"):
                FinSet.from_json(data)
        # a float equal to an element is refused the same way
        with pytest.raises(TypeError, match=r"^FinSet elements must be integers, got 1\.0$"):
            FinSet([1, 1.0])
