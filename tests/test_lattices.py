from fractions import Fraction
from itertools import combinations

import pytest

from weylgraded.zfin import FinSet
from weylgraded.skew import RationalPoly
from weylgraded.lattices import (
    DSet,
    GradedLattice,
    SimpleLabel,
    cokernel_support,
    ext_dim_simples,
    hom_generator,
    iota_lattice,
    is_A_module,
    lattice_intersect,
    simple_factor,
    to_dset,
)
from weylgraded.lattices import _factor

Z = RationalPoly.z()
ONE = RationalPoly.one()
A = GradedLattice.free()


def fs(*xs):
    return FinSet(xs)


def subsets(universe, max_size=None):
    items = sorted(universe)
    sizes = range(len(items) + 1) if max_size is None else range(max_size + 1)
    return [FinSet(c) for k in sizes for c in combinations(items, k)]


class TestFreeLattice:
    def test_generators(self):
        assert A.generator_at(0) == ONE
        assert A.generator_at(5) == ONE
        assert A.generator_at(-1) == Z - 1
        assert A.generator_at(-3) == RationalPoly.falling(3)

    def test_valid(self):
        assert is_A_module(A)


class TestIotaLattice:
    def test_index_zero_is_xA(self):
        L = iota_lattice(fs(0))
        assert L.generator_at(0) == Z
        assert L.generator_at(1) == ONE
        assert L.generator_at(-1) == Z * (Z - 1)

    def test_index_one(self):
        # (z+1)A + x^2 A
        L = iota_lattice(fs(1))
        for m in (0, 1):
            assert L.generator_at(m) == Z + 1
        assert L.generator_at(2) == ONE
        assert L.generator_at(-1) == (Z + 1) * (Z - 1)

    def test_negative_index(self):
        # yA: generator (z-1) at every degree >= -1
        L = iota_lattice(fs(-1))
        for m in (-1, 0, 1, 4):
            assert L.generator_at(m) == Z - 1
        assert L.generator_at(-2) == (Z - 1) * (Z - 2)

    def test_deep_negative_index(self):
        # (z+i)A + y^{-i}A for i <= -2
        L = iota_lattice(fs(-2))
        assert L.generator_at(0) == Z - 2
        assert L.generator_at(-1) == (Z - 1) * (Z - 2)
        assert L.generator_at(-2) == (Z - 1) * (Z - 2)
        assert L.generator_at(-3) == RationalPoly.falling(3)

    def test_shifted_free_module(self):
        # A<1> = xA as a sublattice of D
        assert iota_lattice(FinSet(), 1) == iota_lattice(fs(0))


class TestIntersect:
    def test_matches_iota_of_union(self):
        got = lattice_intersect(iota_lattice(fs(0)), iota_lattice(fs(1)))
        assert got == iota_lattice(fs(0, 1))

    def test_idempotent(self):
        L = iota_lattice(fs(0, 2))
        assert lattice_intersect(L, L) == L

    def test_containment(self):
        assert lattice_intersect(A, iota_lattice(fs(0))) == iota_lattice(fs(0))


class TestScale:
    def test_scale_by_one(self):
        L = iota_lattice(fs(1))
        assert L.scaled(ONE) == L

    def test_principal_scaling(self):
        L = A.scaled(Z + 5)
        assert L.generator_at(0) == Z + 5

    def test_inverse_involution_normalizes(self):
        # z^{-1} iota_0(iota_0 A) = A
        twice = iota_lattice(fs(0)).involute(0)
        assert twice.scaled(ONE / Z) == A

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            A.scaled(RationalPoly.zero())


class TestIsAModule:
    def test_x_closure_violation(self):
        L = GradedLattice.from_generators({0: Z, 1: Z + 1, 2: ONE})
        assert not is_A_module(L)

    def test_free_is_valid(self):
        assert is_A_module(A)


class TestSimpleFactor:
    def test_free_pattern(self):
        for j in range(-5, 6):
            expected = SimpleLabel.X(j) if j >= 0 else SimpleLabel.Y(j)
            assert simple_factor(A, j) == expected

    def test_xA_at_zero(self):
        assert simple_factor(iota_lattice(fs(0)), 0) == SimpleLabel.Y(0)

    def test_involution_flips(self):
        assert simple_factor(iota_lattice(fs(2)), 2) == SimpleLabel.Y(2)


class TestDSet:
    def test_free(self):
        assert to_dset(FinSet()) == DSet(FinSet())

    def test_flips_inside_ray(self):
        assert to_dset(fs(0, 4)) == DSet(fs(0, 4))

    def test_positive_shift(self):
        assert to_dset(FinSet(), 3) == DSet(fs(0, 1, 2))

    def test_negative_shift(self):
        assert to_dset(FinSet(), -2) == DSet(fs(-2, -1))

    def test_membership(self):
        E = to_dset(fs(0, 4))
        assert 1 in E and 0 not in E and 4 not in E and -3 not in E


class TestHomGenerator:
    def test_endomorphisms_of_free(self):
        assert hom_generator(A, A) == ONE

    def test_into_submodule(self):
        assert hom_generator(A, iota_lattice(fs(0))) == Z

    def test_inclusion_already_maximal(self):
        assert hom_generator(iota_lattice(fs(0)), A) == ONE

    def test_multiplier_actually_embeds(self):
        for J in subsets(range(0, 3)):
            P, Q = iota_lattice(J), iota_lattice(fs(1))
            h = hom_generator(P, Q)
            for m in range(-4, 5):
                ratio = h * P.generator_at(m) / Q.generator_at(m)
                assert ratio.is_polynomial()


class TestCokernelSupport:
    def test_free_quotient_xA(self):
        assert cokernel_support(iota_lattice(fs(0)), A) == ((Fraction(0), 1),)

    def test_two_point_support(self):
        got = cokernel_support(iota_lattice(fs(0, 3)), A)
        assert got == ((Fraction(-3), 1), (Fraction(0), 1))

    def test_no_quotient(self):
        assert cokernel_support(A, A) == ()

    def test_fixed_table(self):
        # (J, s, K, t): P = iota_J(A)<s>, Q = iota_K(A)<t>
        table = [
            ((1, 2), 0, (-1,), 0, Z - 1, ((-2, 1), (-1, 1), (1, 1))),
            ((0,), -1, (2,), 1, Z * (Z + 3), ((-3, 1), (0, 1))),
            ((-2, 1), 1, (0,), -2, ONE / (Z - 1), ((-2, 1), (0, 1))),
            ((0, 1), 0, (0, 1), 2, (Z + 2) * (Z + 3), ((-3, 1), (-2, 1))),
        ]
        for J, s, K, t, hom, support in table:
            P, Q = iota_lattice(fs(*J), s), iota_lattice(fs(*K), t)
            assert hom_generator(P, Q) == hom
            assert cokernel_support(P, Q) == tuple((Fraction(x), c) for x, c in support)

    def test_fractional_lattice(self):
        B = iota_lattice(fs(0)).scaled(ONE / (Z + 3))
        assert hom_generator(B, A) == Z + 3
        assert hom_generator(A, B) == Z / (Z + 3)
        assert cokernel_support(B, A) == ((Fraction(0), 1),)


class TestExtTable:
    def test_cross_pair(self):
        assert ext_dim_simples(SimpleLabel.X(0), SimpleLabel.Y(0)) == 1
        assert ext_dim_simples(SimpleLabel.Y(0), SimpleLabel.X(0)) == 1

    def test_same_kind_vanishes(self):
        assert ext_dim_simples(SimpleLabel.X(0), SimpleLabel.X(0)) == 0
        assert ext_dim_simples(SimpleLabel.Y(2), SimpleLabel.Y(2)) == 0

    def test_mismatched_support_vanishes(self):
        assert ext_dim_simples(SimpleLabel.X(0), SimpleLabel.Y(1)) == 0

    def test_weight_module_self_extension(self):
        lam = Fraction(1, 2)
        assert ext_dim_simples(SimpleLabel.M(lam), SimpleLabel.M(lam)) == 1
        assert ext_dim_simples(SimpleLabel.M(lam), SimpleLabel.M(Fraction(3, 2))) == 0

    def test_mixed_pairs_vanish(self):
        m = SimpleLabel.M(Fraction(1, 2))
        assert ext_dim_simples(m, SimpleLabel.X(0)) == 0
        assert ext_dim_simples(SimpleLabel.Y(-1), m) == 0

    def test_integral_weight_label_rejected(self):
        with pytest.raises(ValueError):
            SimpleLabel.M(2)


class TestFactoredBoundary:
    @pytest.mark.parametrize("g", [Z * Z + 1, Z + Fraction(1, 2), (Z * Z + 1) / Z])
    def test_generator_must_split_over_integer_roots(self, g):
        with pytest.raises(ValueError):
            GradedLattice(0, [g])

    def test_scale_must_split_over_integer_roots(self):
        with pytest.raises(ValueError):
            A.scaled(Z * Z + 1)

    def test_leading_constant_dropped(self):
        assert GradedLattice(0, [2 * Z]) == GradedLattice(0, [Z])

    @pytest.mark.parametrize(
        "g, factored",
        [
            (RationalPoly((4, 2)), ((2, 1),)),  # 2z + 4
            (RationalPoly((4, 2), (3,)), ((2, 1),)),  # (2z + 4) / 3
            (RationalPoly((4, 2), (0, 3)), ((0, -1), (2, 1))),  # (2z + 4) / 3z
        ],
    )
    def test_non_monic_generator_factors_exactly(self, g, factored):
        assert _factor(g) == factored
        assert GradedLattice(0, [g]) == GradedLattice(0, [factored])

    def test_generators_and_json_round_trip(self):
        for J in subsets(range(-3, 4), 3):
            for s in range(-2, 3):
                L = iota_lattice(J, s)
                gens = [L.generator_at(m) for m in range(L.lo, L.hi + 1)]
                assert GradedLattice(L.lo, gens) == L
                assert GradedLattice.from_json(L.to_json()) == L


class TestCanonicalWindow:
    def test_equality_insensitive_to_presentation(self):
        wide = GradedLattice.from_generators({-2: RationalPoly.falling(2), -1: Z - 1, 0: ONE, 1: ONE, 2: ONE})
        assert wide == A

    def test_json_roundtrip(self):
        L = iota_lattice(fs(0, 2), -1)
        assert GradedLattice.from_json(L.to_json()) == L
