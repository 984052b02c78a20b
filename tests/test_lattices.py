import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import add, sub

import pytest
from hypothesis import given, strategies as st

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
    lattice_dset,
    lattice_intersect,
    simple_factor,
    to_dset,
)
from weylgraded.lattices import _combine, _free_line

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

    def test_closed_form_equals_the_functor_composition(self):
        rng, seen = random.Random(33), Counter()
        for _ in range(3000):
            J = FinSet(rng.sample(range(-8, 9), rng.randint(0, 5)))
            s = rng.randint(-10, 10)
            seen.update(
                negative_member=min(J, default=0) < 0,
                member_stored=any(t >= 0 and t + s >= 0 for t in J),
                member_on_A=any(t >= 0 and t + s < 0 for t in J),
                window_up=s > 0 and any(t not in J for t in range(-s, 0)),
                window_down=s < 0 and any(t not in J for t in range(-s)),
            )
            got = iota_lattice(J, s)._lines
            assert got == A.involute(J).shifted(s)._lines, (J, s)
            # _of skips _canonical, so iota_lattice must store no line equal to A's
            assert all(line != _free_line(t) for t, line in got.items()), (J, s)
        assert all(seen[k] for k in ("negative_member", "member_stored", "member_on_A",
                                     "window_up", "window_down")), seen


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
        assert L.scaled({}) == L

    def test_principal_scaling(self):
        L = A.scaled({5: 1})
        assert L.generator_at(0) == Z + 5

    def test_inverse_involution_normalizes(self):
        # z^{-1} iota_0(iota_0 A) = A
        twice = iota_lattice(fs(0)).involute(fs(0))
        assert twice.scaled({0: -1}) == A

    def test_factored_equals_expanded(self):
        rng = random.Random(13)
        lattices = [iota_lattice(J, s) for J in subsets(range(-3, 4), 2) for s in range(-2, 3)]
        for L in rng.sample(lattices, 60):
            for _ in range(4):
                f = dict(_random_factored(rng))
                h = RationalPoly.from_roots(f)
                want = GradedLattice({m: (g * h).root_map() for m, g in L.generators.items()})
                assert L.scaled(f) == want, (L, f)


def _value(line, m):
    """The line's value at degree m, summed over every jump at or below m."""
    v, jumps = line
    return v + sum(d for p, d in jumps if p <= m)


root_maps = st.dictionaries(st.integers(-6, 6), st.sampled_from((-2, -1, 1, 2)), max_size=4)


@st.composite
def lattices(draw):
    """GradedLattice(gens) on a short window, then involuted, shifted and scaled."""
    lo = draw(st.integers(-4, 4))
    gens = draw(st.lists(root_maps, min_size=1, max_size=4))
    L = GradedLattice({lo + i: g for i, g in enumerate(gens)})
    L = L.involute(draw(st.lists(st.integers(-6, 6), max_size=4)))
    return L.shifted(draw(st.integers(-3, 3))).scaled(draw(root_maps))


def _generator_by_values(L, m):
    """The degree-m root map from every line's value at m, zero exponents dropped."""
    exps = dict.fromkeys(range(m, 0), 1)
    exps.update((t, _value(line, m)) for t, line in L._lines.items())
    return {t: e for t, e in exps.items() if e}


def _assert_generators_by_values(L):
    lo, hi = L._bounds()
    for m in range(lo - 2, hi + 3):
        got, want = L.factored_generator_at(m), _generator_by_values(L, m)
        assert got == want and list(got) == list(want), (L._lines, m)


class TestFactoredGeneratorAt:
    @given(lattices())
    def test_equals_the_line_values_in_order(self, L):
        _assert_generators_by_values(L)

    def test_oracle_lattices(self):
        # the oracle's M(j) for j > 0: iota_K A scaled by the (z+k)^-1 over K
        for K in subsets(range(-5, 9), 3):
            _assert_generators_by_values(iota_lattice(K).scaled(dict.fromkeys(K, -1)))


def _random_line(rng, points=range(-4, 5)):
    """A line with up to 5 jumps on a few points, so two lines often share one."""
    ps = sorted(rng.sample(points, rng.randint(0, 5)))
    return (rng.randint(-2, 2), tuple((p, rng.choice((-2, -1, 1, 2))) for p in ps))


def _pointwise(op, a, b, points=range(-6, 7)):
    """The line m -> op(a(m), b(m)), built from its values at every m."""
    values = [op(_value(a, m), _value(b, m)) for m in points]
    jumps = tuple((m, w - v) for m, v, w in zip(points[1:], values, values[1:]) if w != v)
    return (op(a[0], b[0]), jumps)


class TestCombine:
    @pytest.mark.parametrize("op", [add, sub, max, min])
    def test_equals_the_pointwise_definition(self, op):
        rng = random.Random(26)
        shared = cancelled = 0
        for _ in range(3000):
            a, b = _random_line(rng), _random_line(rng)
            got = _combine(op, a, b)
            assert got == _pointwise(op, a, b), (a, b)
            common = {p for p, _ in a[1]} & {p for p, _ in b[1]}
            shared += bool(common)
            cancelled += bool(common - {p for p, _ in got[1]})
        assert shared > 1000 and cancelled > 100

    def test_line_against_itself(self):
        line = (1, tuple((m, 1 if m % 2 else -1) for m in range(1, 41)))
        assert _combine(max, line, line) == line
        assert _combine(sub, line, line) == (0, ())


class TestInvolute:
    def test_on_lines_of_A_equals_the_one_index_step(self):
        # line j of A is not stored, so involute reads it in closed form
        rng = random.Random(27)
        bases = [A] + [iota_lattice(FinSet(rng.sample(range(-8, 9), 3)), 1) for _ in range(20)]
        for L in bases:
            for j in range(-8, 9):
                if j not in L._lines:
                    assert L.involute(fs(j)) == _ref_involute_at(L, j), (L, j)

    def test_set_equals_one_index_steps_in_any_order(self):
        rng = random.Random(14)
        for _ in range(3000):
            lo = rng.randint(-4, 4)
            gens = {
                lo + i: dict(_random_factored(rng, exps=(-2, -1, 1, 2))) for i in range(rng.randint(1, 4))
            }
            L = GradedLattice(gens)
            K = rng.sample(range(-7, 8), rng.randint(0, 6))
            want = L
            for j in K:
                want = _ref_involute_at(want, j)
            assert L.involute(FinSet(K)) == want, (lo, gens, K)

    def test_index_set_must_be_iterable(self):
        with pytest.raises(TypeError):
            A.involute(0)


class TestIsAModule:
    def test_x_closure_violation(self):
        L = GradedLattice({0: {0: 1}, 1: {1: 1}, 2: {}})
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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SimpleLabel.X(1.5),
            lambda: SimpleLabel.Y(Fraction(3, 2)),
            lambda: simple_factor(iota_lattice([0, 2]), 1.5),
        ],
    )
    def test_index_must_be_an_int(self, build):
        with pytest.raises(TypeError):
            build()

    def test_trusted_label_equals_checked(self):
        for kind in ("X", "Y"):
            for n in range(-5, 6):
                fast, checked = SimpleLabel._of(kind, n), getattr(SimpleLabel, kind)(n)
                assert fast == checked and hash(fast) == hash(checked)
                assert vars(fast) == vars(checked) and str(fast) == str(checked)


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
        assert cokernel_support(iota_lattice(fs(0)), A) == ((0, 1),)

    def test_two_point_support(self):
        got = cokernel_support(iota_lattice(fs(0, 3)), A)
        assert got == ((-3, 1), (0, 1))

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
            assert cokernel_support(P, Q) == support

    def test_fractional_lattice(self):
        B = iota_lattice(fs(0)).scaled({3: -1})
        assert hom_generator(B, A) == Z + 3
        assert hom_generator(A, B) == Z / (Z + 3)
        assert cokernel_support(B, A) == ((0, 1),)


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

    @pytest.mark.parametrize(
        "build", [lambda: SimpleLabel.M(0.1), lambda: SimpleLabel("M", param=0.5)]
    )
    def test_weight_parameter_must_be_exact(self, build):
        with pytest.raises(TypeError):
            build()


def _json_of(g):
    """The lattice JSON of one multiplied-out generator g at degree 0."""
    return {"lo": 0, "hi": 0, "gens": {"0": g.to_json()}}


class TestFactoredBoundary:
    """The JSON form is the one place a lattice takes multiplied-out generators."""

    @pytest.mark.parametrize("g", [Z * Z + 1, Z + Fraction(1, 2), (Z * Z + 1) / Z])
    def test_generator_must_split_over_integer_roots(self, g):
        with pytest.raises(ValueError, match="does not split over integer roots"):
            GradedLattice.from_json(_json_of(g))

    def test_leading_constant_dropped(self):
        assert GradedLattice.from_json(_json_of(2 * Z)) == GradedLattice({0: {0: 1}})

    @pytest.mark.parametrize(
        "g, factored",
        [
            (RationalPoly((4, 2)), {2: 1}),  # 2z + 4
            (RationalPoly((4, 2), (3,)), {2: 1}),  # (2z + 4) / 3
            (RationalPoly((4, 2), (0, 3)), {0: -1, 2: 1}),  # (2z + 4) / 3z
        ],
    )
    def test_non_monic_generator_factors_exactly(self, g, factored):
        assert GradedLattice.from_json(_json_of(g)) == GradedLattice({0: factored})

    def test_generators_and_json_round_trip(self):
        for J in subsets(range(-3, 4), 3):
            for s in range(-2, 3):
                L = iota_lattice(J, s)
                assert GradedLattice(_root_maps(L)) == L
                assert GradedLattice.from_json(L.to_json()) == L


class TestCanonicalWindow:
    def test_equality_insensitive_to_presentation(self):
        wide = GradedLattice({-2: {-1: 1, -2: 1}, -1: {-1: 1}, 0: {}, 1: {}, 2: {}})
        assert wide == A

    @pytest.mark.parametrize("gens", [{}, {0: {}, 2: {}}])
    def test_window_must_be_contiguous_and_non_empty(self, gens):
        with pytest.raises(ValueError):
            GradedLattice(gens)

    def test_json_roundtrip(self):
        L = iota_lattice(fs(0, 2), -1)
        assert GradedLattice.from_json(L.to_json()) == L


# --- the one-index involution step, kept as the reference -------------------


def _ref_involute_at(L, j):
    """The involution at the single index j, as the old one-index step built it."""
    step = (0, ((j + 1, 1),)) if L._drops_at(j) else (1, ((j + 1, -1),))
    return L._with({j: _combine(add, L._line(j), step)})


# --- the windowed representation, kept as the reference ----------------------


def _mul(a, b, sign=1):
    exps = dict(a)
    for j, e in b:
        exps[j] = exps.get(j, 0) + sign * e
    return tuple(sorted(p for p in exps.items() if p[1]))


def _lcm(a, b):
    ea, eb = dict(a), dict(b)
    return tuple(sorted(
        (j, e) for j in ea.keys() | eb.keys() if (e := max(ea.get(j, 0), eb.get(j, 0)))
    ))


def _integral(a):
    return all(e > 0 for _, e in a)


def _expand(a):
    return RationalPoly.from_roots(dict(a))


def _exponent(a, j):
    return next((e for r, e in a if r == j), 0)


class _WindowedLattice:
    """One factored generator per degree of a canonical window [lo, hi]: the
    representation GradedLattice had before it stored root lines.  Each
    generator enters as a root map, a dict or its (root, exponent) pairs."""

    def __init__(self, lo, gens):
        norm = [_sorted_pairs(g) for g in gens]
        hi = lo + len(norm) - 1
        while hi > lo and norm[-1] == norm[-2]:
            norm.pop()
            hi -= 1
        while lo < hi and norm[0] == _mul(norm[1], ((lo, 1),)):
            norm.pop(0)
            lo += 1
        self.lo, self.hi, self.gens = lo, hi, tuple(norm)

    def at(self, m):
        if m >= self.hi:
            return self.gens[-1]
        if m >= self.lo:
            return self.gens[m - self.lo]
        return _mul(self.gens[0], tuple((t, 1) for t in range(m, self.lo)))

    def window(self):
        return self.lo, self.hi, self.gens

    def drops_at(self, j):
        return _exponent(self.at(j), j) != _exponent(self.at(j + 1), j)

    def involute(self, j):
        lo, hi = min(self.lo, j), max(self.hi, j + 1)
        gens = [self.at(m) for m in range(lo, hi + 1)]
        drops = self.drops_at(j)
        return _WindowedLattice(lo, [
            _mul(g, ((j, 1),)) if (lo + i >= j + 1) == drops else g for i, g in enumerate(gens)
        ])

    def shifted(self, s):
        return _WindowedLattice(self.lo + s, [tuple((j + s, e) for j, e in g) for g in self.gens])

    def scaled(self, f):
        return _WindowedLattice(self.lo, [_mul(g, f.items()) for g in self.gens])

    def __eq__(self, other):
        return self.window() == other.window()

    def __repr__(self):
        inner = ", ".join(f"{self.lo + i}: {_expand(g)}" for i, g in enumerate(self.gens))
        return f"GradedLattice[{self.lo}..{self.hi}]({inner})"

    def to_json(self):
        gens = {str(self.lo + i): _expand(g).to_json() for i, g in enumerate(self.gens)}
        return {"lo": self.lo, "hi": self.hi, "gens": gens}


def _sorted_pairs(exps):
    """A root map, a dict or its pairs, as its sorted pairs with zero exponents dropped."""
    return tuple(sorted((t, e) for t, e in dict(exps).items() if e))


def _root_maps(L):
    """The root maps of L on its shortest window, the form GradedLattice takes."""
    return {m: L.factored_generator_at(m) for m in range(L.lo, L.hi + 1)}


def _window(L):
    return L.lo, L.hi, tuple(_sorted_pairs(L.factored_generator_at(m)) for m in range(L.lo, L.hi + 1))


def _ref_iota(J, s):
    L = _WindowedLattice(0, [()])
    for j in sorted(J):
        L = L.involute(j)
    return L.shifted(s)


def _ref_intersect(L1, L2):
    lo, hi = min(L1.lo, L2.lo), max(L1.hi, L2.hi)
    return _WindowedLattice(lo, [_lcm(L1.at(m), L2.at(m)) for m in range(lo, hi + 1)])


def _ref_is_A_module(L):
    for m in range(L.lo - 1, L.hi + 1):
        g_m, g_next = L.at(m), L.at(m + 1)
        if not _integral(_mul(g_m, g_next, -1)):
            return False
        if not _integral(_mul(_mul(g_next, ((m, 1),)), g_m, -1)):
            return False
    return True


def _ref_dset(L):
    lo, hi = min(L.lo - 1, -1), max(L.hi + 1, 1)
    return DSet(FinSet(j for j in range(lo, hi + 1) if (j >= 0) == L.drops_at(j)))


def _ref_hom(P, Q):
    lo, hi = min(P.lo, Q.lo), max(P.hi, Q.hi)
    return reduce(_lcm, (_mul(Q.at(m), P.at(m), -1) for m in range(lo - 1, hi + 2)))


def _ref_cokernel_support(P, Q):
    h = _ref_hom(P, Q)
    lo, hi = min(P.lo, Q.lo), max(P.hi, Q.hi)

    def annihilator(m):
        return _mul(_mul(h, P.at(m)), Q.at(m), -1)

    candidates = range(lo - 2, hi + 2)
    support = {}
    for j in candidates:
        count = _exponent(annihilator(j), j) + _exponent(annihilator(j + 1), j)
        if count:
            support[-j] = count
    for m in range(lo - 1, hi + 2):
        if any(j not in candidates for j, _ in annihilator(m)):
            raise ValueError(
                "cokernel is not integrally supported on the expected window; "
                "inputs are outside the involution family"
            )
    return tuple(sorted(support.items()))


def _reject(L, j, side):
    """The candidate reject of X(j) (side 'x') or Y(j) (side 'y'), as criterion 7 builds
    it, as root maps {lo + i: gens[i]}."""
    lo, hi = min(L.lo, j), max(L.hi, j + 1)
    keep = (lambda m: m > j) if side == "x" else (lambda m: m <= j)
    gens = [L.factored_generator_at(m) for m in range(lo, hi + 1)]
    return [g if keep(lo + i) else {**g, j: g.get(j, 0) + 1} for i, g in enumerate(gens)], lo


def _random_factored(rng, roots=range(-4, 5), exps=(-1, 1, 1, 2)):
    return tuple(sorted((t, rng.choice(exps)) for t in rng.sample(list(roots), rng.randint(0, 3))))


def _lattice_family():
    """(reference, GradedLattice) pairs built the same way in both representations."""
    rng = random.Random(11)
    out = []
    for J in subsets(range(-3, 4), 3):
        for s in range(-2, 3):
            out.append((_ref_iota(J, s), iota_lattice(J, s)))
    for ref, L in rng.sample(out, 80):
        for j in rng.sample(range(-5, 6), 3):
            for side in "xy":
                gens, lo = _reject(L, j, side)
                out.append((_WindowedLattice(lo, gens), GradedLattice(dict(enumerate(gens, lo)))))
    for ref, L in rng.sample(out[:320], 200):
        f = dict(_random_factored(rng))
        out.append((ref.scaled(f), L.scaled(f)))
    for _ in range(400):
        lo = rng.randint(-4, 4)
        gens = [dict(_random_factored(rng)) for _ in range(rng.randint(1, 5))]
        out.append((_WindowedLattice(lo, gens), GradedLattice(dict(enumerate(gens, lo)))))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.fixture(scope="module")
def family():
    return _lattice_family()


class TestMatchesWindowedReference:
    def test_each_lattice(self, family):
        mismatches = []
        for ref, L in family:
            checks = [
                (repr(ref), repr(L)),
                (ref.to_json(), L.to_json()),
                ((ref.lo, ref.hi), (L.lo, L.hi)),
                (_ref_is_A_module(ref), is_A_module(L)),
                (_ref_dset(ref), lattice_dset(L)),
                (
                    [SimpleLabel.Y(j) if ref.drops_at(j) else SimpleLabel.X(j) for j in range(-8, 9)],
                    [simple_factor(L, j) for j in range(-8, 9)],
                ),
                # generator_at expands these factored generators on both sides
                (
                    [ref.at(m) for m in range(-8, 9)],
                    [_sorted_pairs(L.factored_generator_at(m)) for m in range(-8, 9)],
                ),
                # a lattice enters as the root maps it leaves as, and as its JSON
                (L, GradedLattice(_root_maps(L))),
                (L, GradedLattice.from_json(L.to_json())),
            ]
            mismatches += [(ref, i) for i, (want, got) in enumerate(checks) if want != got]
        assert not all(is_A_module(L) for _, L in family)
        assert mismatches == []

    def test_sampled_pairs(self, family):
        rng = random.Random(12)
        raised = 0
        mismatches = []
        for _ in range(2000):
            (ref_p, P), (ref_q, Q) = rng.sample(family, 2)
            want = _outcome(_ref_cokernel_support, ref_p, ref_q)
            raised += want[:1] == ("ValueError",)
            checks = [
                (_expand(_ref_hom(ref_p, ref_q)), hom_generator(P, Q)),
                (want, _outcome(cokernel_support, P, Q)),
                (_ref_intersect(ref_p, ref_q).window(), _window(lattice_intersect(P, Q))),
                (ref_p == ref_q, P == Q),
            ]
            mismatches += [(ref_p, ref_q, i) for i, (w, g) in enumerate(checks) if w != g]
        assert raised > 0
        assert mismatches == []

    def test_cokernel_points_are_ints(self, family):
        # every lattice of the family, as P and as Q, against its neighbour
        points = []
        for (_, P), (_, Q) in zip(family, family[1:]):
            support = _outcome(cokernel_support, P, Q)
            if support[:1] != ("ValueError",):
                points += [pt for pt, _ in support]
        assert points
        assert all(type(pt) is int for pt in points)
