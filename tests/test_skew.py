import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import comb, factorial, log10, prod
from operator import add, mul, sub, truediv
from time import perf_counter

import pytest
from hypothesis import assume, given, strategies as st

from weylgraded import skew
from weylgraded.skew import (
    RationalPoly,
    SkewElement,
    _coeffs,
    _div,
    _padd,
    _pdivmod,
    _pgcd,
    _pmul,
    _pneg,
    weyl_membership,
    x,
    y,
)

Z = RationalPoly.z()
ONE = RationalPoly.one()


def poly(*coeffs):
    return RationalPoly(coeffs)


small_polys = st.lists(st.integers(-10, 10), min_size=1, max_size=4).map(RationalPoly)


def skew_elements(rng_depth=3):
    return st.dictionaries(
        st.integers(-3, 3), small_polys, min_size=1, max_size=rng_depth
    ).map(SkewElement)


class TestRationalPoly:
    def test_reduction_and_monic_denominator(self):
        r = RationalPoly((0, 2), (0, 0, 4))  # 2z / 4z^2 = (1/2)/z... reduced
        assert r == RationalPoly((Fraction(1, 2),), (0, 1))
        assert r.den == (Fraction(0), Fraction(1))

    def test_arithmetic(self):
        assert Z + 1 == poly(1, 1)
        assert (Z + 1) * (Z - 1) == poly(-1, 0, 1)
        assert (Z * Z - 1) / (Z - 1) == Z + 1

    def test_shift(self):
        assert Z.shift(1) == Z + 1
        assert (Z * Z).shift(-2) == (Z - 2) * (Z - 2)
        f = poly(3, -1, 2)
        assert f.shift(0) == f

    def test_json_roundtrip(self):
        r = RationalPoly((1, Fraction(-3, 2)), (0, 1))
        assert RationalPoly.from_json(r.to_json()) == r

    def test_str(self):
        assert str(poly(2, 0, 1)) == "z^2 + 2"
        assert str(poly(0, -1)) == "-z"
        assert str(RationalPoly.zero()) == "0"

    def test_unknown_dividend_raises_type_error(self):
        with pytest.raises(TypeError):
            object() / Z

    def test_constant_hashes_as_its_value(self):
        assert RationalPoly.constant(2) == 2
        assert len({RationalPoly.constant(2), 2}) == 1
        assert len({RationalPoly.constant(Fraction(1, 2)), Fraction(1, 2)}) == 1
        assert len({RationalPoly.zero(), 0}) == 1


coefficients = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=4)
)
rational_polys = st.builds(
    RationalPoly,
    st.lists(coefficients, max_size=3),
    st.lists(coefficients, min_size=1, max_size=3).filter(any),
)
STEPS = {
    "+": lambda f, g, m: f + g,
    "-": lambda f, g, m: f - g,
    "*": lambda f, g, m: f * g,
    "/": lambda f, g, m: f if g.is_zero() else f / g,
    "shift": lambda f, g, m: f.shift(m),
    "monic": lambda f, g, m: f.monic(),
}


def exact_form(c):
    """An int, or a Fraction that is not integral; never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


class TestCoefficientForm:
    @given(
        rational_polys,
        st.lists(
            st.tuples(st.sampled_from(sorted(STEPS)), rational_polys, st.integers(-3, 3)),
            max_size=4,
        ),
    )
    def test_ints_or_proper_fractions(self, f, steps):
        for name, g, m in steps:
            f = STEPS[name](f, g, m)
            assert all(exact_form(c) for c in f.num + f.den), (name, f.num, f.den)

    def test_integral_fraction_is_stored_as_int(self):
        a, b = RationalPoly((Fraction(2),)), RationalPoly((2,))
        assert a == b
        assert hash(a) == hash(b)
        assert type(a.num[0]) is int

    def test_monic_divides_exactly(self):
        num = RationalPoly((1, 2)).monic().num
        assert num == (Fraction(1, 2), 1)
        assert [type(c) for c in num] == [Fraction, int]

    def test_rising_and_falling_are_linear_products(self):
        rising, falling = ONE, ONE
        for d in range(31):
            assert RationalPoly.rising(d) == rising
            assert RationalPoly.falling(d) == falling
            assert all(type(c) is int for c in RationalPoly.rising(d).num)
            rising = rising * RationalPoly.linear(d)
            falling = falling * RationalPoly.linear(-(d + 1))


def reference_build(num, den):
    """The always-reduce construction: a full gcd, then a monic denominator.

    shift builds its result as given, since a Taylor shift keeps num and den
    coprime and den monic; on the binomial expansion of f, this must give
    f.shift(m)'s num and den.
    """
    n, d = _coeffs(num), _coeffs(den)
    if not n or d == (1,):
        return n, (1,)
    g = _pgcd(n, d)
    if len(g) > 1:
        n, d = _pdivmod(n, g)[0], _pdivmod(d, g)[0]
    lc = d[-1]
    return tuple(_div(c, lc) for c in n), tuple(_div(c, lc) for c in d)


def binomial_shift(a, m):
    """Coefficients of f(z + m): sum_k a_k sum_i C(k, i) m^(k-i) z^i."""
    out = [0] * len(a)
    for k, c in enumerate(a):
        for i in range(k + 1):
            out[i] += c * comb(k, i) * m ** (k - i)
    return out


def horner(a, x):
    """a(x) for the coefficients a, lowest first, over Fraction."""
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def value_at(f, x):
    return horner(f.num, x) / horner(f.den, x)


def _trimmed(a):
    a = [Fraction(c) for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def fraction_gcd(a, b):
    """A gcd of the polynomials a and b, by Euclid's remainder sequence over Fraction."""
    a, b = _trimmed(a), _trimmed(b)
    while b:
        r = list(a)
        while len(r) >= len(b):
            q, k = r[-1] / b[-1], len(r) - len(b)
            for i, c in enumerate(b):
                r[k + i] -= q * c
            r = _trimmed(r)
        a, b = b, r
    return a


def _degree(f):
    return max(len(f.num), len(f.den)) - 1


VALUES = {"+": add, "*": mul, "/": truediv}

roots = st.lists(st.integers(-3, 3), max_size=3)
scalars = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=3)
).filter(bool)


@st.composite
def factored_fns(draw):
    """c * prod (z+a) / prod (z+b): small integer roots, so factors often cancel."""
    num = _pmul((draw(scalars),), RationalPoly.linear_product(draw(roots)).num)
    return RationalPoly(num, RationalPoly.linear_product(draw(roots)).num)


coeff_lists = st.lists(coefficients, max_size=3)


@st.composite
def operand_pairs(draw):
    """(f, g) where g is arbitrary, a polynomial, over f's denominator, or zero."""
    fns = st.one_of(factored_fns(), rational_polys)
    f = draw(fns)
    kind = draw(st.sampled_from(["any", "polynomial", "same denominator", "zero"]))
    if kind == "any":
        g = draw(fns)
    elif kind == "polynomial":
        g = RationalPoly(draw(fns).num)
    elif kind == "same denominator":
        # f = n1/d and g = (t - n1)/d, so f + g = t/d cancels the factors of d in t
        bs = draw(roots)
        d = RationalPoly.linear_product(bs).num
        t = _pmul(RationalPoly.linear_product(bs[: draw(st.integers(0, 3))]).num, draw(coeff_lists))
        n1 = draw(coeff_lists)
        f, g = RationalPoly(n1, d), RationalPoly(_padd(t, _pneg(_coeffs(n1))), d)
    else:
        g = RationalPoly.zero()
    return (g, f) if draw(st.booleans()) else (f, g)


def _folded(roots):
    """prod (z + t) over roots as a fold of _pmul, the reference for _linear_coeffs."""
    return reduce(_pmul, [(t, 1) for t in roots], (1,))


class TestFromRoots:
    @pytest.mark.parametrize("signs", ["positive", "negative", "mixed"])
    def test_equals_a_fold_of_pmul(self, signs):
        rng, seen = random.Random(signs), Counter()
        sign = {"positive": [1], "negative": [-1], "mixed": [1, -1]}[signs]
        for _ in range(300):
            roots = rng.choices(range(-12, 13), k=rng.randint(0, 40))
            counts = Counter(roots)
            seen.update(zero=0 in counts, negative=min(counts, default=0) < 0,
                        repeated=len(counts) < len(roots))
            exps = {t: rng.choice(sign) * e for t, e in counts.items()}
            num = [t for t, e in exps.items() for _ in range(e)]
            den = [t for t, e in exps.items() for _ in range(-e)]
            got = RationalPoly.from_roots(exps)
            # its multiplied-out value is the fold, with nothing left to reduce
            assert (got.num, got.den) == (_folded(num), _folded(den)), exps
            assert RationalPoly(got.num, got.den) == RationalPoly(_folded(num), _folded(den))
            assert RationalPoly.linear_product(roots).num == _folded(roots)
        assert seen["zero"] and seen["negative"] and seen["repeated"], seen
        assert RationalPoly.from_roots({}) == ONE

    def test_equality_and_hash_agree_with_the_coefficients(self):
        rng, seen = random.Random(35), Counter()
        exps = range(-3, 4)

        def draw():
            return {t: rng.choice(exps) for t in rng.sample(range(-12, 13), rng.randint(0, 6))}

        for _ in range(2000):
            f = draw()
            kind = rng.choice(["same value", "one exponent moved", "independent"])
            if kind == "same value":
                # the same product, its items reordered and zero exponents dropped or added
                g = {t: e for t, e in reversed(f.items()) if e or rng.random() < 0.5}
                g[rng.choice([t for t in range(-12, 13) if t not in f])] = 0
            elif kind == "one exponent moved" and f:
                t = rng.choice(list(f))
                g = {**f, t: f[t] + rng.choice([-1, 1])}
            else:
                g = draw()
            a, b = RationalPoly.from_roots(f), RationalPoly.from_roots(g)
            # == of two root-built values reads their maps, before any coefficient is read
            same = a == b
            assert same == ((a.num, a.den) == (b.num, b.den)), (f, g)
            coefficients = RationalPoly(b.num, b.den)
            fresh = RationalPoly.from_roots(f)
            assert (fresh == coefficients) == same and (coefficients == fresh) == same
            if same:
                assert hash(a) == hash(b) == hash(coefficients)
            seen.update(equal=same, unequal=not same, zero_exponent=0 in f.values(),
                        fraction=any(e < 0 for e in f.values()))
        assert all(seen[k] > 100 for k in ("equal", "unequal", "zero_exponent", "fraction")), seen
        assert RationalPoly.from_roots({}) == RationalPoly.one() == 1
        assert RationalPoly.from_roots({3: 0}) == 1 and hash(RationalPoly.from_roots({})) == hash(1)

    def test_multiplies_out_on_the_first_read_of_coefficients(self, monkeypatch):
        calls = []
        linear = skew._linear_coeffs
        monkeypatch.setattr(skew, "_linear_coeffs", lambda js: calls.append(1) or linear(js))
        exps = {-2: 2, 0: -1, 5: 0, 7: 1}
        a, b = RationalPoly.from_roots(exps), RationalPoly.from_roots({7: 1, 0: -1, -2: 2})
        assert calls == []
        assert a == b and not a == RationalPoly.from_roots({7: 1, 0: -1}) and a != ONE / Z
        # only the last comparison reads coefficients, a's two parts, since 1/z holds no map
        assert len(calls) == 2
        calls.clear()
        assert a.num == _folded([-2, -2, 7]) and b.den == (0, 1)
        assert len(calls) == 2  # b's num and den; a's were read above
        calls.clear()
        assert (a.num, a.den, str(a), hash(a)) == (b.num, b.den, str(b), hash(b))
        assert calls == []
        # a polynomial has one part to multiply out, and root_map reads the coefficients
        assert RationalPoly.from_roots({1: 1, 2: 1}).root_map() == {1: 1, 2: 1}
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(ValueError, match="MAX_PRINTED_DIGITS"):
            RationalPoly.from_roots({10**10: 500})
        assert calls == []

    @pytest.mark.parametrize("sign", [1, -1])
    def test_refuses_maps_past_the_printed_digits(self, sign, monkeypatch):
        monkeypatch.setattr("weylgraded.skew.MAX_PRINTED_DIGITS", 300)
        # prod (z+t) over 1 <= t <= k has at most sum log10(1+t) digits
        bounds = [0.0]
        while bounds[-1] <= 300:
            bounds.append(bounds[-1] + log10(1 + len(bounds)))
        last = len(bounds) - 2
        h = RationalPoly.linear_product(range(1, last + 1))
        assert 250 < max(len(str(abs(c))) for c in h.num) <= 300
        # sign -1 puts every factor (z - t) in the denominator
        expected = h if sign == 1 else ONE / RationalPoly.falling(last)
        assert RationalPoly.from_roots({sign * t: sign for t in range(1, last + 1)}) == expected
        with pytest.raises(
            ValueError,
            match=f"a product of {last + 1} linear factors .* over the limit MAX_PRINTED_DIGITS = 300",
        ):
            RationalPoly.from_roots({sign * t: sign for t in range(1, last + 2)})

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_large_root_is_weighed_root_by_root(self, sign, monkeypatch):
        monkeypatch.setattr("weylgraded.skew.MAX_PRINTED_DIGITS", 300)
        # (z + 10^100 - 1) weighs 100 digits and 1 <= t <= k weigh sum log10(1+t), so the
        # cheap bound (k+1) * 100 passes 300 on both sides of the limit
        big = 10**100 - 1
        k = 1
        while 100 + sum(log10(1 + t) for t in range(1, k + 2)) <= 300:
            k += 1
        roots = [big, *range(1, k + 1)]
        under = {sign * t: sign for t in roots}
        over = {**under, sign * (k + 1): sign}
        product = _folded([sign * t for t in roots])
        got = RationalPoly.from_roots(under)
        assert (got.num, got.den) == ((product, (1,)) if sign == 1 else ((1,), product))
        digits = sum(log10(1 + abs(t)) for t in over)
        with pytest.raises(
            ValueError,
            match=f"a product of {k + 2} linear factors could have coefficients of up to "
            f"{digits:.0f} digits, over the limit MAX_PRINTED_DIGITS = 300",
        ):
            RationalPoly.from_roots(over)

    def test_refuses_before_it_multiplies(self):
        start = perf_counter()
        with pytest.raises(ValueError, match="a product of 1000000 linear factors"):
            RationalPoly.from_roots({1: 500000, -2: -500000})
        assert perf_counter() - start < 0.5

    def test_arithmetic_is_unbounded(self):
        # the constant term of (z+10^6) ... (z+10^6+719) has 4321 digits
        roots = range(10**6, 10**6 + 720)
        constant = RationalPoly.linear_product(roots).num[0]
        assert constant == prod(roots) and 10**4320 <= constant < 10**4321
        # y^-1600 has the coefficient 1 / (z (z+1) ... (z+1599)), whose z coefficient 1599! has 4430 digits
        inverse = SkewElement.y_power(-1600).coefficient(1600)
        assert inverse.num == (1,) and inverse.den[1] == factorial(1599)


class TestRootMap:
    @pytest.mark.parametrize(
        "f", [Z * Z + 1, Z + Fraction(1, 2), (Z * Z + 1) / Z, RationalPoly.zero()], ids=str
    )
    def test_refuses_what_does_not_split_over_integer_roots(self, f):
        with pytest.raises(ValueError):
            f.root_map()

    def test_leading_constant_dropped(self):
        assert (2 * Z).root_map() == {0: 1}
        assert RationalPoly.constant(Fraction(-3, 2)).root_map() == {}

    @pytest.mark.parametrize(
        "f, roots",
        [
            (RationalPoly((4, 2)), {2: 1}),  # 2z + 4
            (RationalPoly((4, 2), (3,)), {2: 1}),  # (2z + 4) / 3
            (RationalPoly((4, 2), (0, 3)), {0: -1, 2: 1}),  # (2z + 4) / 3z
        ],
    )
    def test_non_monic_value_factors_exactly(self, f, roots):
        assert f.root_map() == roots

    def test_inverts_from_roots(self):
        rng, seen = random.Random(34), Counter()
        exps = [e for e in range(-3, 4) if e]
        for _ in range(2000):
            f = {t: rng.choice(exps) for t in rng.sample(range(-50, 51), rng.randint(0, 6))}
            seen.update(numerator=any(e > 0 for e in f.values()),
                        denominator=any(e < 0 for e in f.values()),
                        repeated=any(abs(e) > 1 for e in f.values()))
            assert RationalPoly.from_roots(f).root_map() == f, f
        assert seen["numerator"] and seen["denominator"] and seen["repeated"], seen

    def test_time_follows_the_second_largest_root(self):
        # the scan stops at 1, and 2 and the far root are read off the quadratic remainder
        for far in (10**9, -(10**18)):
            m = {1: 1, 2: 1, far: 1}
            f = RationalPoly.from_roots(m)
            f.num
            start = perf_counter()
            assert f.root_map() == m and (1 / f).root_map() == {t: -1 for t in m}
            assert perf_counter() - start < 0.05

    def test_roots_come_in_the_order_of_the_outward_scan(self):
        # 0, 1, -1, 2, -2, ...: the last two roots, read off the discriminant, keep that order
        rng = random.Random(35)
        for _ in range(500):
            m = {t: rng.randint(1, 3) for t in rng.sample(range(-20, 21), rng.randint(1, 5))}
            got = RationalPoly.from_roots(m).root_map()
            assert got == m and list(got) == sorted(m, key=lambda t: (abs(t), t < 0)), m

    @pytest.mark.parametrize(
        "f",
        [
            RationalPoly((-2 * 10**18, 0, 1)),  # z^2 - 2 10^18: discriminant 8 10^18, not a square
            RationalPoly((10**18, 0, 1)),  # z^2 + 10^18: discriminant below 0
            RationalPoly.from_roots({3: 1}) * RationalPoly((-2 * 10**18, 0, 1)),
            1 / RationalPoly((-2 * 10**18, 0, 1)),
            # z^3 - 10^12 z + 1: |t|^3 passes the constant 1 at t = 2, long before t^2 passes 2 10^12
            RationalPoly((1, -(10**12), 0, 1)),
        ],
        ids=str,
    )
    def test_refuses_at_once_what_does_not_split(self, f):
        f.num
        start = perf_counter()
        with pytest.raises(ValueError, match="does not split over integer roots"):
            f.root_map()
        assert perf_counter() - start < 0.05


class TestCancellation:
    @pytest.mark.parametrize("op", ["*", "+", "/", "shift"])
    @given(pair=operand_pairs(), m=st.integers(-3, 3))
    def test_matches_the_always_reduce_reference(self, op, pair, m):
        f, g = pair
        assume(op != "/" or not g.is_zero())
        got = STEPS[op](f, g, m)
        if op == "shift":
            want = reference_build(binomial_shift(f.num, m), binomial_shift(f.den, m))
            assert (got.num, got.den) == want
            assert [type(c) for c in got.num + got.den] == [type(c) for c in want[0] + want[1]]
            return
        # No step of skew's reducer: a monic denominator, coprime to the numerator by
        # a Euclid over Fraction, and the value of f op g at more points than
        # got.num * den - num * got.den has roots, where (num, den) is f op g unreduced.
        # These pin the one reduced form.
        assert all(exact_form(c) for c in got.num + got.den)
        assert got.den[-1] == 1 and got.num[-1:] != (0,)
        assert len(fraction_gcd(got.num, got.den)) == 1
        poles = (got.den, f.den, g.den, g.num) if op == "/" else (got.den, f.den, g.den)
        needed = _degree(got) + _degree(f) + _degree(g) + 1
        points = (x for x in sorted(range(-60, 61), key=abs) if all(horner(a, x) for a in poles))
        points = list(islice(points, needed))
        assert len(points) == needed
        for x in points:
            value = VALUES[op](value_at(f, x), value_at(g, x))
            assert value_at(got, x) == value, x


class TestDefiningRelations:
    def test_x_times_y_is_z(self):
        assert x() * y() == SkewElement.from_poly(Z)

    def test_y_times_x(self):
        assert y() * x() == SkewElement.from_poly(Z - 1)

    def test_x_times_z(self):
        zel = SkewElement.from_poly(Z)
        assert x() * zel == SkewElement.monomial(Z + 1, 1)

    def test_x2_y2_hand_expansion(self):
        # x z y = x y (z+1) = z(z+1)
        assert x() ** 2 * y() ** 2 == SkewElement.from_poly(Z * (Z + 1))

    def test_y_power_negative(self):
        assert SkewElement.y_power(1) * SkewElement.y_power(-1) == SkewElement.one()
        assert SkewElement.y_power(-2) * SkewElement.y_power(2) == SkewElement.one()

    def test_transport_rule(self):
        f = poly(1, 2, 1)
        lhs = SkewElement.x_power(3) * SkewElement.from_poly(f)
        rhs = SkewElement.from_poly(f.shift(3)) * SkewElement.x_power(3)
        assert lhs == rhs


class TestRingAxioms:
    @given(skew_elements())
    def test_unit(self, u):
        assert u * SkewElement.one() == u
        assert SkewElement.one() * u == u

    @given(skew_elements(), st.one_of(coefficients, rational_polys))
    def test_scalar_operand_is_the_degree_zero_element(self, u, f):
        assert u * f == u * SkewElement.from_poly(f)
        assert f * u == SkewElement.from_poly(f) * u
        assert (u == f) is (u == SkewElement.from_poly(f))
        assert (f == u) is (SkewElement.from_poly(f) == u)
        assert SkewElement.from_poly(f) == f
        assert hash(SkewElement.from_poly(f)) == hash(f)

    def test_degree_zero_element_equals_its_coefficient(self):
        assert SkewElement.from_poly(Z) == Z
        assert Z == SkewElement.from_poly(Z)
        assert 1 == SkewElement.one()
        assert len({SkewElement.one(), 1, RationalPoly.one()}) == 1
        assert len({SkewElement.zero(), 0, RationalPoly.zero()}) == 1
        assert x() != Z and Z != x()
        assert (SkewElement.one() == "a") is False

    @pytest.mark.parametrize("f", [2, Fraction(-1, 3), Z + 1, ONE / (Z - 2)])
    def test_scalar_operand_of_add(self, f):
        u = SkewElement({2: Z + 1, 0: ONE, -1: ONE / Z})
        assert u + f == f + u == u + SkewElement.from_poly(f)

    @pytest.mark.parametrize("f", [2, Fraction(-1, 3), Z + 1, ONE / (Z - 2)])
    def test_scalar_operand_of_sub(self, f):
        u = SkewElement({2: Z + 1, 0: ONE, -1: ONE / Z})
        assert u - f == u - SkewElement.from_poly(f)
        assert f - u == SkewElement.from_poly(f) - u

    @pytest.mark.parametrize("op", [add, sub, mul])
    def test_other_operands_are_rejected(self, op):
        for other in (1.5, "z", None):
            with pytest.raises(TypeError):
                op(x(), other)
            with pytest.raises(TypeError):
                op(other, x())


class TestWeylMembership:
    def test_z_in_A(self):
        assert weyl_membership(SkewElement.from_poly(Z))

    def test_y_in_A(self):
        assert weyl_membership(SkewElement.monomial(Z - 1, -1))

    def test_bare_inverse_power_not_in_A(self):
        assert not weyl_membership(SkewElement.x_power(-1))

    def test_rational_coefficient_not_in_A(self):
        assert not weyl_membership(SkewElement.from_poly(ONE / Z))


class TestJson:
    def test_skew_roundtrip(self):
        u = SkewElement({2: Z + 1, -1: ONE / Z})
        assert SkewElement.from_json(u.to_json()) == u
