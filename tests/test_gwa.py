import random
from itertools import combinations
from math import log10

import pytest

from weylgraded.zfin import FinSet, affine_image
from weylgraded.skew import RationalPoly, SkewElement
from weylgraded.lattices import iota_lattice
from weylgraded.picard import PicElement, power
from weylgraded import gwa, verification
from weylgraded.gwa import (
    complement,
    graded_piece_closed_form,
    present,
    ring_pieces,
    simplicity_root_test,
    twisted_endo_piece_oracle,
    verify_gwa_embedding,
    verify_ring_closure,
)

Z = RationalPoly.z()
ONE = RationalPoly.one()


def fs(*xs):
    return FinSet(xs)


def admissible_pairs(n_max):
    out = []
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            for c in combinations(range(n), k):
                out.append((FinSet(c), n))
    return out


class TestPresent:
    def test_veronese(self):
        p = present(FinSet(), 2)
        assert p.f == Z * (Z + 1)
        assert p.idealizer_factor == ONE
        assert p.relations[0] == "X z - z X = 2 X"
        assert p.relations[3] == f"Y X = {(Z * (Z + 1)).shift(-2)}"

    def test_localized_idealizer(self):
        p = present(fs(0), 1)
        assert p.f == ONE
        assert p.idealizer_factor == Z

    def test_idealizer_in_weyl(self):
        p = present(fs(0), 2)
        assert p.f == Z + 1
        assert p.idealizer_factor == Z

    def test_factorization_identity(self):
        for J, n in admissible_pairs(4):
            p = present(J, n)
            assert p.f * p.idealizer_factor == RationalPoly.rising(n)

    def test_shifted_relation_is_the_taylor_shift(self):
        for J, n in admissible_pairs(6):
            p = present(J, n)
            assert p.relations[3] == f"Y X = {p.f.shift(-n)}", (J, n)

    def test_refuses_relations_past_the_printed_digits(self):
        with pytest.raises(ValueError, match="MAX_PRINTED_DIGITS"):
            present(fs(0), 3000)

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            present(fs(2), 2)
        with pytest.raises(ValueError):
            present(fs(0), 0)


class TestClosedForm:
    def test_negative_degrees(self):
        assert graded_piece_closed_form(fs(0), 1, -2) == (Z, 2)

    def test_positive_degree(self):
        assert graded_piece_closed_form(fs(0), 1, 1) == (Z, -1)

    def test_rank_two_idealizer(self):
        h, p = graded_piece_closed_form(fs(0), 2, 1)
        assert h == Z * (Z + 1)
        assert p == -2

    def test_degree_zero(self):
        assert graded_piece_closed_form(fs(1), 3, 0) == (ONE, 0)

    def test_matches_the_expansion_in_D(self):
        # Reference: f_J (fbar y^{-n})^j expanded in D is the single term
        # (h / rising(nj)) x^{nj}, since x^{nj} = rising(nj) y^{-nj}.
        for J, n in admissible_pairs(5):
            f_J = SkewElement.from_poly(RationalPoly.linear_product(J))
            fbar = SkewElement.from_poly(RationalPoly.linear_product(complement(J, n)))
            step = fbar * SkewElement.y_power(-n)
            for j in range(1, 7):
                element = f_J * step ** j
                h, p = graded_piece_closed_form(J, n, j)
                assert p == -n * j
                assert element.degrees() == (n * j,), (J, n, j)
                assert element.coefficient(n * j) == h / RationalPoly.rising(n * j), (J, n, j)


class TestOracle:
    def test_trivial_pair_recovers_free_ring(self):
        for j in range(-4, 5):
            h, p = twisted_endo_piece_oracle(FinSet(), 1, j)
            assert p == -j
            if j >= 0:
                assert h == RationalPoly.rising(j)
            else:
                assert h == ONE

    def test_idealizer_piece(self):
        assert twisted_endo_piece_oracle(fs(0), 1, 1) == (Z, -1)

    def test_two_residue_piece(self):
        assert twisted_endo_piece_oracle(fs(0, 1), 2, -1) == (Z * (Z + 1), 2)

    def test_lattice_is_iota_of_the_involution_set_of_F_to_the_j(self, monkeypatch):
        """M(j) is iota_K A, with K the involution set of (S^n iota_J)^j moved past its shift."""
        built = []

        def recording(K, shift=0):
            built.append(K)
            return iota_lattice(K, shift)

        monkeypatch.setattr(gwa, "iota_lattice", recording)
        for J, n in admissible_pairs(6):
            for j in range(-8, 9):
                built.clear()
                twisted_endo_piece_oracle(J, n, j)
                K = affine_image(power(PicElement(1, n, J), j).J, 1, n * j)
                assert built == [K], (J, n, j)


class TestRingStructure:
    @pytest.mark.parametrize("pair", admissible_pairs(4))
    def test_closure(self, pair):
        assert verify_ring_closure(pair[0], pair[1], 3)

    @pytest.mark.parametrize("pair", admissible_pairs(4))
    def test_gwa_embedding(self, pair):
        assert verify_gwa_embedding(pair[0], pair[1])

    @pytest.mark.parametrize("pair", admissible_pairs(4))
    def test_simplicity_roots(self, pair):
        assert simplicity_root_test(pair[0], pair[1])

    @pytest.mark.parametrize("roots", [[0, 2], [1, 1]])
    def test_simplicity_reads_the_built_fbar(self, monkeypatch, roots):
        # fbar = z (z+2) has two roots congruent mod 2, and (z+1)^2 a repeated one
        fbar = RationalPoly.linear_product(roots)
        monkeypatch.setattr(gwa, "_fbar", lambda J, n: fbar)
        assert not simplicity_root_test(FinSet(), 2)

    def test_weyl_case_relations(self):
        assert verify_gwa_embedding(FinSet(), 1)

    @pytest.mark.parametrize("pair", admissible_pairs(3))
    def test_embedding_can_fail(self, pair, monkeypatch):
        # the dense reference: D's transport rule moved by one
        shift = RationalPoly.shift
        monkeypatch.setattr(RationalPoly, "shift", lambda f, m: shift(f, m + 1))
        assert not _dense_embedding(*pair)

    @pytest.mark.parametrize("pair", admissible_pairs(3))
    def test_embedding_on_roots_can_fail(self, pair, monkeypatch):
        # the same mutation on root maps: root t of h_b lands at t - p_a + 1
        times = gwa._times
        monkeypatch.setattr(
            gwa, "_times", lambda a, b: times(a, ({t + 1: e for t, e in b[0].items()}, b[1]))
        )
        assert not verify_gwa_embedding(*pair)

    def test_x_power_branch_moved_by_one_fails(self, monkeypatch):
        # x^d for d < 0 with its roots d..-1 moved to d+1..0: the embedding check's
        # x^-n x^n = 1 catches it on every pair, and so does the oracle sweep
        x_power = gwa._x_power

        def moved(d):
            return x_power(d) if d >= 0 else (dict.fromkeys(range(d + 1, 1), -1), -d)

        monkeypatch.setattr(gwa, "_x_power", moved)
        pairs = admissible_pairs(3)
        assert len(pairs) == 14
        assert not any(verify_gwa_embedding(*pair) for pair in pairs)
        sweep = verification.SUITES["rings"][0]
        assert sweep.fn is verification._oracle_matches_closed_form
        result = verification.run_check(sweep)
        assert result.raised is None
        assert result.failure is not None and result.failure["j"] < 0, result.failure

    def test_closure_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            verify_ring_closure(FinSet([0]), 1, -5)

    def test_closure_work_limit(self, monkeypatch):
        # (2w+1)^2 (|J| + (n-|J|) w): window 500 at n = 1 is 1002001 units, n = 111112 at window 1 is 1000008
        for n, window in [(1, 500), (111112, 1)]:
            with pytest.raises(ValueError, match="RING_CLOSURE_MAX_WORK = 1000000$"):
                verify_ring_closure(fs(0), n, window)
        monkeypatch.setattr(gwa, "RING_CLOSURE_MAX_WORK", 7**2 * 4)
        # J = {0}, n = 2, window 3 is 7^2 (1 + 1*3) = 196, the limit itself; the refused three are 225, 294 and 343
        for J, n, window in [(fs(0), 2, 3), (fs(), 1, 3), (fs(0), 1, 6)]:
            assert verify_ring_closure(J, n, window)
        for J, n, window in [(fs(0), 1, 7), (fs(), 2, 3), (fs(0), 3, 3)]:
            with pytest.raises(ValueError, match="RING_CLOSURE_MAX_WORK = 196$"):
                verify_ring_closure(J, n, window)


# Reference: the embedding check as dense products in D, on the fbar that
# factors builds.
def _dense_embedding(J, n):
    fbar, _ = gwa.factors(J, n)
    z = RationalPoly.z()
    X = fbar * SkewElement.y_power(-n)
    Y = SkewElement.y_power(n)
    return (
        X * z == (z + n) * X
        and Y * z == (z - n) * Y
        and X * Y == fbar
        and Y * X == fbar.shift(-n)
        and SkewElement.x_power(n) == RationalPoly.rising(n) * SkewElement.y_power(-n)
    )


class TestEmbeddingOnRoots:
    def test_agrees_with_D_on_every_pair(self):
        for J, n in admissible_pairs(6):
            assert verify_gwa_embedding(J, n) is _dense_embedding(J, n) is True, (J, n)

    def test_times_is_the_transport_rule(self):
        # (z+3) y^2 * z y^-1 = (z+3) (z-2) y  and  y^-1 * (z+1) = (z+2) y^-1
        assert gwa._times(({3: 1}, 2), ({0: 1}, -1)) == ({3: 1, -2: 1}, 1)
        assert gwa._times(({}, -1), ({1: 1}, 0)) == ({2: 1}, -1)
        # exponents that cancel are dropped
        assert gwa._times(({0: 1}, 1), ({1: -1}, 0)) == ({}, 1)

    def test_x_power_is_the_power_in_D(self):
        for d in range(-6, 7):
            h, p = gwa._x_power(d)
            assert SkewElement.x_power(d) == RationalPoly.from_roots(h) * SkewElement.y_power(p), d

    def test_x_power_by_repeated_squaring(self, monkeypatch):
        # x^n takes about 2 log2 n products, where one product per power took n
        calls = []
        times = gwa._times
        monkeypatch.setattr(gwa, "_times", lambda a, b: calls.append(1) or times(a, b))
        n = 30000
        assert verify_gwa_embedding(fs(0), n)
        assert len(calls) <= 2 * n.bit_length() + 4

    def test_product_lands_is_times_then_compare(self):
        rng = random.Random(19)

        def monomial():
            roots = {t: rng.choice([-2, -1, 1, 2]) for t in rng.sample(range(-6, 7), rng.randint(0, 4))}
            return roots, rng.randint(-3, 3)

        answers = []
        for _ in range(2000):
            a, b, target = monomial(), monomial(), monomial()
            if rng.random() < 0.5:
                target = (target[0], a[1] + b[1])
            h, p = gwa._times(a, b)
            expected = p == target[1] and all(h.get(t, 0) >= e for t, e in target[0].items())
            got = gwa._product_lands(a, b, target)
            assert got == expected, (a, b, target)
            answers.append(got)
        assert 0 < answers.count(True) < answers.count(False)


# Reference: the closure check as dense products in D, multiplying the
# graded_piece_closed_form generators h y^p as SkewElements.
def _dense_generator(J, n, j):
    h, p = graded_piece_closed_form(J, n, j)
    return SkewElement.from_poly(h) * SkewElement.y_power(p)


def _dense_product(J, n, i, j):
    """(degrees of the product of generators i and j, its coefficient over the target's)."""
    product = _dense_generator(J, n, i) * _dense_generator(J, n, j)
    d = n * (i + j)
    return product.degrees(), product.coefficient(d) / _dense_generator(J, n, i + j).coefficient(d)


def _dense_closure(J, n, window):
    for i in range(-window, window + 1):
        for j in range(-window, window + 1):
            if abs(i + j) <= window:
                degrees, ratio = _dense_product(J, n, i, j)
                if degrees != (n * (i + j),) or not ratio.is_polynomial():
                    return False
    return True


class TestClosedFormRoots:
    def test_equals_the_residue_filter_in_order(self):
        # reference: J, then every t < nj whose residue is not in J, filtered one t at a time
        for J, n in admissible_pairs(7):
            for j in range(-8, 9):
                want = [*J, *(t for t in range(n * j) if t % n not in J)] if j else []
                roots, p = gwa._closed_form_roots(J, n, j)
                assert list(roots.items()) == [(t, 1) for t in want], (J, n, j)
                assert p == -n * j


class TestClosurePairs:
    @pytest.mark.parametrize("window", range(1, 7))
    def test_checks_each_pair_once_against_its_sum(self, window, monkeypatch):
        n = 2
        checked = []

        def record(a, b, target):
            checked.append((-a[1] // n, -b[1] // n, -target[1] // n))
            return True

        monkeypatch.setattr(gwa, "_product_lands", record)
        assert verify_ring_closure(fs(0), n, window)
        w = range(-window, window + 1)
        want = [(i, j, i + j) for i in w for j in w if abs(i + j) <= window]
        assert len(want) == (2 * window + 1) ** 2 - window * (window + 1)
        assert sorted(checked) == want


class TestClosureOnRoots:
    def test_each_product_agrees_with_D(self):
        for J, n in admissible_pairs(4):
            pieces = {j: gwa._closed_form_roots(J, n, j) for j in range(-3, 4)}
            for i in pieces:
                for j in pieces:
                    if abs(i + j) > 3:
                        continue
                    degrees, ratio = _dense_product(J, n, i, j)
                    assert degrees == (n * (i + j),), (J, n, i, j)
                    lands = gwa._product_lands(pieces[i], pieces[j], pieces[i + j])
                    assert lands == ratio.is_polynomial(), (J, n, i, j)

    def test_agrees_with_D_on_every_pair(self):
        for J, n in admissible_pairs(5):
            for window in (1, 2, 3):
                assert verify_ring_closure(J, n, window) is _dense_closure(J, n, window) is True

    def test_can_fail(self, monkeypatch):
        # piece 1 of S({0}, 1) is z y^-1 k[z]; as y^-1 k[z] its square y^-2 is not in
        # piece 2, z y^-2 k[z].  Every window-1 product has a factor or its target in
        # degree 0, so window 1 cannot see it.
        closed_form = gwa._closed_form_roots
        monkeypatch.setattr(
            gwa, "_closed_form_roots", lambda J, n, j: ({}, -1) if j == 1 else closed_form(J, n, j)
        )
        got = [verify_ring_closure(fs(0), 1, window) for window in (1, 2, 3)]
        assert got == [_dense_closure(fs(0), 1, window) for window in (1, 2, 3)]
        assert got == [True, False, False]

    def test_y_power_must_match(self):
        # y^-1 y^-1 = y^-2 lies in y^-2 k[z] but not in y^-1 k[z] or y^-3 k[z]
        assert gwa._product_lands(({}, -1), ({}, -1), ({}, -2))
        assert not gwa._product_lands(({}, -1), ({}, -1), ({}, -1))
        assert not gwa._product_lands(({}, -1), ({}, -1), ({}, -3))

    def test_mutated_pieces_agree_with_D(self, monkeypatch):
        closed_form = gwa._closed_form_roots
        rng = random.Random(17)
        pairs = admissible_pairs(4)
        answers = []
        for _ in range(400):
            J, n = rng.choice(pairs)
            window = rng.randint(1, 3)
            k = rng.randint(-window, window)
            roots, p = closed_form(J, n, k)
            if roots and rng.random() < 0.5:
                del roots[rng.choice(sorted(roots))]
            else:
                roots[rng.choice([t for t in range(-2 * n * window, 2 * n * window + 1) if t not in roots])] = 1
            mutated = (roots, p)
            monkeypatch.setattr(
                gwa, "_closed_form_roots", lambda J, n, j: mutated if j == k else closed_form(J, n, j)
            )
            got = verify_ring_closure(J, n, window)
            assert got == _dense_closure(J, n, window), (J, n, window, k, mutated)
            answers.append(got)
        assert 0 < answers.count(True) < answers.count(False)


class TestRingPieces:
    def test_table_shape(self):
        table = ring_pieces(fs(0), 1, -2, 2)
        assert sorted(table.pieces) == [-2, -1, 0, 1, 2]
        assert table.pieces[0] == (ONE, 0)

    def test_oracle_table_matches(self):
        a = ring_pieces(fs(0, 2), 3, -2, 2)
        b = ring_pieces(fs(0, 2), 3, -2, 2, oracle=True)
        assert a.pieces == b.pieces

    @pytest.mark.parametrize("oracle", [False, True])
    def test_refuses_pieces_past_the_printed_digits(self, oracle, monkeypatch):
        monkeypatch.setattr("weylgraded.skew.MAX_PRINTED_DIGITS", 300)
        # piece j of S({}, 1) is z (z+1) ... (z+j-1): at most sum log10(1+t) digits over t < j
        bounds = [0.0]
        while bounds[-1] <= 300:
            bounds.append(bounds[-1] + log10(len(bounds)))
        last = len(bounds) - 2
        h, _ = ring_pieces(fs(), 1, last, last, oracle=oracle).pieces[last]
        assert h == RationalPoly.rising(last)
        assert 250 < max(len(str(abs(c))) for c in h.num) <= 300
        with pytest.raises(ValueError, match="over the limit MAX_PRINTED_DIGITS = 300"):
            ring_pieces(fs(), 1, -1, last + 1, oracle=oracle)

    def test_json(self):
        table = ring_pieces(fs(0), 1, -1, 1)
        data = table.to_json()
        assert set(data) == {"-1", "0", "1"}
        assert data["1"]["p"] == -1
