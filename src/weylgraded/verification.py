"""Every invariant sweep, registered once; ``weylgraded verify`` and pytest run them.

A check is a function registered with ``@register(suite, name, cases)``.  It
returns None when the property holds on every case, and otherwise the first
failing input as JSON data built with the ``to_json`` methods.  A check takes
a ``random.Random`` (which a deterministic sweep ignores); each run seeds a
fresh one per check from the run's seed and the check's name, so the cases of
a check do not depend on which other checks ran.  A window-shaped check is
registered with ``window=N`` and takes its sweep size ``n`` instead: ``N`` in
full, or less when ``run_suites(..., window=...)`` (the CLI's ``--window``)
caps it.  Registering only stores the function; no sweep runs at import.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from . import zfin
from .zfin import AdmissiblePair, FinSet, NotInImageError
from .skew import RationalPoly, SkewElement, weyl_membership
from .lattices import (
    DSet,
    GradedLattice,
    SimpleLabel,
    cokernel_support,
    iota_lattice,
    is_A_module,
    lattice_dset,
    lattice_intersect,
    simple_factor,
    to_dset,
)
from . import picard
from .picard import PicElement, act_on_dset, act_on_simple, compose, identity, inverse, iota, omega, power, sign_rank
from .classify import canonical_admissible, morita_class_count, same_morita_class
from . import gwa
from .ktheory import (
    ProjectiveSum,
    iso_test,
    k0_class,
    normalize_sum,
    stably_free_witness,
    theta_map,
)


class Check(NamedTuple):
    """One registered property of one suite."""

    suite: str
    name: str
    cases: str
    fn: Callable[..., object]
    window: int | None = None

    def size(self, window: int | None = None) -> int:
        """A window-shaped check's sweep size: its registered window, capped by ``window``."""
        return self.window if window is None else min(self.window, window)

    def describe(self, window: int | None = None) -> str:
        if self.window is None:
            return self.cases
        return self.cases.format(n=self.size(window))

    def run(self, seed: int = 0, window: int | None = None) -> object:
        """None on success, else the first failing input as JSON data."""
        if self.window is not None:
            return self.fn(self.size(window))
        return self.fn(random.Random(f"{seed}:{self.name}"))


class CheckResult(NamedTuple):
    name: str
    cases: str
    failure: object  # None when the check passed
    raised: str | None = None  # "<type>: <message>" when the check raised instead

    @property
    def passed(self) -> bool:
        return self.failure is None and self.raised is None


SUITES: dict[str, list[Check]] = {}


def register(suite: str, name: str, cases: str = "", window: int | None = None):
    """Add the decorated function to ``SUITES[suite]``; ``{n}`` in ``cases`` is the window."""

    def add(fn: Callable[..., object]) -> Callable[..., object]:
        SUITES.setdefault(suite, []).append(Check(suite, name, cases, fn, window))
        return fn

    return add


def run_suites(
    names: Iterable[str], seed: int = 0, window: int | None = None
) -> tuple[int, int, list[CheckResult]]:
    """Run the named suites; returns (passed, failed, results).

    A check that raises fails with the exception recorded, and the run goes on.
    """
    if window is not None and window < 1:
        raise ValueError(f"window must be a positive integer, got {window}")
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
        for check in SUITES[name]:
            cases = check.describe(window)
            try:
                failure, raised = check.run(seed, window), None
            except Exception as exc:
                failure, raised = None, f"{type(exc).__name__}: {exc}"
            results.append(CheckResult(check.name, cases, failure, raised))
    failed = sum(1 for r in results if not r.passed)
    return len(results) - failed, failed, results


def _subsets(universe: Iterable[int], max_size: int | None = None) -> list[FinSet]:
    items = sorted(universe)
    sizes = range(len(items) + 1) if max_size is None else range(max_size + 1)
    return [FinSet(c) for k in sizes for c in combinations(items, k)]


def _random_finset(rng: random.Random, lo: int, hi: int, max_size: int) -> FinSet:
    k = rng.randint(0, max_size)
    return FinSet(rng.sample(range(lo, hi + 1), k))


def _admissible_pairs(n_max: int) -> list[AdmissiblePair]:
    return [AdmissiblePair(J, n) for n in range(1, n_max + 1) for J in _subsets(range(n))]


# --- zfin ---------------------------------------------------------------


@register("zfin", "boundary is additive over xor", "300 random (I, J, n)")
def _boundary_additive(rng: random.Random) -> object:
    for _ in range(300):
        n = rng.randint(1, 6)
        I = _random_finset(rng, -10, 10, 5)
        J = _random_finset(rng, -10, 10, 5)
        if zfin.boundary(I ^ J, n) != zfin.boundary(I, n) ^ zfin.boundary(J, n):
            return {"I": I.to_json(), "J": J.to_json(), "n": n}
    return None


@register("zfin", "inverse_boundary o boundary = id", "300 random (K, n)")
def _inverse_boundary_left_inverse(rng: random.Random) -> object:
    for _ in range(300):
        n = rng.randint(1, 6)
        K = _random_finset(rng, -10, 10, 5)
        if zfin.inverse_boundary(zfin.boundary(K, n), n) != K:
            return {"K": K.to_json(), "n": n}
    return None


@register("zfin", "image of boundary = even slice parity", "300 random (J, n)")
def _boundary_image(rng: random.Random) -> object:
    for _ in range(300):
        n = rng.randint(1, 6)
        J = _random_finset(rng, -10, 10, 5)
        even = all(len(zfin.slice(J, n, i)) % 2 == 0 for i in range(n))
        try:
            hit = zfin.boundary(zfin.inverse_boundary(J, n), n) == J
        except NotInImageError:
            hit = False
        if hit != even:
            return {"J": J.to_json(), "n": n}
    return None


@register("zfin", "shift re-encoding is a Z-action", "300 random (J, s, t)")
def _absorb_shift_action(rng: random.Random) -> object:
    for _ in range(300):
        J = _random_finset(rng, -10, 10, 5)
        s, t = rng.randint(-8, 8), rng.randint(-8, 8)
        twice = zfin.absorb_shift(zfin.absorb_shift(J, s), t)
        if zfin.absorb_shift(J, 0) != J or twice != zfin.absorb_shift(J, s + t):
            return {"J": J.to_json(), "s": s, "t": t}
    return None


@register("zfin", "necklace enumeration matches counting formula", "n <= {n}", window=12)
def _necklace_counts(n_max: int) -> object:
    for n in range(1, n_max + 1):
        if len(zfin.necklace_enumerate(n)) != zfin.necklace_count(n):
            return {"n": n}
    return None


@register("zfin", "necklace canonical idempotent + rotation-invariant", "200 random (J, n, r)")
def _necklace_canonical(rng: random.Random) -> object:
    for _ in range(200):
        n = rng.randint(1, 8)
        J = FinSet(rng.sample(range(n), rng.randint(0, n)))
        r = rng.randint(-12, 12)
        c = zfin.necklace_canonical(AdmissiblePair(J, n))
        rotated = AdmissiblePair(FinSet((j + r) % n for j in J), n)
        if zfin.necklace_canonical(c.representative) != c or zfin.necklace_canonical(rotated) != c:
            return {"pair": AdmissiblePair(J, n).to_json(), "r": r}
    return None


# --- skew arithmetic ------------------------------------------------------


def _random_skew(rng: random.Random) -> SkewElement:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(-3, 3)
        coeffs = [rng.randint(-10, 10) for _ in range(rng.randint(1, 4))]
        if any(coeffs):
            terms[m] = RationalPoly(coeffs)
    return SkewElement(terms)


def _random_weyl(rng: random.Random) -> SkewElement:
    """A polynomial combination of x and y, so an element of A."""
    e = SkewElement.zero()
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(-2, 2)
        c = RationalPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 3))])
        piece = SkewElement.x_power(m) if m >= 0 else SkewElement.y_power(-m)
        e = e + piece * SkewElement.from_poly(c)
    return e


@register("skew", "x y - y x = 1")
def _commutator(rng: random.Random) -> object:
    x, yy = SkewElement.x_power(1), SkewElement.y_power(1)
    commutator = x * yy - yy * x
    return None if commutator == SkewElement.one() else commutator.to_json()


@register("skew", "x^m y^m = z(z+1)...(z+m-1) for m <= 6")
def _rising_products(rng: random.Random) -> object:
    for m in range(1, 7):
        lhs = SkewElement.x_power(1) ** m * SkewElement.y_power(1) ** m
        if lhs != SkewElement.from_poly(RationalPoly.rising(m)):
            return {"m": m}
    return None


@register("skew", "associativity + distributivity", "200 random triples")
def _ring_axioms(rng: random.Random) -> object:
    for _ in range(200):
        u, v, w = _random_skew(rng), _random_skew(rng), _random_skew(rng)
        if (
            (u * v) * w != u * (v * w)
            or u * (v + w) != u * v + u * w
            or (u + v) * w != u * w + v * w
        ):
            return {"u": u.to_json(), "v": v.to_json(), "w": w.to_json()}
    return None


@register("skew", "Weyl membership closed under products", "200 random pairs")
def _weyl_closed(rng: random.Random) -> object:
    for _ in range(200):
        u, v = _random_weyl(rng), _random_weyl(rng)
        if not (weyl_membership(u) and weyl_membership(v) and weyl_membership(u * v)):
            return {"u": u.to_json(), "v": v.to_json()}
    return None


# --- lattices --------------------------------------------------------------


def _iota_family() -> list[tuple[FinSet, int]]:
    return [(J, s) for J in _subsets(range(-3, 4), 3) for s in range(-2, 3)]


@register(
    "lattices", "iota_J A equals the intersection of the iota_i A", "J in [-2,2], |J| <= 3"
)
def _intersection_fold(rng: random.Random) -> object:
    for J in _subsets(range(-2, 3), 3):
        folded = GradedLattice.free()
        for i in sorted(J):
            folded = lattice_intersect(folded, iota_lattice(FinSet([i])))
        if folded != iota_lattice(J):
            return {"J": J.to_json()}
    return None


@register(
    "lattices",
    "duality dichotomy + DSet consistency",
    "J in [-3,3], |J| <= 3, s in [-2,2], j in [-5,5]",
)
def _duality_dichotomy(rng: random.Random) -> object:
    for J, s in _iota_family():
        L = iota_lattice(J, s)
        if not is_A_module(L):
            return {"J": J.to_json(), "s": s}
        E = to_dset(J, s)
        for j in range(-5, 6):
            if (simple_factor(L, j).kind == "X") != (j in E):
                return {"J": J.to_json(), "s": s, "j": j}
    return None


@register(
    "lattices",
    "lattice factor reading equals the DSet formula",
    "J in [-3,3], |J| <= 3, s in [-2,2]",
)
def _lattice_reading(rng: random.Random) -> object:
    for J, s in _iota_family():
        if lattice_dset(iota_lattice(J, s)) != to_dset(J, s):
            return {"J": J.to_json(), "s": s}
    return None


@register("lattices", "Schanuel cokernel identity", "J, K in [0,3]")
def _schanuel(rng: random.Random) -> object:
    subs = _subsets(range(4))
    for J in subs:
        for K in subs:
            left = cokernel_support(iota_lattice(J | K), iota_lattice(K))
            right = cokernel_support(iota_lattice(J), iota_lattice(J & K))
            if left != right:
                return {"J": J.to_json(), "K": K.to_json()}
    return None


@register("lattices", "iota_0 squared is multiplication by z", "J in [-2,2], |J| <= 2")
def _iota_squared(rng: random.Random) -> object:
    for J in _subsets(range(-2, 3), 2):
        L = iota_lattice(J)
        if L.involute(0).involute(0) != L.scaled(RationalPoly.z()):
            return {"J": J.to_json()}
    return None


# --- picard ----------------------------------------------------------------


def _random_pic(rng: random.Random, b_bound: int = 10, j_bound: int = 10) -> PicElement:
    return PicElement(
        rng.choice([1, -1]),
        rng.randint(-b_bound, b_bound),
        _random_finset(rng, -j_bound, j_bound, 4),
    )


@register("picard", "group axioms", "10000 random triples")
def _group_axioms(rng: random.Random) -> object:
    e = identity()
    for _ in range(10_000):
        F, G, H = (_random_pic(rng) for _ in range(3))
        if (
            compose(compose(F, G), H) != compose(F, compose(G, H))
            or compose(F, inverse(F)) != e
            or compose(inverse(F), F) != e
            or compose(F, e) != F
            or compose(e, F) != F
        ):
            return {"F": F.to_json(), "G": G.to_json(), "H": H.to_json()}
    return None


@register("picard", "omega squared = e")
def _omega_square(rng: random.Random) -> object:
    square = compose(omega(), omega())
    return None if square == identity() else square.to_json()


@register("picard", "odd squares are involutions; fourth powers trivial", "500 random odd")
def _odd_elements(rng: random.Random) -> object:
    for _ in range(500):
        F = _random_pic(rng)
        F = PicElement(-1, F.b, F.J)
        expected_J = zfin.affine_image(F.J, 1, F.b) ^ zfin.affine_image(F.J, -1, -1)
        if compose(F, F) != PicElement(1, 0, expected_J) or power(F, 4) != identity():
            return {"F": F.to_json()}
    return None


@register("picard", "sign_rank: surjective homomorphism onto D-infinity", "2000 random pairs")
def _sign_rank(rng: random.Random) -> object:
    for _ in range(2000):
        F, G = _random_pic(rng), _random_pic(rng)
        (a1, r1), (a2, r2) = sign_rank(F), sign_rank(G)
        if sign_rank(compose(F, G)) != (a1 * a2, a1 * r2 + r1):
            return {"F": F.to_json(), "G": G.to_json()}
    for a in (1, -1):
        for r in range(-6, 7):
            if sign_rank(PicElement(a, r + (1 if a == -1 else 0), FinSet())) != (a, r):
                return {"a": a, "r": r}
    return None


@register("picard", "kernel of sign_rank is the involution group FinSet", "1000 random (J, K, G)")
def _sign_rank_kernel(rng: random.Random) -> object:
    for _ in range(1000):
        J = _random_finset(rng, -10, 10, 4)
        K = _random_finset(rng, -10, 10, 4)
        F = PicElement(1, 0, J)
        G = _random_pic(rng)
        if (
            sign_rank(F) != (1, 0)
            or compose(F, PicElement(1, 0, K)) != PicElement(1, 0, J ^ K)
            or (sign_rank(G) == (1, 0)) != (G.a == 1 and G.b == 0)
        ):
            return {"J": J.to_json(), "K": K.to_json(), "G": G.to_json()}
    return None


_SIMPLES = (
    [SimpleLabel.X(n) for n in range(-4, 5)]
    + [SimpleLabel.Y(n) for n in range(-4, 5)]
    + [SimpleLabel.M(Fraction(1, 2)), SimpleLabel.M(Fraction(-3, 2))]
)


@register("picard", "actions are group actions", "500 random pairs")
def _group_actions(rng: random.Random) -> object:
    for _ in range(500):
        F, G = _random_pic(rng), _random_pic(rng)
        E = DSet(_random_finset(rng, -5, 5, 4))
        if act_on_dset(compose(F, G), E) != act_on_dset(F, act_on_dset(G, E)):
            return {"F": F.to_json(), "G": G.to_json(), "E": E.to_json()}
        for S in _SIMPLES:
            if act_on_simple(compose(F, G), S) != act_on_simple(F, act_on_simple(G, S)):
                return {"F": F.to_json(), "G": G.to_json(), "simple": str(S)}
    return None


@register("actions", "DSet action matches explicit lattices", "a=+1, |b| <= 2, J in [-2,2]")
def _dset_action_oracle(rng: random.Random) -> object:
    free_dset = DSet(FinSet())
    for b in range(-2, 3):
        for J in _subsets(range(-2, 3)):
            if act_on_dset(PicElement(1, b, J), free_dset) != lattice_dset(iota_lattice(J, b)):
                return {"b": b, "J": J.to_json()}
    return None


@register("actions", "(S iota_0)^n A = iota_0 iota_n A", "n = 1..5")
def _iterated_shift_involution(rng: random.Random) -> object:
    F = compose(picard.shift(1), iota(FinSet([0])))
    for n in range(1, 6):
        lhs = act_on_dset(power(F, n), DSet(FinSet()))
        if lhs != to_dset(FinSet([0, n])) or lhs != lattice_dset(iota_lattice(FinSet([0, n]))):
            return {"n": n}
    return None


# --- classification ---------------------------------------------------------


def _random_generative(rng: random.Random) -> PicElement:
    b = rng.choice([v for v in range(-4, 5) if v])
    return PicElement(1, b, _random_finset(rng, -4, 4, 4))


def _conjugate(g: PicElement, F: PicElement) -> PicElement:
    return compose(g, compose(F, inverse(g)))


@register("classify", "admissible elements are their own canonical form", "n <= 4")
def _admissible_fixed_points(rng: random.Random) -> object:
    for pair in _admissible_pairs(4):
        F = PicElement(1, pair.n, pair.J)
        got, g = canonical_admissible(F)
        if got != pair or _conjugate(g, F) != F:
            return {"pair": pair.to_json()}
    return None


@register("classify", "canonical conjugator verifies exactly", "500 random generative")
def _canonical_conjugator(rng: random.Random) -> object:
    for _ in range(500):
        F = _random_generative(rng)
        pair, g = canonical_admissible(F)
        if _conjugate(g, F) != PicElement(1, pair.n, pair.J) or pair.n != abs(sign_rank(F)[1]):
            return {"F": F.to_json()}
    return None


@register("classify", "Morita class is conjugation-invariant", "500 random conjugations")
def _conjugation_invariant(rng: random.Random) -> object:
    for _ in range(500):
        F = _random_generative(rng)
        g = _random_pic(rng, 4, 4)
        if not same_morita_class(F, _conjugate(g, F)):
            return {"F": F.to_json(), "g": g.to_json()}
    return None


@register("classify", "class count at rank n equals the necklace count", "n <= 8")
def _class_counts(rng: random.Random) -> object:
    for n in range(1, 9):
        classes = {
            zfin.necklace_canonical(canonical_admissible(PicElement(1, n, J))[0])
            for J in _subsets(range(n))
        }
        if not len(classes) == morita_class_count(n) == zfin.necklace_count(n):
            return {"n": n}
    return None


@register("classify", "same_morita_class = necklace-type equality", "all admissible pairs, n <= 4")
def _same_class_is_rotation(rng: random.Random) -> object:
    pairs = _admissible_pairs(4)
    for p in pairs:
        for q in pairs:
            F, G = PicElement(1, p.n, p.J), PicElement(1, q.n, q.J)
            rotation_equal = p.n == q.n and any(
                FinSet((j + r) % p.n for j in p.J) == q.J for r in range(p.n)
            )
            if same_morita_class(F, G) != rotation_equal:
                return {"p": p.to_json(), "q": q.to_json()}
    return None


# --- rings -------------------------------------------------------------------


@register("rings", "lattice oracle reproduces closed-form pieces", "n <= {n}, |j| <= 3", window=3)
def _oracle_matches_closed_form(n_max: int) -> object:
    for pair in _admissible_pairs(n_max):
        for j in range(-3, 4):
            if gwa.twisted_endo_piece_oracle(pair.J, pair.n, j) != gwa.graded_piece_closed_form(
                pair.J, pair.n, j
            ):
                return {"pair": pair.to_json(), "j": j}
    return None


@register("rings", "idealizer ring pieces are z y^-j k[z] off degree 0", "S({0},1), |j| <= 4")
def _idealizer_pieces(rng: random.Random) -> object:
    for j in range(-4, 5):
        expected = (RationalPoly.one(), 0) if j == 0 else (RationalPoly.z(), -j)
        if gwa.graded_piece_closed_form(FinSet([0]), 1, j) != expected:
            return {"j": j}
    return None


@register("rings", "Veronese pieces equal the ambient graded components", "S({},2), |j| <= 4")
def _veronese_pieces(rng: random.Random) -> object:
    for j in range(-4, 5):
        got = gwa.graded_piece_closed_form(FinSet(), 2, j)
        h = RationalPoly.rising(2 * j) if j >= 0 else RationalPoly.one()
        if got != (h, -2 * j) or gwa.twisted_endo_piece_oracle(FinSet(), 2, j) != got:
            return {"j": j}
    return None


@register(
    "rings", "ring closure, GWA relations, root separation", "all admissible n <= {n}", window=4
)
def _ring_structure(n_max: int) -> object:
    for pair in _admissible_pairs(n_max):
        if not (
            gwa.verify_ring_closure(pair.J, pair.n, 3)
            and gwa.verify_gwa_embedding(pair.J, pair.n)
            and gwa.simplicity_root_test(pair.J, pair.n)
        ):
            return {"pair": pair.to_json()}
    return None


# --- k-theory ----------------------------------------------------------------


def _random_sum(rng: random.Random) -> ProjectiveSum:
    parts = []
    for _ in range(rng.randint(0, 4)):
        parts.append((_random_finset(rng, -4, 6, 3), rng.randint(-3, 3)))
    return ProjectiveSum.of(*parts)


@register("ktheory", "stably-free witness for {1,3}", "adds [3,1], result [4,2,0]")
def _witness_example(rng: random.Random) -> object:
    adds, result = stably_free_witness(FinSet([1, 3]))
    left = ProjectiveSum.of(FinSet([1, 3]), *[(FinSet(), l) for l in adds])
    right = ProjectiveSum.of(*[(FinSet(), m) for m in result])
    if adds == [3, 1] and result == [4, 2, 0] and iso_test(left, right):
        return None
    return {"adds": adds, "result": result}


@register("ktheory", "no single free complement for iota_{1,3}A within bound 8", "17^3 sweep")
def _no_single_complement(rng: random.Random) -> object:
    P = (FinSet([1, 3]), 0)
    free = FinSet()
    for l in range(-8, 9):
        for m in range(-8, 9):
            for n in range(-8, 9):
                if iso_test(
                    ProjectiveSum.of(P, (free, l)),
                    ProjectiveSum.of((free, m), (free, n)),
                ):
                    return {"l": l, "m": m, "n": n}
    return None


def _counts(summands: Iterable[tuple[FinSet, int]]) -> dict[int, int]:
    """How often each point lies in the shift-absorbed sets of the summands."""
    counts: dict[int, int] = {}
    for J, s in summands:
        for t in zfin.absorb_shift(J, s):
            counts[t] = counts.get(t, 0) + 1
    return counts


@register("ktheory", "normalization: idempotent chain, counts preserved", "1000 random sums")
def _normalization(rng: random.Random) -> object:
    for _ in range(1000):
        S = _random_sum(rng)
        N = normalize_sum(S)
        chain = [J for J, _ in N.summands]
        if (
            normalize_sum(N) != N
            or any(not a.issubset(b) for a, b in zip(chain, chain[1:]))
            or _counts(S.summands) != _counts(N.summands)
        ):
            return {"S": S.to_json()}
    return None


@register("ktheory", "cancellation of common summands", "1000 random sums")
def _cancellation(rng: random.Random) -> object:
    for _ in range(1000):
        P, Q1, Q2 = _random_sum(rng), _random_sum(rng), _random_sum(rng)
        lhs = iso_test(
            ProjectiveSum(P.summands + Q1.summands),
            ProjectiveSum(P.summands + Q2.summands),
        )
        if lhs != iso_test(Q1, Q2):
            return {"P": P.to_json(), "Q1": Q1.to_json(), "Q2": Q2.to_json()}
    return None


@register("ktheory", "K_0 class separates isomorphism classes", "500 random pairs")
def _k0_separates(rng: random.Random) -> object:
    for _ in range(500):
        S1, S2 = _random_sum(rng), _random_sum(rng)
        if iso_test(S1, S2) != (k0_class(S1) == k0_class(S2)):
            return {"S1": S1.to_json(), "S2": S2.to_json()}
    return None


@register(
    "ktheory",
    "theta: mod-2 homomorphism onto the involutions",
    "500 random two-term combos; every |J| <= 2 in [-4,4]",
)
def _theta(rng: random.Random) -> object:
    for _ in range(500):
        J = _random_finset(rng, -6, 6, 4)
        K = _random_finset(rng, -6, 6, 4)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        expected = FinSet()
        if a % 2:
            expected = expected ^ J
        if b % 2:
            expected = expected ^ K
        if theta_map([(J, a), (K, b)]) != PicElement(1, 0, expected):
            return {"J": J.to_json(), "a": a, "K": K.to_json(), "b": b}
    for B in range(1, 5):
        for J in _subsets(range(-B, B + 1), 2):
            if theta_map({J: 1}) != PicElement(1, 0, J):
                return {"J": J.to_json()}
    return None
