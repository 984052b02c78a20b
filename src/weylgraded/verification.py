"""Every invariant sweep, registered once; ``weylgraded verify`` and pytest run them.

A check is a generator registered with ``@register(suite, name, cases)``, where
``cases`` describes its cases in words.  It takes a ``random.Random`` (which a
deterministic sweep ignores) and for each case yields ``(inputs, holds)``:
``inputs`` maps names to the case's raw values (``FinSet``, ``PicElement``,
ints, ...) and ``holds`` says whether the property held there.  ``run_check``
is the one runner: it seeds a fresh ``Random`` from the run's seed and the
check's name, so the cases of a check do not depend on which other checks
ran; it counts and times the cases, stops at the first that does not hold and
turns its inputs into JSON (``to_json`` where a value has one), and records an
exception as the check's failure, naming the case it was building and the
ints and ``to_json`` values bound in the check's frame.  A check that yields
no case has checked nothing and fails.  Registering only stores the function;
no sweep runs at import.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple

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
from .classify import canonical_admissible, same_morita_class
from . import gwa
from .ktheory import (
    ProjectiveSum,
    iso_test,
    k0_class,
    normalize_sum,
    stably_free_witness,
    theta_map,
)


Cases = Iterator[tuple[dict[str, object], bool]]


class Check(NamedTuple):
    """One registered property of one suite."""

    suite: str
    name: str
    cases: str
    fn: Callable[[random.Random], Cases]


class CheckResult(NamedTuple):
    name: str
    cases: str
    failure: object  # the first failing case's inputs as JSON data, None when none failed
    raised: str | None = None  # "<type>: <message> (in case <k>, locals {...})" when it raised
    count: int = 0  # cases run, the failing one included
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failure is None and self.raised is None and self.count > 0


SUITES: dict[str, list[Check]] = {}


def register(suite: str, name: str, cases: str = ""):
    """Add the decorated generator to ``SUITES[suite]``."""

    def add(fn: Callable[[random.Random], Cases]) -> Callable[[random.Random], Cases]:
        SUITES.setdefault(suite, []).append(Check(suite, name, cases, fn))
        return fn

    return add


def run_check(check: Check, seed: int = 0) -> CheckResult:
    """Run ``check`` up to its first case that does not hold, counting and timing the cases."""
    count, failure, raised = 0, None, None
    start = time.perf_counter()
    try:
        for inputs, holds in check.fn(random.Random(f"{seed}:{check.name}")):
            count += 1
            if not holds:
                failure = {k: v.to_json() if hasattr(v, "to_json") else v for k, v in inputs.items()}
                break
    except Exception as exc:
        raised = f"{type(exc).__name__}: {exc} (in case {count + 1}, locals {_check_locals(exc)})"
    seconds = time.perf_counter() - start
    return CheckResult(check.name, check.cases, failure, raised, count, seconds)


def _check_locals(exc: Exception) -> str:
    """The ints and ``to_json`` values bound in the check's frame when ``exc`` left it.

    ``run_check``'s own frame heads the traceback; the check's frame is next,
    whether the check is a generator or a plain function that returns its cases.
    """
    below = exc.__traceback__.tb_next if exc.__traceback__ else None
    names = below.tb_frame.f_locals if below else {}
    found = {
        k: v.to_json() if hasattr(v, "to_json") else v
        for k, v in names.items()
        if isinstance(v, int) or hasattr(v, "to_json")
    }
    return json.dumps(found, sort_keys=True)


def run_suites(names: Iterable[str], seed: int = 0) -> tuple[int, int, list[CheckResult]]:
    """Run the named suites; returns (passed, failed, results).

    A check that raises fails with the exception recorded, and the run goes on.
    """
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
        results.extend(run_check(check, seed) for check in SUITES[name])
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
def _boundary_additive(rng: random.Random) -> Cases:
    for _ in range(300):
        n = rng.randint(1, 6)
        I = _random_finset(rng, -10, 10, 5)
        J = _random_finset(rng, -10, 10, 5)
        yield {"I": I, "J": J, "n": n}, zfin.boundary(I ^ J, n) == zfin.boundary(I, n) ^ zfin.boundary(J, n)


@register("zfin", "inverse_boundary o boundary = id", "300 random (K, n)")
def _inverse_boundary_left_inverse(rng: random.Random) -> Cases:
    for _ in range(300):
        n = rng.randint(1, 6)
        K = _random_finset(rng, -10, 10, 5)
        yield {"K": K, "n": n}, zfin.inverse_boundary(zfin.boundary(K, n), n) == K


@register("zfin", "image of boundary = even slice parity", "300 random (J, n)")
def _boundary_image(rng: random.Random) -> Cases:
    for _ in range(300):
        n = rng.randint(1, 6)
        J = _random_finset(rng, -10, 10, 5)
        even = all(len(zfin.slice(J, n, i)) % 2 == 0 for i in range(n))
        try:
            preimage = zfin.inverse_boundary(J, n)
            holds = even and zfin.boundary(preimage, n) == J
        except NotInImageError:
            holds = not even
        yield {"J": J, "n": n}, holds


@register("zfin", "shift re-encoding is a Z-action", "300 random (J, s, t)")
def _absorb_shift_action(rng: random.Random) -> Cases:
    for _ in range(300):
        J = _random_finset(rng, -10, 10, 5)
        s, t = rng.randint(-8, 8), rng.randint(-8, 8)
        twice = zfin.absorb_shift(zfin.absorb_shift(J, s), t)
        yield {"J": J, "s": s, "t": t}, zfin.absorb_shift(J, 0) == J and twice == zfin.absorb_shift(J, s + t)


@register("zfin", "necklace enumeration matches counting formula", "n <= 18")
def _necklace_counts(rng: random.Random) -> Cases:
    for n in range(1, 19):
        yield {"n": n}, len(zfin.necklace_enumerate(n)) == zfin.necklace_count(n)


@register("zfin", "necklace canonical idempotent + rotation-invariant", "200 random (J, n, r)")
def _necklace_canonical(rng: random.Random) -> Cases:
    for _ in range(200):
        n = rng.randint(1, 8)
        J = FinSet(rng.sample(range(n), rng.randint(0, n)))
        r = rng.randint(-12, 12)
        c = zfin.necklace_canonical(AdmissiblePair(J, n))
        rotated = AdmissiblePair(FinSet((j + r) % n for j in J), n)
        holds = zfin.necklace_canonical(c.representative) == c == zfin.necklace_canonical(rotated)
        yield {"pair": AdmissiblePair(J, n), "r": r}, holds


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
def _commutator(rng: random.Random) -> Cases:
    x, yy = SkewElement.x_power(1), SkewElement.y_power(1)
    commutator = x * yy - yy * x
    yield {"commutator": commutator}, commutator == SkewElement.one()
    # z as a RationalPoly operand is the degree-0 element of D, so it is twisted past x and y
    z = RationalPoly.z()
    yield {"x z": x * z}, x * z == (z + 1) * x
    yield {"y z": yy * z}, yy * z == (z - 1) * yy


@register("skew", "x^m y^m = z(z+1)...(z+m-1) for m <= 6")
def _rising_products(rng: random.Random) -> Cases:
    for m in range(1, 7):
        lhs = SkewElement.x_power(1) ** m * SkewElement.y_power(1) ** m
        yield {"m": m}, lhs == SkewElement.from_poly(RationalPoly.rising(m))


@register("skew", "associativity + distributivity", "200 random triples")
def _ring_axioms(rng: random.Random) -> Cases:
    for _ in range(200):
        u, v, w = _random_skew(rng), _random_skew(rng), _random_skew(rng)
        yield {"u": u, "v": v, "w": w}, (
            (u * v) * w == u * (v * w) and u * (v + w) == u * v + u * w and (u + v) * w == u * w + v * w
        )


@register("skew", "Weyl membership closed under products", "200 random pairs")
def _weyl_closed(rng: random.Random) -> Cases:
    for _ in range(200):
        u, v = _random_weyl(rng), _random_weyl(rng)
        yield {"u": u, "v": v}, weyl_membership(u) and weyl_membership(v) and weyl_membership(u * v)


# --- lattices --------------------------------------------------------------


def _iota_family() -> list[tuple[FinSet, int]]:
    return [(J, s) for J in _subsets(range(-3, 4), 3) for s in range(-2, 3)]


@register(
    "lattices", "iota_J A equals the intersection of the iota_i A", "J in [-2,2], |J| <= 3"
)
def _intersection_fold(rng: random.Random) -> Cases:
    for J in _subsets(range(-2, 3), 3):
        folded = GradedLattice.free()
        for i in sorted(J):
            folded = lattice_intersect(folded, iota_lattice(FinSet([i])))
        yield {"J": J}, folded == iota_lattice(J)


@register(
    "lattices",
    "duality dichotomy + DSet consistency",
    "J in [-3,3], |J| <= 3, s in [-2,2], j in [-5,5]",
)
def _duality_dichotomy(rng: random.Random) -> Cases:
    for J, s in _iota_family():
        L = iota_lattice(J, s)
        yield {"J": J, "s": s}, is_A_module(L)
        E = to_dset(J, s)
        for j in range(-5, 6):
            yield {"J": J, "s": s, "j": j}, (simple_factor(L, j).kind == "X") == (j in E)


@register(
    "lattices",
    "lattice factor reading equals the DSet formula",
    "J in [-3,3], |J| <= 3, s in [-2,2]",
)
def _lattice_reading(rng: random.Random) -> Cases:
    for J, s in _iota_family():
        yield {"J": J, "s": s}, lattice_dset(iota_lattice(J, s)) == to_dset(J, s)


@register("lattices", "Schanuel cokernel identity", "J, K in [0,3]")
def _schanuel(rng: random.Random) -> Cases:
    subs = _subsets(range(4))
    for J in subs:
        for K in subs:
            left = cokernel_support(iota_lattice(J | K), iota_lattice(K))
            yield {"J": J, "K": K}, left == cokernel_support(iota_lattice(J), iota_lattice(J & K))


@register("lattices", "iota_0 squared is multiplication by z", "J in [-2,2], |J| <= 2")
def _iota_squared(rng: random.Random) -> Cases:
    for J in _subsets(range(-2, 3), 2):
        L = iota_lattice(J)
        yield {"J": J}, L.involute(FinSet([0])).involute(FinSet([0])) == L.scaled({0: 1})


@register(
    "lattices",
    "iota_J A<s> equals free().involute(J).shifted(s)",
    "J in [-3,3], |J| <= 3, s in [-4,4]",
)
def _iota_closed_form(rng: random.Random) -> Cases:
    for J in _subsets(range(-3, 4), 3):
        involuted = GradedLattice.free().involute(J)
        for s in range(-4, 5):
            # equal line maps: shifted drops the lines equal to A's, so the closed form stores none
            yield {"J": J, "s": s}, iota_lattice(J, s) == involuted.shifted(s)


# --- picard ----------------------------------------------------------------


def _random_pic(rng: random.Random, b_bound: int = 10, j_bound: int = 10) -> PicElement:
    return PicElement(
        rng.choice([1, -1]),
        rng.randint(-b_bound, b_bound),
        _random_finset(rng, -j_bound, j_bound, 4),
    )


@register("picard", "group axioms", "10000 random triples")
def _group_axioms(rng: random.Random) -> Cases:
    e = identity()
    for _ in range(10_000):
        F, G, H = (_random_pic(rng) for _ in range(3))
        yield {"F": F, "G": G, "H": H}, (
            compose(compose(F, G), H) == compose(F, compose(G, H))
            and compose(F, inverse(F)) == e == compose(inverse(F), F)
            and compose(F, e) == F == compose(e, F)
        )


@register("picard", "omega squared = e")
def _omega_square(rng: random.Random) -> Cases:
    square = compose(omega(), omega())
    yield {"square": square}, square == identity()


@register("picard", "odd squares are involutions; fourth powers trivial", "500 random odd")
def _odd_elements(rng: random.Random) -> Cases:
    for _ in range(500):
        F = _random_pic(rng)
        F = PicElement(-1, F.b, F.J)
        expected_J = zfin.affine_image(F.J, 1, F.b) ^ zfin.affine_image(F.J, -1, -1)
        yield {"F": F}, compose(F, F) == PicElement(1, 0, expected_J) and power(F, 4) == identity()


@register("picard", "power equals k-fold composition", "300 random (F, k), |k| <= 40")
def _power_by_composition(rng: random.Random) -> Cases:
    for _ in range(300):
        F, k = _random_pic(rng), rng.randint(-40, 40)
        G, want = F if k >= 0 else inverse(F), identity()
        for _ in range(abs(k)):
            want = compose(G, want)
        yield {"F": F, "k": k}, power(F, k) == want


@register("picard", "sign_rank: surjective homomorphism onto D-infinity", "2000 random pairs")
def _sign_rank(rng: random.Random) -> Cases:
    for _ in range(2000):
        F, G = _random_pic(rng), _random_pic(rng)
        (a1, r1), (a2, r2) = sign_rank(F), sign_rank(G)
        yield {"F": F, "G": G}, sign_rank(compose(F, G)) == (a1 * a2, a1 * r2 + r1)
    for a in (1, -1):
        for r in range(-6, 7):
            yield {"a": a, "r": r}, sign_rank(PicElement(a, r + (1 if a == -1 else 0), FinSet())) == (a, r)


@register("picard", "kernel of sign_rank is the involution group FinSet", "1000 random (J, K, G)")
def _sign_rank_kernel(rng: random.Random) -> Cases:
    for _ in range(1000):
        J = _random_finset(rng, -10, 10, 4)
        K = _random_finset(rng, -10, 10, 4)
        F = PicElement(1, 0, J)
        G = _random_pic(rng)
        yield {"J": J, "K": K, "G": G}, (
            sign_rank(F) == (1, 0)
            and compose(F, PicElement(1, 0, K)) == PicElement(1, 0, J ^ K)
            and (sign_rank(G) == (1, 0)) == (G.a == 1 and G.b == 0)
        )


_SIMPLES = (
    [SimpleLabel.X(n) for n in range(-4, 5)]
    + [SimpleLabel.Y(n) for n in range(-4, 5)]
    + [SimpleLabel.M(Fraction(1, 2)), SimpleLabel.M(Fraction(-3, 2))]
)


@register("picard", "actions are group actions", "500 random pairs")
def _group_actions(rng: random.Random) -> Cases:
    for _ in range(500):
        F, G = _random_pic(rng), _random_pic(rng)
        E = DSet(_random_finset(rng, -5, 5, 4))
        yield {"F": F, "G": G, "E": E}, act_on_dset(compose(F, G), E) == act_on_dset(F, act_on_dset(G, E))
        for S in _SIMPLES:
            same = act_on_simple(compose(F, G), S) == act_on_simple(F, act_on_simple(G, S))
            yield {"F": F, "G": G, "simple": str(S)}, same


@register("actions", "DSet action matches explicit lattices", "a=+1, |b| <= 2, J in [-2,2]")
def _dset_action_oracle(rng: random.Random) -> Cases:
    free_dset = DSet(FinSet())
    for b in range(-2, 3):
        for J in _subsets(range(-2, 3)):
            yield {"b": b, "J": J}, act_on_dset(PicElement(1, b, J), free_dset) == lattice_dset(iota_lattice(J, b))


@register("actions", "(S iota_0)^n A = iota_0 iota_n A", "n = 1..5")
def _iterated_shift_involution(rng: random.Random) -> Cases:
    F = compose(picard.shift(1), iota(FinSet([0])))
    for n in range(1, 6):
        lhs = act_on_dset(power(F, n), DSet(FinSet()))
        yield {"n": n}, lhs == to_dset(FinSet([0, n])) == lattice_dset(iota_lattice(FinSet([0, n])))


# --- classification ---------------------------------------------------------


def _random_generative(rng: random.Random) -> PicElement:
    b = rng.choice([v for v in range(-4, 5) if v])
    return PicElement(1, b, _random_finset(rng, -4, 4, 4))


def _conjugate(g: PicElement, F: PicElement) -> PicElement:
    return compose(g, compose(F, inverse(g)))


@register("classify", "admissible elements are their own canonical form", "n <= 4")
def _admissible_fixed_points(rng: random.Random) -> Cases:
    for pair in _admissible_pairs(4):
        F = PicElement(1, pair.n, pair.J)
        got, g = canonical_admissible(F)
        yield {"pair": pair}, got == pair and _conjugate(g, F) == F


@register("classify", "canonical conjugator verifies exactly", "500 random generative")
def _canonical_conjugator(rng: random.Random) -> Cases:
    for _ in range(500):
        F = _random_generative(rng)
        pair, g = canonical_admissible(F)
        yield {"F": F}, _conjugate(g, F) == PicElement(1, pair.n, pair.J) and pair.n == abs(sign_rank(F)[1])


@register("classify", "Morita class is conjugation-invariant", "500 random conjugations")
def _conjugation_invariant(rng: random.Random) -> Cases:
    for _ in range(500):
        F = _random_generative(rng)
        g = _random_pic(rng, 4, 4)
        yield {"F": F, "g": g}, same_morita_class(F, _conjugate(g, F))


@register("classify", "class count at rank n equals the necklace count", "n <= 8")
def _class_counts(rng: random.Random) -> Cases:
    for n in range(1, 9):
        classes = {
            zfin.necklace_canonical(canonical_admissible(PicElement(1, n, J))[0])
            for J in _subsets(range(n))
        }
        yield {"n": n}, len(classes) == zfin.necklace_count(n)


@register("classify", "same_morita_class = necklace-type equality", "all admissible pairs, n <= 4")
def _same_class_is_rotation(rng: random.Random) -> Cases:
    pairs = _admissible_pairs(4)
    for p in pairs:
        for q in pairs:
            F, G = PicElement(1, p.n, p.J), PicElement(1, q.n, q.J)
            rotation_equal = p.n == q.n and any(
                FinSet((j + r) % p.n for j in p.J) == q.J for r in range(p.n)
            )
            yield {"p": p, "q": q}, same_morita_class(F, G) == rotation_equal


# --- rings -------------------------------------------------------------------


@register(
    "rings",
    "lattice oracle reproduces closed-form pieces",
    "root maps, n <= 6, |j| <= 8; S({0},1), S({},2), S({0,2},3), S({1},4), "
    "S({0,3,4},5) at |j| <= 40; S({0},1) at j = +-200, +-2000, +-20000; "
    "2000 random, n <= 8, |j| <= 16",
)
def _oracle_matches_closed_form(rng: random.Random) -> Cases:
    cases = [(pair, j) for pair in _admissible_pairs(6) for j in range(-8, 9)]
    for J, n in [([0], 1), ([], 2), ([0, 2], 3), ([1], 4), ([0, 3, 4], 5)]:
        cases += [(AdmissiblePair(FinSet(J), n), j) for j in range(-40, 41)]
    cases += [(AdmissiblePair(FinSet([0]), 1), j) for j in (-200, 200, -2000, 2000, -20000, 20000)]
    wide = _admissible_pairs(8)
    cases += [(rng.choice(wide), rng.randint(-16, 16)) for _ in range(2000)]
    for pair, j in cases:
        oracle = gwa._oracle_roots(pair.J, pair.n, j)
        yield {"pair": pair, "j": j}, oracle == gwa._closed_form_roots(pair.J, pair.n, j)


@register("rings", "idealizer ring pieces are z y^-j k[z] off degree 0", "S({0},1), |j| <= 4")
def _idealizer_pieces(rng: random.Random) -> Cases:
    for j in range(-4, 5):
        expected = (RationalPoly.one(), 0) if j == 0 else (RationalPoly.z(), -j)
        yield {"j": j}, gwa.graded_piece_closed_form(FinSet([0]), 1, j) == expected


@register("rings", "Veronese pieces equal the ambient graded components", "S({},2), |j| <= 4")
def _veronese_pieces(rng: random.Random) -> Cases:
    for j in range(-4, 5):
        got = gwa.graded_piece_closed_form(FinSet(), 2, j)
        h = RationalPoly.rising(2 * j) if j >= 0 else RationalPoly.one()
        yield {"j": j}, got == (h, -2 * j)


@register("rings", "ring closure, GWA relations, root separation", "all admissible n <= 6, closure window 5")
def _ring_structure(rng: random.Random) -> Cases:
    for pair in _admissible_pairs(6):
        yield {"pair": pair}, (
            gwa.verify_ring_closure(pair.J, pair.n, 5)
            and gwa.verify_gwa_embedding(pair.J, pair.n)
            and gwa.simplicity_root_test(pair.J, pair.n)
        )


# --- k-theory ----------------------------------------------------------------


def _random_pairs(rng: random.Random) -> list[tuple[FinSet, int]]:
    parts = []
    for _ in range(rng.randint(0, 4)):
        parts.append((_random_finset(rng, -4, 6, 3), rng.randint(-3, 3)))
    return parts


def _random_sum(rng: random.Random) -> ProjectiveSum:
    return ProjectiveSum.of(*_random_pairs(rng))


@register("ktheory", "stably-free witness for {1,3}", "adds [3,1], result [4,2,0]")
def _witness_example(rng: random.Random) -> Cases:
    adds, result = stably_free_witness(FinSet([1, 3]))
    left = ProjectiveSum.of(FinSet([1, 3]), *[(FinSet(), l) for l in adds])
    right = ProjectiveSum.of(*[(FinSet(), m) for m in result])
    yield {"adds": adds, "result": result}, adds == [3, 1] and result == [4, 2, 0] and iso_test(left, right)


@register("ktheory", "no single free complement for iota_{1,3}A within bound 8", "17^3 sweep")
def _no_single_complement(rng: random.Random) -> Cases:
    P = (FinSet([1, 3]), 0)
    free = FinSet()
    for l in range(-8, 9):
        for m in range(-8, 9):
            for n in range(-8, 9):
                same = iso_test(ProjectiveSum.of(P, (free, l)), ProjectiveSum.of((free, m), (free, n)))
                yield {"l": l, "m": m, "n": n}, not same


def _counts(summands: Iterable[tuple[FinSet, int]]) -> dict[int, int]:
    """How often each point lies in the shift-absorbed sets of the (J, s) summands."""
    counts: dict[int, int] = {}
    for J, s in summands:
        for t in zfin.absorb_shift(J, s):
            counts[t] = counts.get(t, 0) + 1
    return counts


@register("ktheory", "normalization: idempotent chain, counts preserved", "1000 random sums")
def _normalization(rng: random.Random) -> Cases:
    for _ in range(1000):
        pairs = _random_pairs(rng)  # S's summands are the constructor's output, so count these
        S = ProjectiveSum.of(*pairs)
        N = normalize_sum(S)
        chain = [J for J, _ in N.summands]
        yield {"S": S}, (
            normalize_sum(N) == N
            and all(a.issubset(b) for a, b in zip(chain, chain[1:]))
            and _counts(pairs) == _counts(N.summands)
        )


@register("ktheory", "cancellation of common summands", "1000 random sums")
def _cancellation(rng: random.Random) -> Cases:
    for _ in range(1000):
        P, Q1, Q2 = _random_sum(rng), _random_sum(rng), _random_sum(rng)
        lhs = iso_test(
            ProjectiveSum(P.summands + Q1.summands),
            ProjectiveSum(P.summands + Q2.summands),
        )
        yield {"P": P, "Q1": Q1, "Q2": Q2}, lhs == iso_test(Q1, Q2)


@register("ktheory", "K_0 class separates isomorphism classes", "500 random pairs")
def _k0_separates(rng: random.Random) -> Cases:
    for _ in range(500):
        S1, S2 = _random_sum(rng), _random_sum(rng)
        yield {"S1": S1, "S2": S2}, iso_test(S1, S2) == (k0_class(S1) == k0_class(S2))


@register(
    "ktheory",
    "theta: mod-2 homomorphism onto the involutions",
    "500 random two-term combos; every |J| <= 2 in [-4,4]",
)
def _theta(rng: random.Random) -> Cases:
    for _ in range(500):
        J = _random_finset(rng, -6, 6, 4)
        K = _random_finset(rng, -6, 6, 4)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        expected = FinSet()
        if a % 2:
            expected = expected ^ J
        if b % 2:
            expected = expected ^ K
        yield {"J": J, "a": a, "K": K, "b": b}, theta_map([(J, a), (K, b)]) == PicElement(1, 0, expected)
    for B in range(1, 5):
        for J in _subsets(range(-B, B + 1), 2):
            yield {"J": J}, theta_map({J: 1}) == PicElement(1, 0, J)
