"""The rings S(J, n): idealizers inside generalized Weyl algebras.

For an admissible pair write fbar for the product of (z+i) over the residues
NOT in J.  The ambient ring W is generated by X, Y, z with

    Xz - zX = nX     Yz - zY = -nY     XY = fbar     YX = fbar(z - n)

and S(J, n) = k[z] + f_J W is the idealizer of f_J W.  Inside D the graded
pieces have closed forms (degree j of S means D-degree n*j):

    j = 0:   k[z]
    j < 0:   f_J y^{-nj} k[z]
    j > 0:   f_J (fbar y^{-n})^j k[z]
             = f_J(z) fbar(z) fbar(z+n) ... fbar(z+n(j-1)) y^{-nj} k[z]

so the closed form builds each coefficient from its roots: J, and for j > 0
every 0 <= t < nj with t mod n not in J, read off range(nj) through the
residue mask of [0, n) cycled along it.

Each piece, and each side of W's relations in D, is a monomial h(z) y^p of
D, held as (root map, p) with the root map {t: e} of h = prod (z+t)^e.  One
block of this module, _times, _product_lands, _power and _x_power, is their
arithmetic, on those bare tuples.  Since y^p h(z) = h(z - p) y^p,

    h_a y^{p_a} h_b y^{p_b} = h_a(z) h_b(z - p_a) y^{p_a + p_b}

moves root t of h_b to t - p_a.  Since xy = z, x = z y^{-1}, and

    x^d = z (z+1) ... (z+d-1) y^{-d}                 for d >= 0,
    x^d = ((z-1) (z-2) ... (z+d))^{-1} y^{-d}         for d < 0.

The independent oracle rebuilds each piece from the twisted endomorphism
construction with F = S^n iota_J and P = A.  M(j) is the lattice iota_K A,
where K is the involution set of F^j moved past its shift: the union of the
J + n i over i = 1..j when j > 0 and over i = 0, -1, ..., j+1 when j < 0.
When j > 0 it is scaled by f_K^{-1}, the product of the (z+k)^{-1} over K.
The piece is its degree-nj generator g x^{nj}; the lattice layer hands g
over as a root map, and the oracle multiplies it by x^{nj} as monomials.
The sweep compares the two paths' root maps ({root: exponent}, p), zero
exponents dropped.  A returned piece keeps its root map, so two of them
compare by their maps, and it is multiplied out, once and with no gcd, only
when its coefficients are read, as when it is printed.  The two paths share
no code beyond raw arithmetic.

verify_ring_closure checks closure on the closed form's root maps, walking
only the pairs (i, j) with |i|, |j|, |i + j| <= window, each once, and
verify_gwa_embedding checks W's relations, x^n and x^{-n} x^n = 1, both on
monomials with no gcd; the tests keep their products in D as the reference.
simplicity_root_test reads its roots back off fbar as _fbar builds it, by
RationalPoly.root_map, and builds no f_J.

Every entry point checks its pair once, by zfin._admissible (J any iterable of
integers; TypeError for a non-int n, ValueError for n < 1 or J outside [0, n)),
each piece degree j by zfin._check_int, and a window by zfin._check_positive.
zfin._check_size refuses a set past zfin.POWER_MAX_SET_SIZE before it is
built: fbar's n residues (complement), the n j roots of closed-form piece
j > 0, and the n |j| roots of the oracle's x^{nj}; a pair itself takes any n.
Every product it returns is built from its root map by RationalPoly._of_roots,
which refuses one too long to print (skew.MAX_PRINTED_DIGITS) when it builds,
multiplies nothing out until the coefficients are read, and skips from_roots'
check of maps built from ints.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, cycle

from .zfin import FinSet, _admissible, _check_int, _check_positive, _check_size
from .skew import RationalPoly
from .lattices import iota_lattice


@dataclass(frozen=True)
class GWAPresentation:
    """Generators-and-relations data for W plus the idealizer factor."""

    n: int
    f: RationalPoly
    idealizer_factor: RationalPoly
    relations: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "f": self.f.to_json(),
            "fJ": self.idealizer_factor.to_json(),
            "relations": list(self.relations),
        }


@dataclass
class RingPieces:
    """Degreewise description: piece j is coefficient(z) y^power k[z]."""

    n: int
    pieces: dict[int, tuple[RationalPoly, int]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            str(j): {"h": h.to_json(), "p": p}
            for j, (h, p) in sorted(self.pieces.items())
        }


def complement(J: FinSet, n: int) -> FinSet:
    _check_size(n, "n = {} would build a residue set", n)
    return FinSet._of(frozenset(range(n)).difference(J._elements))


def _fbar(J: FinSet, n: int) -> RationalPoly:
    """fbar of S(J, n) for a validated pair: the product of (z+t) over [0, n) minus J."""
    return RationalPoly._of_roots(dict.fromkeys(complement(J, n), 1))


def factors(J, n: int) -> tuple[RationalPoly, RationalPoly]:
    """(f, f_J) of S(J, n): the products of (z+t) over [0, n) minus J and over J.

    Raises ValueError when either could not be printed (skew.MAX_PRINTED_DIGITS).
    """
    J = _admissible(J, n)
    return _fbar(J, n), RationalPoly._of_roots(dict.fromkeys(J, 1))


def present(J, n: int) -> GWAPresentation:
    """The presentation of S(J, n); f never has repeated or n-congruent roots.

    Raises ValueError when a product could not be printed (skew.MAX_PRINTED_DIGITS).
    """
    fbar, f_J = factors(J, n)
    relations = (
        f"X z - z X = {n} X",
        f"Y z - z Y = -{n} Y",
        f"X Y = {fbar}",
        f"Y X = {RationalPoly._of_roots({t - n: 1 for t in fbar._roots})}",
    )
    return GWAPresentation(n=n, f=fbar, idealizer_factor=f_J, relations=relations)


def _closed_form_roots(J: FinSet, n: int, j: int) -> tuple[dict[int, int], int]:
    """Piece j as ({t: 1 for each root t of h}, p); the roots are distinct."""
    if j == 0:
        return {}, 0
    if j < 0:
        return dict.fromkeys(J, 1), -n * j
    _check_size(n * j, "piece {} at n = {} would build a root set", j, n)
    # the t < nj whose residue is not in J, as a cycled mask over range(n * j)
    rest = compress(range(n * j), cycle([t not in J for t in range(n)]))
    return dict.fromkeys(chain(J, rest), 1), -n * j


def graded_piece_closed_form(J, n: int, j: int) -> tuple[RationalPoly, int]:
    """Piece j of S(J, n) as (h, p) with the piece equal to h(z) y^p k[z]."""
    _check_int(j, "piece degree j must be an integer")
    exps, p = _closed_form_roots(_admissible(J, n), n, j)
    return (RationalPoly._of_roots(exps), p)


def _oracle_roots(J: FinSet, n: int, j: int) -> tuple[dict[int, int], int]:
    """Piece j as ({root: exponent} of h, p), zero exponents dropped, read off M(j)."""
    _check_size(n * abs(j), "the oracle's piece {} at n = {} would build a root set", j, n)
    steps = range(1, j + 1) if j > 0 else range(j + 1, 1)
    K = FinSet._of(frozenset(t + n * i for i in steps for t in J._elements))
    L = iota_lattice(K)
    if j > 0:
        L = L._scaled(dict.fromkeys(K._elements, -1))
    d = n * j
    return _times((L._generator_roots(d), 0), _x_power(d))


def twisted_endo_piece_oracle(J, n: int, j: int) -> tuple[RationalPoly, int]:
    """Piece j recomputed through the twisted endomorphism lattice M(j).

    M(j) is iota_K A, with K the involution set of (S^n iota_J)^j moved past
    its shift, the union of J+n, ..., J+nj (j positive) or of J, J-n, ...,
    J+(j+1)n (j negative), scaled by f_K^{-1} when j > 0.  The involutions
    sit at distinct roots, so they commute.  The piece is the monic generator
    g of the degree-nj component, as the monomial g x^{nj}.
    """
    _check_int(j, "piece degree j must be an integer")
    exps, p = _oracle_roots(_admissible(J, n), n, j)
    return (RationalPoly._of_roots(exps), p)


def ring_pieces(J, n: int, j_min: int, j_max: int, oracle: bool = False) -> RingPieces:
    """Table of pieces over a degree range, by closed form or by the oracle.

    Pieces are built, each checked against skew.MAX_PRINTED_DIGITS, from the top
    degree down, since piece j >= 1 holds the factors of every lower piece and one
    with j <= 0 at most J's; so a table that could not be printed raises
    ValueError before any piece is built.
    """
    J = _admissible(J, n)
    _check_int(j_min, "piece degree j_min must be an integer")
    _check_int(j_max, "piece degree j_max must be an integer")
    find = _oracle_roots if oracle else _closed_form_roots
    found = ((j, find(J, n, j)) for j in range(j_max, j_min - 1, -1))
    pieces = {j: (RationalPoly._of_roots(exps), p) for j, (exps, p) in found}
    return RingPieces(n=n, pieces=dict(sorted(pieces.items())))


# --- monomials h(z) y^p of D as (root map, p); the module docstring states the rules ---


def _times(a, b) -> tuple[dict[int, int], int]:
    """The product a b of two monomials; with no zero exponent in a or b, none in a b."""
    (h_a, p_a), (h_b, p_b) = a, b
    h = dict(h_a)
    for t, e in h_b.items():
        t -= p_a
        e += h.pop(t, 0)
        if e:
            h[t] = e
    return h, p_a + p_b


def _product_lands(a, b, target) -> bool:
    """The product a b lies in h y^p k[z] for target = (h, p).

    It is _times(a, b) followed by a comparison: the product has target's y-power
    and, at each root of target's h, at least its exponent there.  The two are
    fused here so that no root map is built, and the first shortfall answers.
    """
    (h_a, p_a), (h_b, p_b), (h, p) = a, b, target
    if p_a + p_b != p:
        return False
    get_a, get_b = h_a.get, h_b.get
    for t, e in h.items():
        if get_a(t, 0) + get_b(t + p_a, 0) < e:
            return False
    return True


def _power(a, k: int) -> tuple[dict[int, int], int]:
    """a^k for k >= 1, on (root map, p), by repeated squaring through _times."""
    if k == 1:
        return a
    half = _power(_times(a, a), k // 2)
    return _times(half, a) if k % 2 else half


def _x_power(d: int) -> tuple[dict[int, int], int]:
    """x^d: exponent 1 at the roots 0..d-1 when d >= 0, and -1 at the roots d..-1 when d < 0."""
    if d >= 0:
        return dict.fromkeys(range(d), 1), -d
    return dict.fromkeys(range(d, 0), -1), -d


# verify_ring_closure refuses a check whose work passes this bound.  The work,
# (2w+1)^2 (|J| + (n - |J|) w), is what its pair loop does: about (2w+1)^2
# _product_lands calls, each walking at most the |J| + (n - |J|) w roots of the
# top piece.  Median of 7 in-process runs, 2 CPUs, Python 3.11: J = {0} at n = 1,
# one root per call, is the slowest per unit, and its largest accepted window,
# 499 (998001 units), takes 0.41 s, the slowest accepted `ring verify`; J = {},
# n = 1, window 62 (968750 units) takes 0.02 s.  At window 1 the work is 9 n, so
# n <= 111111, where `ring verify`, with the embedding's x^n, takes 0.2 s.
RING_CLOSURE_MAX_WORK = 10**6


def verify_ring_closure(J, n: int, window: int) -> bool:
    """Products of piece generators land in the right pieces, checked on root exponents.

    For |i|, |j|, |i + j| <= window the product of the generators of pieces i
    and j must lie in piece i + j, by _product_lands on their monomials; no
    element of D is built.  Since each piece is a single cyclic module
    h y^p k[z], closure on the generators implies closure of all products.
    Raises ValueError, before any product is checked, when
    (2 window + 1)^2 (|J| + (n - |J|) window) passes RING_CLOSURE_MAX_WORK.
    """
    J = _admissible(J, n)
    _check_positive(window, "window must be a positive integer")
    work = (2 * window + 1) ** 2 * (len(J) + (n - len(J)) * window)
    if work > RING_CLOSURE_MAX_WORK:
        raise ValueError(
            f"ring closure at n = {n}, window = {window} would take (2w+1)^2 "
            f"(|J| + (n-|J|) w) = {work} units of work, over the limit "
            f"RING_CLOSURE_MAX_WORK = {RING_CLOSURE_MAX_WORK}"
        )
    # pieces[i] is piece i - w; k's range keeps the target index i + k - w in [0, 2w]
    w = window
    pieces = [_closed_form_roots(J, n, j) for j in range(-w, w + 1)]
    for i, a in enumerate(pieces):
        for k in range(max(0, w - i), min(2 * w, 3 * w - i) + 1):
            if not _product_lands(a, pieces[k], pieces[i + k - w]):
                return False
    return True


def verify_gwa_embedding(J, n: int) -> bool:
    """X = fbar y^{-n}, Y = y^n and z in D satisfy Xz = (z+n)X, Yz = (z-n)Y, XY = fbar
    and YX = fbar(z-n); x^n is _x_power(n), and _x_power(-n) x^n = 1.

    Each side is a monomial, multiplied by _times: fbar's roots are
    complement(J, n), and x is z y^{-1}.  x^n is taken by repeated squaring, in
    about 2 log2 n products, so the last two checks prove both of _x_power's
    branches, which the oracle relies on.
    """
    fbar = dict.fromkeys(complement(_admissible(J, n), n), 1)
    z = ({0: 1}, 0)
    X = (fbar, -n)
    Y = ({}, n)
    x_n = _power(({0: 1}, -1), n)
    return (
        _times(X, z) == _times(({n: 1}, 0), X)
        and _times(Y, z) == _times(({-n: 1}, 0), Y)
        and _times(X, Y) == (fbar, 0)
        and _times(Y, X) == ({t - n: 1 for t in fbar}, 0)
        and x_n == _x_power(n)
        and _times(_x_power(-n), x_n) == ({}, 0)
    )


def simplicity_root_test(J, n: int) -> bool:
    """The GWA parameter has no repeated roots and no two roots congruent mod n.

    The roots are read back off the fbar that _fbar multiplies out, by
    RationalPoly.root_map.
    """
    roots = _fbar(_admissible(J, n), n).root_map()
    return set(roots.values()) <= {1} and len({t % n for t in roots}) == len(roots)
