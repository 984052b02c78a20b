"""Finite integer sets under exclusive-or, the boundary operator, and necklaces.

The finite subsets of Z form an abelian group of exponent 2 under symmetric
difference; everything downstream (involutions, conjugacy classes, K-theory
normal forms) is bookkeeping in this group.

A FinSet wraps a frozenset, and the library works on that frozenset whole:
images are ``map``s over it, and results built from known integers skip the
public constructor's type check through ``FinSet._of``.  Only printing,
serialization and the algorithms that need an order sort.  A necklace class
is canonicalized by Booth's least rotation (Inform. Process. Lett. 10, 1980)
of the cyclic sequence of gaps between consecutive elements, in time
O(|J| log |J|) whatever n is.

Each input rule has one home here, which every layer calls.  An integer is a
value of type exactly ``int``: ``_check_int`` refuses anything else, a bool (so
a JSON true or false) included, with TypeError, and ``FinSet(...)`` tests each
given element the same way.  ``_as_finset`` takes a set J as any iterable of
integers and passes a FinSet through, and ``_check_root_map`` a root map as
integers to integers.  ``_check_modulus`` wants a modulus n that is an integer
of at least 1 (else ValueError).  ``_admissible`` checks both and that J lies
inside [0, n), and returns J.  ``slice`` also wants its residue i in [0, n).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping


class NotInImageError(ValueError):
    """Requested preimage does not exist (some residue slice has odd size)."""


class FinSet:
    """Immutable finite set of integers; ``^`` is the group operation."""

    __slots__ = ("_elements",)

    def __init__(self, elements: Iterable[int] = ()) -> None:
        elements = tuple(elements)  # checked before a frozenset merges True into 1
        for e in elements:
            if type(e) is not int:
                raise TypeError(f"FinSet elements must be integers, got {e!r}")
        self._elements = frozenset(elements)

    @classmethod
    def _of(cls, elems: frozenset) -> "FinSet":
        """The set of ``elems``, which must already be integers: no check."""
        S = object.__new__(cls)
        S._elements = elems
        return S

    @property
    def elements(self) -> tuple[int, ...]:
        """Elements in strictly increasing order (canonical serialization)."""
        return tuple(sorted(self._elements))

    def __contains__(self, n: int) -> bool:
        return n in self._elements

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __bool__(self) -> bool:
        return bool(self._elements)

    def __xor__(self, other: "FinSet") -> "FinSet":
        return FinSet._of(self._elements ^ other._elements)

    def __and__(self, other: "FinSet") -> "FinSet":
        return FinSet._of(self._elements & other._elements)

    def __or__(self, other: "FinSet") -> "FinSet":
        return FinSet._of(self._elements | other._elements)

    def issubset(self, other: "FinSet") -> bool:
        return self._elements <= other._elements

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinSet) and self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return f"FinSet({{{', '.join(map(str, self.elements))}}})"

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"

    def to_json(self) -> list[int]:
        return list(self.elements)

    @classmethod
    def from_json(cls, data: Iterable[int]) -> "FinSet":
        return cls(data)


def _as_finset(J: FinSet | Iterable[int]) -> FinSet:
    """J itself when it is a FinSet, else FinSet(J), which checks each element."""
    return J if isinstance(J, FinSet) else FinSet(J)


def _check_int(x: object, rule: str) -> None:
    """Refuse x with TypeError, as ``f"{rule}, got {x!r}"``, unless its type is exactly int."""
    if type(x) is not int:
        raise TypeError(f"{rule}, got {x!r}")


def _check_root_map(exps: Mapping[int, int]) -> None:
    """Refuse, by _check_int, a root map {t: e} whose roots or exponents are not all ints."""
    for t, e in exps.items():
        _check_int(t, "a root map's roots must be integers")
        _check_int(e, "a root map's exponents must be integers")


def _check_modulus(n: int) -> None:
    """Refuse a modulus n that is not an integer (TypeError) or is less than 1 (ValueError)."""
    _check_int(n, "n must be a positive integer")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")


def _admissible(J: FinSet | Iterable[int], n: int) -> FinSet:
    """J as a FinSet, once (J, n) is checked admissible: n an int >= 1 and J inside [0, n)."""
    J = _as_finset(J)
    _check_modulus(n)
    elems = J._elements
    if elems and (min(elems) < 0 or max(elems) >= n):
        raise ValueError(f"J = {J} is not a subset of [0, {n})")
    return J


@dataclass(frozen=True, init=False)
class AdmissiblePair:
    """A set J of residues inside {0, ..., n-1} together with the modulus n."""

    J: FinSet
    n: int

    def __init__(self, J: FinSet | Iterable[int], n: int) -> None:
        # a frozen dataclass refuses setattr; its fields are set in __dict__
        self.__dict__.update(J=_admissible(J, n), n=n)

    @classmethod
    def _of(cls, J: FinSet, n: int) -> "AdmissiblePair":
        """The pair (J, n), which must already be admissible: no check."""
        p = object.__new__(cls)
        p.__dict__.update(J=J, n=n)
        return p

    def __str__(self) -> str:
        return f"({self.J}, {self.n})"

    def to_json(self) -> dict:
        return {"J": self.J.to_json(), "n": self.n}

    @classmethod
    def from_json(cls, data: dict) -> "AdmissiblePair":
        return cls(FinSet.from_json(data["J"]), data["n"])


@dataclass(frozen=True)
class NecklaceClass:
    """Rotation class of an admissible pair, held by its minimal representative."""

    representative: AdmissiblePair

    def __str__(self) -> str:
        return str(self.representative)

    def to_json(self) -> dict:
        return self.representative.to_json()


def affine_image(J: FinSet, scale: int, offset: int) -> FinSet:
    """Image of J under j -> scale*j + offset; scale must be a nonzero integer."""
    _check_int(scale, "scale must be an integer")
    _check_int(offset, "offset must be an integer")
    if scale == 0:
        raise ValueError("scale must be nonzero (the map would not be injective)")
    return FinSet._of(frozenset(_image(J, scale, offset)))


def _image(J: FinSet, scale: int, offset: int) -> Iterator[int]:
    elems = J._elements if scale == 1 else map(scale.__mul__, J._elements)
    return map(offset.__add__, elems)


def slice(J: FinSet | Iterable[int], n: int, i: int) -> FinSet:
    """The i-th residue slice {j : n*j + i in J}; i must be an int in [0, n)."""
    J = _as_finset(J)
    _check_modulus(n)
    _check_int(i, "residue i must be an integer")
    if not 0 <= i < n:
        raise ValueError(f"residue i must lie in [0, {n}), got {i}")
    return FinSet._of(frozenset((t - i) // n for t in J._elements if (t - i) % n == 0))


def boundary(J: FinSet | Iterable[int], n: int) -> FinSet:
    """The boundary J ^ (J - n)."""
    J = _as_finset(J)
    _check_modulus(n)
    return J ^ affine_image(J, 1, -n)


def inverse_boundary(J: FinSet | Iterable[int], n: int) -> FinSet:
    """The unique K with boundary(K, n) == J.

    Exists exactly when every residue slice of J has even size.  Built
    constructively from the runs of ``_boundary_runs``.
    """
    J = _as_finset(J)
    _check_modulus(n)
    return FinSet._of(frozenset(chain.from_iterable(_boundary_runs(J, n))))


def _boundary_runs(J: FinSet, n: int) -> list[range]:
    """The disjoint runs whose union is inverse_boundary(J, n), for n >= 1.

    Per residue, pair consecutive slice elements a < b and take the run
    {a+n, a+2n, ..., b}.  One pass over the sorted elements puts each in its
    residue's bucket, already sorted, so the cost is linear in |J| (after the
    sort), whatever n is; no run is expanded.  Raises NotInImageError when a
    residue slice has odd size.
    """
    buckets: dict[int, list[int]] = {}
    for t in sorted(J._elements):
        buckets.setdefault(t % n, []).append(t)
    odd = [i for i, s in buckets.items() if len(s) % 2]
    if odd:
        raise NotInImageError(
            f"slice {min(odd)} of {J} mod {n} has odd size; no boundary preimage exists"
        )
    return [range(a + n, b + n, n) for s in buckets.values() for a, b in zip(s[::2], s[1::2])]


def _delta_range(s: int) -> range:
    return range(0, s) if s >= 0 else range(s, 0)


def shift_delta(s: int) -> FinSet:
    """The interval whose involution realizes the shift by s on the free module.

    {0, ..., s-1} for s >= 0 and {s, ..., -1} for s < 0.
    """
    return FinSet._of(frozenset(_delta_range(s)))


def absorb_shift(J: FinSet, s: int) -> FinSet:
    """The K with iota_K A isomorphic to iota_J(A)<s>: (J + s) xor shift_delta(s)."""
    _check_int(s, "shift must be an integer")
    if not s:
        return J
    return FinSet._of(frozenset(map(s.__add__, J._elements)).symmetric_difference(_delta_range(s)))


def _least_rotation(s: list[int]) -> int:
    """Start of the lexicographically least rotation of s, by Booth's algorithm.

    Knuth-Morris-Pratt failure links over s + s keep the best start k so far;
    each mismatch that finds a smaller letter moves k past the compared
    prefix.  Linear time.
    """
    s = s + s
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != s[k + i + 1]:  # here i == -1
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def necklace_canonical(p: AdmissiblePair) -> NecklaceClass:
    """Rotation-minimal representative; equal classes <=> same necklace type.

    Minimality is lexicographic on the sorted tuple of residues.  Rotations
    only: necklaces may be turned but not flipped over.  A nonempty minimal
    rotation contains 0, so it starts at some element of J turned to 0; its
    tuple is then the prefix sums of the cyclic gap sequence read from that
    element, and tuples compare as their gap sequences do.  So the start is
    the least rotation of the gaps, found by Booth's algorithm.
    """
    n = p.n
    js = sorted(p.J._elements)
    if not js:
        return NecklaceClass(p)
    gaps = [b - a for a, b in zip(js, js[1:])]
    gaps.append(js[0] + n - js[-1])
    start = js[_least_rotation(gaps)]
    best = frozenset((j - start) % n for j in js)
    return NecklaceClass(AdmissiblePair._of(FinSet._of(best), n))


def _totient(d: int) -> int:
    result, m, q = d, d, 2
    while q * q <= m:
        if m % q == 0:
            while m % q == 0:
                m //= q
            result -= result // q
        q += 1
    if m > 1:
        result -= result // m
    return result


def necklace_count(n: int) -> int:
    """Number of 2-colored necklaces of length n: (1/n) sum_{d|n} phi(d) 2^(n/d)."""
    _check_modulus(n)
    total = sum(_totient(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


# ``necklace_enumerate`` lists at most this many classes.  necklace_count grows
# with n, so the limit is n <= NECKLACE_ENUM_MAX_N (22, with 190746 classes).
NECKLACE_ENUM_MAX_CLASSES = 2**18
NECKLACE_ENUM_MAX_N = 1
while necklace_count(NECKLACE_ENUM_MAX_N + 1) <= NECKLACE_ENUM_MAX_CLASSES:
    NECKLACE_ENUM_MAX_N += 1


def necklace_enumerate(n: int) -> list[NecklaceClass]:
    """All distinct necklace classes at size n, smallest representatives first.

    Fredricksen-Kessler-Maiorana (Ruskey, Savage & Wang, J. Algorithms 13,
    1992), in Duval's form: it lists the Lyndon words whose length divides n,
    each the period of exactly one necklace, in constant amortized time per
    word.  A residue tuple is lexicographically smallest among its rotations
    exactly when its indicator string is lexicographically largest, so the
    words are taken over the alphabet ordered "in J" < "not in J" (letters 0
    and 1).  Cost: O(n) per class for the representatives, then the sort by
    (size, residues).  Raises ValueError past NECKLACE_ENUM_MAX_CLASSES.
    """
    _check_modulus(n)
    if n > NECKLACE_ENUM_MAX_N:
        raise ValueError(
            f"necklace enumeration is limited to NECKLACE_ENUM_MAX_CLASSES = "
            f"{NECKLACE_ENUM_MAX_CLASSES} classes, that is n <= {NECKLACE_ENUM_MAX_N}; "
            f"got n = {n}"
        )
    reps: list[tuple[int, ...]] = []
    word = [-1]
    while word:
        word[-1] += 1
        m = len(word)
        if n % m == 0:
            reps.append(tuple(i for i in range(n) if word[i % m] == 0))
        while len(word) < n:
            word.append(word[-m])
        while word and word[-1] == 1:
            word.pop()
    reps.sort(key=lambda t: (len(t), t))
    return [NecklaceClass(AdmissiblePair._of(FinSet._of(frozenset(t)), n)) for t in reps]
