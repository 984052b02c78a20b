"""Graded K-theory of A: chain normal forms of projective sums.

Every finitely generated graded projective splits into rank-1 summands
iota_J(A)<s>, and iota_J(A)<s> is iota_K A for K = absorb_shift(J, s).  A
ProjectiveSum stores each summand in that absorbed form, as (K, 0), once, when
it is built; every function here reads the sets K as stored.  The exchange
isomorphism

    iota_J A + iota_K A  ~  iota_{J | K} A + iota_{J & K} A

rewrites any multiset of sets into a unique ascending chain J_1 <= ... <= J_m.
Two sums are isomorphic exactly when their chains agree, which is also
equality in K_0; in particular summand cancellation holds in the graded
category.  The chain of m summands is fixed by m and by how many summand sets
hold each integer (its top count(t) links hold t), so two sums are isomorphic
exactly when they have equal rank and equal membership counts.  ``iso_test``
compares those counts as the sorted multisets of the members of the summand
sets, one list equality; only ``normalize_sum`` counts them, in a Counter.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping

from .zfin import FinSet, _as_finset, _check_int, absorb_shift
from .picard import PicElement, _bounded_shift, identity


@dataclass(frozen=True)
class ProjectiveSum:
    """Direct sum of rank-1 graded projectives, stored as shift-absorbed (K, 0) summands.

    The constructor, ``of`` and ``from_json`` take (J, s) pairs.  Each pair is
    checked, then stored as (absorb_shift(J, s), 0), the same module; a pair
    with s = 0 is kept as given.  So ``==`` compares absorbed forms:
    ``ProjectiveSum.of((FinSet(), 2)) == ProjectiveSum.of(FinSet([0, 1]))``.
    Absorbing builds a set of up to |J| + |s| members when the sum is built,
    whatever is later asked of it; ``from_json``, which reads outside input,
    refuses |s| over picard.POWER_MAX_SET_SIZE by ``picard._bounded_shift``,
    as the CLI's parser does.
    """

    summands: tuple[tuple[FinSet, int], ...]

    def __post_init__(self) -> None:
        absorbed = []
        for p in self.summands:
            if not (isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], FinSet)):
                raise TypeError(f"summand must be a (FinSet, shift) pair, got {p!r}")
            _check_int(p[1], "summand must be shifted by an integer")
            absorbed.append((absorb_shift(*p), 0) if p[1] else p)
        # a frozen dataclass refuses setattr; its field is set in __dict__
        self.__dict__["summands"] = tuple(absorbed)

    @classmethod
    def _of(cls, summands: tuple[tuple[FinSet, int], ...]) -> "ProjectiveSum":
        """The sum of ``summands``, which must already be absorbed (FinSet, 0) pairs: no check."""
        S = object.__new__(cls)
        S.__dict__["summands"] = summands
        return S

    @classmethod
    def of(cls, *parts) -> "ProjectiveSum":
        """Build from parts, each a FinSet (shift 0) or a (FinSet, shift) pair."""
        return cls(tuple((p, 0) if isinstance(p, FinSet) else p for p in parts))

    def __len__(self) -> int:
        return len(self.summands)

    def to_json(self) -> list[dict]:
        return [{"J": J.to_json(), "shift": s} for J, s in self.summands]

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "ProjectiveSum":
        pairs = tuple((FinSet.from_json(d["J"]), d.get("shift", 0)) for d in data)
        for _, s in pairs:
            _check_int(s, "summand must be shifted by an integer")
            _bounded_shift(s, f"summand shift {s} is")
        return cls(pairs)

    def __str__(self) -> str:
        if not self.summands:
            return "0"
        return " + ".join(f"i{K}A" for K, _ in self.summands)


@dataclass
class K0Class:
    """Element of K_0 on the basis of shifted free modules: {n: coefficient}."""

    coefficients: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for n, c in self.coefficients.items():
            _check_int(n, "K_0 basis degree must be an integer")
            _check_int(c, "K_0 coefficient must be an integer")
        self.coefficients = {n: c for n, c in self.coefficients.items() if c}

    @classmethod
    def _of(cls, coefficients: dict[int, int]) -> "K0Class":
        """The class with these coefficients, which must already be integers: no check."""
        k = object.__new__(cls)
        k.coefficients = {n: c for n, c in coefficients.items() if c}
        return k

    def reduced(self) -> "K0Class":
        """Class modulo the free module: the degree-0 coefficient is dropped."""
        return K0Class._of({n: c for n, c in self.coefficients.items() if n != 0})

    def to_json(self) -> dict:
        return {str(n): c for n, c in sorted(self.coefficients.items())}

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        return " + ".join(
            f"{c}[A<{n}>]" for n, c in sorted(self.coefficients.items())
        )


def normalize_sum(S: ProjectiveSum) -> ProjectiveSum:
    """Chain normal form; the membership count of each integer is the invariant.

    The pair rewriting (J, K) -> (J & K, J | K) is confluent: integer t ends
    up in exactly the top count(t) links of the chain.
    """
    m = len(S.summands)
    counts = Counter(_members(S))
    by_count: list[list[int]] = [[] for _ in range(m + 1)]
    for t, c in counts.items():
        by_count[c].append(t)
    links, link = [], frozenset()
    for c in range(m, 0, -1):
        link = link.union(by_count[c])
        links.append((FinSet._of(link), 0))
    return ProjectiveSum._of(tuple(links))


def _members(S: ProjectiveSum) -> Iterator[int]:
    """The members of the (shift-absorbed) summand sets of S, once per set holding each."""
    return chain.from_iterable(K._elements for K, _ in S.summands)


def iso_test(S1: ProjectiveSum, S2: ProjectiveSum) -> bool:
    """Graded isomorphism of the two direct sums.

    Equal summand count and equal membership counts, which is equality of the
    chain normal forms without building them.  The counts are compared as the
    sorted multisets of the members, one list equality; multisets of unequal
    size are told apart before either is sorted.
    """
    if len(S1) != len(S2):
        return False
    members1, members2 = list(_members(S1)), list(_members(S2))
    if len(members1) != len(members2):
        return False
    members1.sort()
    members2.sort()
    return members1 == members2


def stably_free_witness(J: FinSet | Iterable[int]) -> tuple[list[int], list[int]]:
    """Shift lists with iota_J A + sum A<l in adds> iso to sum A<m in result>.

    Requires J inside Z>=1 (shift-normalize first).  Peeling the maximum m of
    J trades iota_J A + A<m> for iota_{J minus max} A + A<m+1>, so the adds
    are J in descending order and the result is their successors plus A.
    """
    J = _as_finset(J)
    if J and min(J._elements) < 1:
        raise ValueError(
            f"J = {J} must lie in Z>=1; normalize the class by shifting first"
        )
    adds = sorted(J._elements, reverse=True)
    result = [m + 1 for m in adds] + [0]
    return adds, result


def theta_map(combo: Mapping[FinSet, int] | Iterable[tuple[FinSet, int]]) -> PicElement:
    """Reduced-K_0 to numerically trivial involutions: [iota_J A] -> iota_J.

    Only coefficient parities matter; the image is the xor of the J with odd
    coefficient.  Each coefficient must be an integer.
    """
    items = combo.items() if isinstance(combo, Mapping) else combo
    out = FinSet()
    for J, c in items:
        _check_int(c, "theta_map coefficient must be an integer")
        if c % 2:
            out = out ^ _as_finset(J)
    return PicElement(1, 0, out) if out else identity()


def k0_class(S: ProjectiveSum) -> K0Class:
    """Coordinates of [S] on the shifted-free basis, in one pass over each summand set K.

    [iota_K A] = [A] + sum over k in K of sgn(k) ([A<k+1>] - [A<k>]), where
    sgn(k) = +1 for k >= 0 and -1 for k < 0.  Why: for disjoint J and K the
    exchange isomorphism reads iota_{J | K} A + A ~ iota_J A + iota_K A, so
    [iota_K A] - [A] is the sum over k in K of [iota_{k} A] - [A].  And A<s>
    is iota_D A for D = absorb_shift({}, s): {0, ..., s-1} when s >= 0 and
    {s, ..., -1} when s < 0.  The sets of A<k+1> and A<k> differ by the one
    element k, so [iota_{k} A] - [A] is [A<k+1>] - [A<k>] for k >= 0 and
    [A<k>] - [A<k+1>] for k < 0.
    """
    coeffs: dict[int, int] = {0: len(S.summands)}
    get = coeffs.get
    for K, _ in S.summands:
        for k in K._elements:
            sgn = 1 if k >= 0 else -1
            coeffs[k + 1] = get(k + 1, 0) + sgn
            coeffs[k] = get(k, 0) - sgn
    return K0Class._of(coeffs)
