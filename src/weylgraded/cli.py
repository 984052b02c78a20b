"""Command-line front end.

Every expression argument is read by one scanner with this grammar:

    element := term ('*' term)*
    term    := 'S' ('^' int)? | 'i' set | 'w' | 'e'
    set     := '{' (int (',' int)*)? '}'
    sum     := summand ('+' summand)* | '0' | ''
    summand := set ('@' int)?
    combo   := (('+' | '-')? int? set (('+' | '-') int? set)*)?

Picard elements compose left-to-right with the leftmost functor applied last.
A sum lists the summands iota_J(A)<s> of a graded projective, and ``{}`` is A.
A set may drop its braces in a ``--J`` value and in a summand (``--J 0,3``,
``1,3+0@2``); a blank ``--J`` is the empty set. Whitespace between tokens is
ignored, and a syntax error names the position of the token that broke it.

Exit codes: 0 success, 1 domain error (for example a non-generative input to
``classify``), 2 usage or expression-syntax error.  When stdout closes before
the output is written (a pipe into ``head``), the command exits 1 without a
traceback.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterator, NoReturn, Sequence

from .zfin import (
    NECKLACE_ENUM_MAX_CLASSES,
    FinSet,
    necklace_count,
    necklace_enumerate,
)
from .picard import PicElement, _bounded_shift, compose, inverse, power
from .classify import canonical_admissible, same_morita_class
from . import gwa, skew
from .lattices import (
    cokernel_support,
    hom_generator,
    iota_lattice,
    to_dset,
)
from .ktheory import (
    ProjectiveSum,
    iso_test,
    normalize_sum,
    stably_free_witness,
    theta_map,
)
from .verification import SUITES, run_suites


class ExpressionError(ValueError):
    """Syntax error in a CLI expression, with a position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --- expression grammar -------------------------------------------------------


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def accept(self, c: str) -> bool:
        """Consume the token ``c`` if it comes next."""
        if self.peek() != c:
            return False
        self.pos += 1
        return True

    def fail(self, wanted: str) -> NoReturn:
        got = self.peek()
        found = f", found {got!r}" if got else ""
        raise ExpressionError(f"expected {wanted}{found}", self.pos)

    def expect(self, c: str) -> None:
        if not self.accept(c):
            self.fail(repr(c))

    def end(self) -> None:
        if self.peek():
            raise ExpressionError(f"trailing input {self.text[self.pos:]!r}", self.pos)

    def integer(self) -> int:
        signed = self.peek() in ("+", "-")
        start, end = self.pos, self.pos + signed
        while end < len(self.text) and self.text[end].isdecimal():
            end += 1
        if end == start + signed:
            self.fail("an integer")
        self.pos = end
        return int(self.text[start:end])

    def int_set(self, bare: bool = False) -> FinSet:
        """'{' int, ... '}'; with ``bare`` the braces may be left out, but not the ints."""
        braced = not bare or self.peek() == "{"
        if braced:
            self.expect("{")
            if self.accept("}"):
                return FinSet()
        values = [self.integer()]
        while self.accept(","):
            values.append(self.integer())
        if braced:
            self.expect("}")
        return FinSet(values)


def _parse_term(sc: _Scanner) -> PicElement:
    if sc.accept("S"):
        return PicElement(1, sc.integer() if sc.accept("^") else 1, FinSet())
    if sc.accept("i"):
        return PicElement(1, 0, sc.int_set())
    if sc.accept("w"):
        return PicElement(-1, 0, FinSet())
    if sc.accept("e"):
        return PicElement(1, 0, FinSet())
    sc.fail("a term (S, i{...}, w, or e)")


def parse_expression(text: str) -> PicElement:
    """Parse and normalize a Picard expression."""
    sc = _Scanner(text)
    if not sc.peek():
        raise ExpressionError("empty expression", 0)
    out = _parse_term(sc)
    while sc.accept("*"):
        out = compose(out, _parse_term(sc))
    sc.end()
    return out


def parse_int_set(text: str) -> FinSet:
    """A ``--J`` value: a set whose braces may be left out; blank is the empty set.

    A syntax error raises ExpressionError naming its position.
    """
    sc = _Scanner(text)
    J = sc.int_set(bare=True) if sc.peek() else FinSet()
    sc.end()
    return J


def _parse_sum(text: str) -> ProjectiveSum:
    if text.strip() in ("", "0"):
        return ProjectiveSum(())
    sc = _Scanner(text)
    summands: list[tuple[FinSet, int]] = []
    while not summands or sc.accept("+"):
        if sc.peek() in ("+", ""):
            raise ExpressionError("empty summand; write {} for A", sc.pos)
        summands.append((sc.int_set(bare=True), sc.integer() if sc.accept("@") else 0))
    sc.end()
    for J, s in summands:
        _bounded_shift(s, f"summand {J}@{s} has a shift")
    return ProjectiveSum(tuple(summands))


def _parse_combo(text: str) -> list[tuple[FinSet, int]]:
    """Integer combination of classes, e.g. '2{0,3} - {1} + {}'."""
    sc = _Scanner(text)
    out: list[tuple[FinSet, int]] = []
    while op := sc.peek():
        if not (sc.accept("+") or sc.accept("-")) and out:
            sc.fail("'+' or '-' between terms")
        coeff = sc.integer() if sc.peek().isdecimal() else 1
        out.append((sc.int_set(), -coeff if op == "-" else coeff))
    return out


# --- output helpers -------------------------------------------------------------


def _emit(args, human: Callable[[], str], payload: Callable[[], object]) -> None:
    """Print payload() as JSON under --json, else human(); only the printed side is built."""
    print(json.dumps(payload(), sort_keys=True) if args.json else human())


def _piece_human(h, p: int) -> str:
    """The piece h(z) y^p k[z] as text."""
    ypow = "" if p == 0 else "y " if p == 1 else f"y^{p} "
    return f"{ypow}k[z]" if h.is_one() else f"({h}) {ypow}k[z]"


def _pieces_human(pieces) -> str:
    return "\n".join(f"S_{j} = {_piece_human(h, p)}" for j, (h, p) in sorted(pieces.pieces.items()))


# --- command handlers ------------------------------------------------------------


def _cmd_pic(args) -> int:
    F = parse_expression(args.expr)
    if args.cmd == "pow":
        F = power(F, args.k)
    elif args.cmd == "inv":
        F = inverse(F)
    elif args.cmd == "conj":
        g = parse_expression(args.by)
        F = compose(g, compose(F, inverse(g)))
    _emit(args, lambda: str(F), F.to_json)
    return 0


def _cmd_classify(args) -> int:
    if args.cmd == "table":
        return _classify_table(args)
    F = parse_expression(args.expr)
    if args.cmd == "canonical":
        pair, g = canonical_admissible(F)
        _emit(args, lambda: f"pair: {pair}\nconjugator: {g}",
              lambda: {"pair": pair.to_json(), "conjugator": g.to_json()})
        return 0
    G = parse_expression(args.other)
    same = same_morita_class(F, G)
    _emit(args, lambda: "same graded Morita class" if same else "different graded Morita classes",
          lambda: {"same_class": same})
    return 0


def _classify_table(args) -> int:
    """The graded Morita classes of each rank n <= --max-n, each with its ring S(J, n).

    The class count is summed before anything is enumerated, and a table of
    more than NECKLACE_ENUM_MAX_CLASSES classes is refused with ValueError.
    """
    total = 0
    for n in range(1, args.max_n + 1):
        total += necklace_count(n)
        if total > NECKLACE_ENUM_MAX_CLASSES:
            raise ValueError(
                f"classify table is limited to NECKLACE_ENUM_MAX_CLASSES = "
                f"{NECKLACE_ENUM_MAX_CLASSES} classes in all, that is --max-n <= {n - 1}; "
                f"got --max-n {args.max_n}"
            )
    ranks = []
    for n in range(1, args.max_n + 1):
        rows = []
        for cls in necklace_enumerate(n):
            J = cls.representative.J
            f, f_J = gwa.factors(J, n)
            tags = ["full GWA"] if f_J.is_one() else []
            if not J:
                tags.append("Veronese of A" if n > 1 else "A itself")
            rows.append((J, f, f_J, tags))
        ranks.append((n, rows))

    def human() -> Iterator[str]:
        for n, rows in ranks:
            yield f"rank {n}: {len(rows)} classes"
            for J, f, f_J, tags in rows:
                suffix = f"   [{', '.join(tags)}]" if tags else ""
                yield f"  S({J}, {n}):  f = {f},  idealizer factor = {f_J}{suffix}"
            yield ""

    _emit(args, lambda: "\n".join(human()), lambda: {"ranks": [
        {"n": n, "classes": [
            {"J": J.to_json(), "f": f.to_json(), "fJ": f_J.to_json(), "tags": tags}
            for J, f, f_J, tags in rows
        ]}
        for n, rows in ranks
    ]})
    return 0


# ``necklace count`` prints counts of at most skew.MAX_PRINTED_DIGITS decimal
# digits.  The count for n is at most 2^n, so the limit holds for every n with
# 2^n < 10^4300, that is n <= 14284.
NECKLACE_COUNT_MAX_N = (10 ** skew.MAX_PRINTED_DIGITS).bit_length() - 1


def _cmd_necklace(args) -> int:
    if args.cmd == "count":
        if args.n > NECKLACE_COUNT_MAX_N:
            raise ValueError(
                f"necklace count is limited to n <= {NECKLACE_COUNT_MAX_N}, whose counts "
                f"have at most {skew.MAX_PRINTED_DIGITS} digits; got n = {args.n}"
            )
        c = necklace_count(args.n)
        _emit(args, lambda: str(c), lambda: {"n": args.n, "count": c})
    else:
        classes = necklace_enumerate(args.n)
        _emit(args, lambda: "\n".join(str(c.representative) for c in classes),
              lambda: {"n": args.n, "classes": [c.to_json() for c in classes]})
    return 0


def _cmd_ring(args) -> int:
    J = parse_int_set(args.J)
    if args.cmd == "present":
        p = gwa.present(J, args.n)
        _emit(args, lambda: "\n".join([
            f"W relation data for S({J}, {args.n}):",
            f"  f = {p.f}\n  idealizer factor = {p.idealizer_factor}",
            *(f"  {r}" for r in p.relations),
        ]), p.to_json)
    elif args.cmd in ("pieces", "oracle"):
        pieces = gwa.ring_pieces(J, args.n, args.min, args.max, oracle=args.cmd == "oracle")
        _emit(args, lambda: _pieces_human(pieces), pieces.to_json)
    elif args.cmd == "compare":
        closed, oracle = (
            gwa.ring_pieces(J, args.n, args.min, args.max, oracle=by_oracle)
            for by_oracle in (False, True)
        )
        bad = [j for j, piece in closed.pieces.items() if piece != oracle.pieces[j]]

        def human() -> Iterator[str]:
            yield f"graded pieces of S({J}, {args.n}), degrees {args.min}..{args.max}"
            yield f"{'j':>4}  {'closed form':<34} {'lattice oracle':<34}"
            for j, piece in closed.pieces.items():
                mark = "   <-- MISMATCH" if j in bad else ""
                yield f"{j:>4}  {_piece_human(*piece):<34} {_piece_human(*oracle.pieces[j]):<34}{mark}"

        _emit(args, lambda: "\n".join(human()), lambda: {
            "closed_form": closed.to_json(), "oracle": oracle.to_json(), "mismatches": bad
        })
        if bad:
            raise ValueError(f"the closed form and the oracle disagree at j = {bad}")
    else:  # verify
        closure = gwa.verify_ring_closure(J, args.n, args.window)
        embed = gwa.verify_gwa_embedding(J, args.n)
        _emit(
            args,
            lambda: f"closure: {'ok' if closure else 'FAILED'}\n"
            f"embedding: {'ok' if embed else 'FAILED'}",
            lambda: {"closure": closure, "embedding": embed},
        )
        return 0 if closure and embed else 1
    return 0


def _cmd_mod(args) -> int:
    _bounded_shift(args.shift, f"--shift {args.shift} is")
    if args.cmd == "dset":
        E = to_dset(parse_int_set(args.J), args.shift)
        _emit(args, lambda: str(E), E.to_json)
    elif args.cmd == "lattice":
        L = iota_lattice(parse_int_set(args.J), args.shift)
        _emit(args, lambda: "\n".join(f"deg {m}: ({g}) x^{m} k[z]" for m, g in L.generators.items()),
              L.to_json)
    else:
        _bounded_shift(args.shift2, f"--shift2 {args.shift2} is")
        P = iota_lattice(parse_int_set(args.J), args.shift)
        Q = iota_lattice(parse_int_set(args.J2), args.shift2)
        if args.cmd == "hom":
            h = hom_generator(P, Q)
            _emit(args, lambda: str(h), lambda: {"generator": h.to_json()})
        else:  # coker
            support = cokernel_support(P, Q)
            _emit(args, lambda: ", ".join(f"point {pt} x{c}" for pt, c in support) or "(empty)",
                  lambda: {"support": [{"point": pt, "count": c} for pt, c in support]})
    return 0


def _cmd_k0(args) -> int:
    if args.cmd == "normalize":
        S = normalize_sum(_parse_sum(args.sum))
        _emit(args, lambda: str(S), S.to_json)
    elif args.cmd == "iso":
        same = iso_test(_parse_sum(args.left), _parse_sum(args.right))
        _emit(args, lambda: "isomorphic" if same else "not isomorphic",
              lambda: {"isomorphic": same})
    elif args.cmd == "witness":
        adds, result = stably_free_witness(parse_int_set(args.J))
        _emit(args, lambda: "adds:   " + ", ".join(f"A<{l}>" for l in adds)
              + "\nresult: " + ", ".join(f"A<{m}>" for m in result),
              lambda: {"adds": adds, "result": result})
    else:  # theta
        F = theta_map(_parse_combo(args.combo))
        _emit(args, lambda: str(F), F.to_json)
    return 0


def _cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    passed, failed, results = run_suites(names, seed=args.seed)

    def human() -> Iterator[str]:
        for r in results:
            cases = f"  [{r.cases}]" if r.cases else ""
            status = "PASS" if r.passed else "FAIL"
            yield f"{status}  {r.name}{cases}  {r.count} cases, {r.seconds:.2f} s"
            if r.raised is not None:
                yield f"      raised {r.raised}"
            elif r.failure is not None:
                yield f"      first failing input: {json.dumps(r.failure, sort_keys=True)}"
        yield f"{passed} passed, {failed} failed"

    _emit(args, lambda: "\n".join(human()), lambda: {
        "seed": args.seed,
        "passed": passed,
        "failed": failed,
        "results": [{**r._asdict(), "passed": r.passed} for r in results],
    })
    return 0 if failed == 0 else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylgraded",
        description="Exact computations in the graded module category of the Weyl algebra.",
    )
    sub = parser.add_subparsers(dest="family", required=True)

    def leaf(group, name, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    pic = sub.add_parser("pic", help="Picard group arithmetic").add_subparsers(
        dest="cmd", required=True
    )
    leaf(pic, "eval", help="normalize an expression").add_argument("expr")
    p = leaf(pic, "pow", help="integer power")
    p.add_argument("expr")
    p.add_argument("k", type=int)
    leaf(pic, "inv", help="group inverse").add_argument("expr")
    p = leaf(pic, "conj", help="conjugate EXPR by BY")
    p.add_argument("expr")
    p.add_argument("by")

    cl = sub.add_parser("classify", help="graded Morita classification").add_subparsers(
        dest="cmd", required=True
    )
    leaf(cl, "canonical", help="admissible pair + conjugator").add_argument("expr")
    p = leaf(cl, "same-class", help="same graded Morita class?")
    p.add_argument("expr")
    p.add_argument("other")
    leaf(cl, "table", help="classes per rank with their rings S(J, n)").add_argument(
        "--max-n", type=_positive_int, default=6
    )

    nk = sub.add_parser("necklace", help="necklace combinatorics").add_subparsers(
        dest="cmd", required=True
    )
    leaf(nk, "count", help="number of classes").add_argument("n", type=int)
    leaf(nk, "enum", help="list all classes").add_argument("n", type=int)

    rg = sub.add_parser("ring", help="the rings S(J, n)").add_subparsers(
        dest="cmd", required=True
    )
    for name in ("present", "pieces", "oracle", "compare", "verify"):
        p = leaf(rg, name)
        p.add_argument("--J", default="", help="comma-separated residues, e.g. 0,2")
        p.add_argument("--n", type=int, required=True)
        if name in ("pieces", "oracle", "compare"):
            p.add_argument("--min", type=int, default=-2)
            p.add_argument("--max", type=int, default=2)
            p.set_defaults(degree_parser=p)
        if name == "verify":
            p.add_argument("--window", type=_positive_int, default=3)

    md = sub.add_parser("mod", help="rank-1 graded projective modules").add_subparsers(
        dest="cmd", required=True
    )
    for name in ("dset", "lattice"):
        p = leaf(md, name)
        p.add_argument("--J", default="")
        p.add_argument("--shift", type=int, default=0)
    for name in ("hom", "coker"):
        p = leaf(md, name)
        p.add_argument("--J", default="", help="first module's involution set")
        p.add_argument("--shift", type=int, default=0)
        p.add_argument("--J2", default="", help="second module's involution set")
        p.add_argument("--shift2", type=int, default=0)

    k0 = sub.add_parser("k0", help="graded K-theory").add_subparsers(
        dest="cmd", required=True
    )
    leaf(k0, "normalize", help="chain normal form").add_argument(
        "sum", help="summands joined by '+', e.g. '{1,3}+{0,1,2}@1'"
    )
    p = leaf(k0, "iso", help="isomorphism test")
    p.add_argument("left")
    p.add_argument("right")
    leaf(k0, "witness", help="stably-free witness").add_argument(
        "--J", required=True, help="subset of Z>=1"
    )
    leaf(k0, "theta", help="map to the involution group").add_argument(
        "combo", help="integer combination, e.g. '{0,3}-{}'"
    )

    vf = leaf(sub, "verify", help="run invariant sweeps")
    vf.add_argument("--suite", default="all", choices=["all", *sorted(SUITES)])
    vf.add_argument("--seed", type=int, default=0)
    return parser


_HANDLERS = {
    "pic": _cmd_pic,
    "classify": _cmd_classify,
    "necklace": _cmd_necklace,
    "ring": _cmd_ring,
    "mod": _cmd_mod,
    "k0": _cmd_k0,
    "verify": _cmd_verify,
}


def run_command(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        if "degree_parser" in args and args.min > args.max:
            args.degree_parser.error(
                f"--min must not exceed --max, got --min {args.min} --max {args.max}"
            )
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.family](args)
    except ExpressionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
