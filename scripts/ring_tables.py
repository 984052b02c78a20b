#!/usr/bin/env python3
"""Print the graded pieces of S(J, n) computed two independent ways.

The closed form builds each piece's coefficient as a product of linear
factors (z+t) read off from J and n; the oracle rebuilds each piece from
involution lattices via the twisted endomorphism construction.  Any
disagreement would be a bug, so the script fails loudly.
"""
import argparse
import sys

from weylgraded import AdmissiblePair, graded_piece_closed_form, twisted_endo_piece_oracle
from weylgraded.cli import ExpressionError, parse_int_set


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--J", default="", help="residue set, e.g. 0,2 or {0,2}")
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--min", dest="j_min", type=int, default=-3)
    parser.add_argument("--max", dest="j_max", type=int, default=3)
    args = parser.parse_args()
    if args.j_min > args.j_max:
        parser.error(f"--min must not exceed --max, got --min {args.j_min} --max {args.j_max}")

    try:
        J = parse_int_set(args.J)
    except ExpressionError as exc:
        parser.error(f"--J: {exc}")
    try:
        AdmissiblePair(J, args.n)
    except ValueError as exc:
        sys.exit(f"error: {exc}")
    print(f"graded pieces of S({J}, {args.n}), degrees {args.j_min}..{args.j_max}")
    print(f"{'j':>4}  {'closed form':<34} {'lattice oracle':<34}")
    mismatches = 0
    for j in range(args.j_min, args.j_max + 1):
        closed = graded_piece_closed_form(J, args.n, j)
        oracle = twisted_endo_piece_oracle(J, args.n, j)

        def fmt(piece):
            h, p = piece
            ypow = "" if p == 0 else (" y" if p == 1 else f" y^{p}")
            head = "" if h.is_one() else f"({h})"
            return f"{head}{ypow} k[z]".strip()

        mark = "" if closed == oracle else "   <-- MISMATCH"
        if closed != oracle:
            mismatches += 1
        print(f"{j:>4}  {fmt(closed):<34} {fmt(oracle):<34}{mark}")
    if mismatches:
        sys.exit(f"{mismatches} piece(s) disagree")


if __name__ == "__main__":
    main()
