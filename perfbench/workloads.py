"""The benchmark's workloads: seeded op lists and the check each op makes.

An op is ``(kind, params)``.  `generate(workload, seed)` builds the op list of
one pass from ``spec.json``; ``KINDS[workload][kind](params)`` runs the op
against the public API and returns ``{check: (got, want)}``.  The op passes when every
``got == want``.  ``want`` always comes from a path independent of ``got``:
set arithmetic against lattices, the oracle against the closed form, the
D-infinity homomorphism against ``power``, and so on.

Parameters whose value drives an op's cost are stratified rather than drawn
freely (each cell of the grid in ``spec.json`` recurs equally often), so the
work in a pass barely depends on the seed; the seed picks the sets within
each cell and the order of the ops within each kind.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import weylgraded as wg
from weylgraded import DSet, FinSet, PicElement, ProjectiveSum

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())
WORKLOADS = tuple(SPEC["workloads"])


# --- drawing inputs -------------------------------------------------------------


def _cycle(cells: list, count: int) -> list:
    return [cells[i % len(cells)] for i in range(count)]


def _bins(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One draw from each of `count` equal-width bins of [lo, hi], in bin order."""
    width = hi - lo + 1
    return [lo + int((i + rng.random()) * width / count) for i in range(count)]


def _span(r: list[int]) -> range:
    return range(r[0], r[1] + 1)


def _finset(rng: random.Random, universe: list[int], k: int) -> FinSet:
    return FinSet(rng.sample(universe, k))


def _element(rng: random.Random, r: dict, k: int | None = None, a: int | None = None) -> PicElement:
    universe = list(_span(r["J"]))
    if k is None:
        k = rng.randint(0, r["J_max_size"])
    if a is None:
        a = rng.choice((1, -1))
    return PicElement(a, rng.randint(*r["b"]), _finset(rng, universe, k))


def _generative(rng: random.Random, r: dict) -> PicElement:
    b = 0
    while b == 0:
        b = rng.randint(*r["b"])
    universe = list(_span(r["J"]))
    return PicElement(1, b, _finset(rng, universe, rng.randint(0, r["J_max_size"])))


def _spread_element(rng: random.Random, r: dict, size: int, a: int) -> PicElement:
    """An element whose J fits in a window narrower than |b|.

    The translates J + i b then never overlap, so power(F, k) builds sets of
    exactly i |J| elements at step i: its cost is fixed by (a, |J|, k) rather
    than by how the translates happen to cancel.
    """
    b = 0
    while abs(b) <= size:
        b = rng.randint(*r["b"])
    lo = rng.randint(r["J"][0], r["J"][1] - abs(b) + 1)
    return PicElement(a, b, _finset(rng, list(range(lo, lo + abs(b))), size))


def _delta(s: int) -> FinSet:
    return FinSet(range(0, s) if s >= 0 else range(s, 0))


def _translate(J: FinSet, s: int) -> FinSet:
    return FinSet(j + s for j in J)


def _isomorphic_rewrite(rng: random.Random, S: ProjectiveSum, shifts: list[int]) -> ProjectiveSum:
    """An isomorphic sum built from the module relations, not from ktheory.

    iota_J A<s> = iota_K A with K = (J + s) xor delta(s), re-expressed at a
    random shift t; then random exchanges (J, K) -> (J | K, J & K) of pairs.
    """
    sets = [_translate(J, s) ^ _delta(s) for J, s in S.summands]
    for _ in range(len(sets)):
        if len(sets) > 1:
            i, j = rng.sample(range(len(sets)), 2)
            sets[i], sets[j] = sets[i] | sets[j], sets[i] & sets[j]
    out = []
    for K in sets:
        t = rng.randint(*shifts)
        out.append((_translate(K ^ _delta(t), -t), t))
    rng.shuffle(out)
    return ProjectiveSum(tuple(out))


def _sum(rng: random.Random, r: dict, m: int) -> ProjectiveSum:
    universe = list(_span(r["J"]))
    return ProjectiveSum(tuple(
        (_finset(rng, universe, rng.randint(0, r["J_max_size"])), rng.randint(*r["s"]))
        for _ in range(m)
    ))


# --- generators per workload --------------------------------------------------


def _gen_ring_oracle(rng, spec):
    r = spec["ranges"]
    count = spec["ops_per_pass"]
    rp = r["piece"]
    # |J| rotates with j inside each (n, j) cell, so every n sees its sizes
    # 0..n spread evenly over the degrees j.
    cells = [(n, j, ji) for n in _span(rp["n"]) for ji, j in enumerate(_span(rp["j"]))]
    ops = []
    for t in range(count["piece"] // len(cells)):
        for n, j, ji in cells:
            J = _finset(rng, list(range(n)), (ji + t) % (n + 1))
            ops.append(("piece", {"J": J, "n": n, "j": j}))
    rc = r["closure"]
    cells = [(n, k) for n in _span(rc["n"]) for k in range(n + 1)]
    ops += [
        ("closure", {"J": _finset(rng, list(range(n)), k), "n": n, "window": rc["window"]})
        for n, k in _cycle(cells, count["closure"])
    ]
    return ops


def _gen_lattice_family(rng, spec):
    r = spec["ranges"]
    count = spec["ops_per_pass"]
    ops = []
    for kind in ("invariants", "embed-free"):
        rk = r[kind]
        universe = list(_span(rk["J"]))
        cells = [(k, s) for k in range(rk["J_max_size"] + 1) for s in _span(rk["s"])]
        for k, s in _cycle(cells, count[kind]):
            p = {"J": _finset(rng, universe, k), "shift": s}
            if kind == "invariants":
                p["j_range"] = rk["j"]
            ops.append((kind, p))
    rk = r["schanuel"]
    universe = list(_span(rk["J"]))
    sizes = range(rk["J_max_size"] + 1)
    for kj, kk in _cycle([(a, b) for a in sizes for b in sizes], count["schanuel"]):
        ops.append(("schanuel", {"J": _finset(rng, universe, kj), "K": _finset(rng, universe, kk)}))
    return ops


def _gen_group_algebra(rng, spec):
    r = spec["ranges"]
    count = spec["ops_per_pass"]
    re = r["element"]
    ops = []
    sizes = list(range(re["J_max_size"] + 1))
    for k in _cycle(sizes, count["pic-axioms"]):
        ops.append(("pic-axioms", {
            "F": _element(rng, re, k), "G": _element(rng, re), "H": _element(rng, re),
            "E": DSet(_finset(rng, list(_span(re["J"])), rng.randint(0, re["J_max_size"]))),
        }))
    # k bins pair up across |J| cells (|J| = m gets bins m, 2*9-1-m, ...), so
    # each cell holds small and large k alike and the pass's total work does
    # not depend on the seed.
    for a, repeats in ((1, r["power"]["repeats_even"]), (-1, r["power"]["repeats_odd"])):
        ks = _bins(rng, *r["power"]["k"], repeats * len(sizes))
        for m in sizes:
            for t in range(repeats):
                p = ks[t * len(sizes) + (m if t % 2 == 0 else len(sizes) - 1 - m)]
                ops.append(("power", {"F": _spread_element(rng, re, m, a), "k": p}))
    for _ in range(count["canonical"]):
        ops.append(("canonical", {"F": _generative(rng, re), "g": _element(rng, re)}))
    for n in _cycle(list(_span(r["necklace"]["n"])), count["necklace"]):
        J = FinSet(i for i in range(n) if rng.random() < 0.5)
        ops.append(("necklace", {"pair": wg.AdmissiblePair(J, n), "rotation": rng.randrange(n)}))
    for n in _cycle(list(_span(r["enumerate"]["n"])), count["enumerate"]):
        ops.append(("enumerate", {"n": n}))
    rk = r["k0"]
    for i, m in enumerate(_cycle(list(_span(rk["summands"])), count["k0"])):
        S1 = _sum(rng, rk, m)
        S2 = _isomorphic_rewrite(rng, S1, rk["s"]) if i % 2 == 0 else _sum(rng, rk, m)
        ops.append(("k0", {"S1": S1, "S2": S2, "T": _sum(rng, rk, 1)}))
    return ops


def _set_arg(J: FinSet) -> str:
    return ",".join(map(str, J))


def _sum_arg(S: ProjectiveSum) -> str:
    return "+".join(
        "{" + _set_arg(J) + "}" + (f"@{s}" if s else "") for J, s in S.summands
    )


def cli_commands(seed: int) -> list[list[str]]:
    """The cli probe's seeded command mix: argv lists for run_command."""
    spec = SPEC["cli_probe"]
    rng = random.Random(f"cli:{seed}")
    r = spec["ranges"]
    re = r["element"]
    out = []
    for family, n_ops in spec["commands_per_family"].items():
        commands = r[family]["commands"]
        for i, cmd in enumerate(_cycle(commands, n_ops)):
            if family == "pic":
                argv = ["pic", cmd, str(_element(rng, re))]
                if cmd == "pow":
                    argv.append(str(rng.randint(*r["pic"]["k"])))
                elif cmd == "conj":
                    argv.append(str(_element(rng, re)))
            elif family == "classify":
                argv = ["classify", cmd, str(_generative(rng, re))]
                if cmd == "same-class":
                    argv.append(str(_generative(rng, re)))
            elif family == "necklace":
                argv = ["necklace", cmd, str(rng.randint(*r["necklace"]["n"]))]
            elif family == "ring":
                n = rng.randint(*r["ring"]["n"])
                J = FinSet(t for t in range(n) if rng.random() < 0.5)
                lo, hi = r["ring"]["j"]
                argv = ["ring", cmd, f"--J={_set_arg(J)}", f"--n={n}", f"--min={lo}", f"--max={hi}"]
            elif family == "mod":
                universe = list(_span(r["mod"]["J"]))
                J1, J2 = (_finset(rng, universe, rng.randint(0, r["mod"]["J_max_size"])) for _ in range(2))
                argv = ["mod", cmd, f"--J={_set_arg(J1)}", f"--J2={_set_arg(J2)}"]
            else:
                rk = r["k0"]
                S1 = _sum(rng, rk, rng.randint(*r["k0"]["summands"]))
                argv = ["k0", cmd, _sum_arg(S1)]
                if cmd == "iso":
                    argv.append(_sum_arg(_isomorphic_rewrite(rng, S1, rk["s"]) if rng.random() < 0.5
                                         else _sum(rng, rk, len(S1))))
            if (i // len(commands)) % 2:
                argv.append("--json")
            out.append(argv)
    rng.shuffle(out)
    return out


_GENERATORS = {
    "ring-oracle": _gen_ring_oracle,
    "lattice-family": _gen_lattice_family,
    "group-algebra": _gen_group_algebra,
}


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The op list of one pass; the same (workload, seed) gives the same list.

    Ops run in blocks of one kind, in the order of ``ops_per_pass``, shuffled
    within each block.  Interleaving the kinds made an op's cost depend on the
    ops run just before it (heap and cache state), by up to a fifth of a pass.
    """
    rng = random.Random(f"{workload}:{seed}")
    spec = SPEC["workloads"][workload]
    ops = _GENERATORS[workload](rng, spec)
    blocks = []
    for kind in spec["ops_per_pass"]:
        block = [op for op in ops if op[0] == kind]
        rng.shuffle(block)
        blocks += block
    return blocks


def to_jsonable(value):
    """Serialize op inputs with the library's own to_json methods."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def serialize(ops: list[tuple[str, dict]]) -> bytes:
    return json.dumps([[k, to_jsonable(p)] for k, p in ops], sort_keys=True).encode()


# --- ops and their checks -----------------------------------------------------------


def op_piece(p):
    J, n, j = p["J"], p["n"], p["j"]
    return {"closed_form == oracle": (
        wg.graded_piece_closed_form(J, n, j), wg.twisted_endo_piece_oracle(J, n, j))}


def op_closure(p):
    J, n = p["J"], p["n"]
    return {
        "verify_ring_closure": (wg.verify_ring_closure(J, n, p["window"]), True),
        "verify_gwa_embedding": (wg.verify_gwa_embedding(J, n), True),
        "simplicity_root_test": (wg.simplicity_root_test(J, n), True),
    }


def op_invariants(p):
    J, s = p["J"], p["shift"]
    L = wg.iota_lattice(J, s)
    E = wg.to_dset(J, s)
    js = _span(p["j_range"])
    return {
        "is_A_module": (wg.is_A_module(L), True),
        "simple_factor": (
            tuple(wg.simple_factor(L, j).kind for j in js),
            tuple("X" if j in E else "Y" for j in js),
        ),
        "lattice_dset == to_dset": (wg.lattice_dset(L), E),
    }


def op_schanuel(p):
    J, K = p["J"], p["K"]
    lhs = wg.cokernel_support(wg.iota_lattice(J | K), wg.iota_lattice(K))
    rhs = wg.cokernel_support(wg.iota_lattice(J), wg.iota_lattice(J & K))
    return {"schanuel": (lhs, rhs)}


def op_embed_free(p):
    J, s = p["J"], p["shift"]
    support = wg.cokernel_support(wg.iota_lattice(J, s), wg.GradedLattice.free())
    flips = wg.to_dset(J, s).exceptions
    return {"support == DSet flips": (
        sorted(pt for pt, _ in support), sorted(Fraction(-j) for j in flips))}


def op_pic_axioms(p):
    F, G, H, E = p["F"], p["G"], p["H"], p["E"]
    e = wg.identity()
    return {
        "associativity": (wg.compose(wg.compose(F, G), H), wg.compose(F, wg.compose(G, H))),
        "right inverse": (wg.compose(F, wg.inverse(F)), e),
        "left inverse": (wg.compose(wg.inverse(F), F), e),
        "identity": ((wg.compose(F, e), wg.compose(e, F)), (F, F)),
        "act_on_dset homomorphism": (
            wg.act_on_dset(wg.compose(F, G), E), wg.act_on_dset(F, wg.act_on_dset(G, E))),
    }


def _sign_rank_power(sr: tuple[int, int], k: int) -> tuple[int, int]:
    """k-th power in D-infinity, where (a, r) acts by n -> a n + r."""
    a, r = sr
    if a == 1:
        return (1, k * r)
    return (-1, r) if k % 2 else (1, 0)


def op_power(p):
    F, k = p["F"], p["k"]
    Fk = wg.power(F, k)
    return {
        "F^k (F^-1)^k == e": (wg.compose(Fk, wg.power(wg.inverse(F), k)), wg.identity()),
        "sign_rank": (wg.sign_rank(Fk), _sign_rank_power(wg.sign_rank(F), k)),
    }


def op_canonical(p):
    F, g = p["F"], p["g"]
    pair, c = wg.canonical_admissible(F)
    conj = wg.compose(wg.compose(c, F), wg.inverse(c))
    G = wg.compose(wg.compose(g, F), wg.inverse(g))
    return {
        "conjugator": (conj, PicElement(1, pair.n, pair.J)),
        "same_morita_class": (wg.same_morita_class(F, G), True),
    }


def op_necklace(p):
    pair, r = p["pair"], p["rotation"]
    c = wg.necklace_canonical(pair)
    rotated = wg.AdmissiblePair(FinSet((j + r) % pair.n for j in pair.J), pair.n)
    return {
        "idempotent": (wg.necklace_canonical(c.representative), c),
        "rotation invariant": (wg.necklace_canonical(rotated), c),
    }


def op_enumerate(p):
    n = p["n"]
    return {"len == necklace_count": (len(wg.necklace_enumerate(n)), wg.necklace_count(n))}


def _plus(S: ProjectiveSum, T: ProjectiveSum) -> ProjectiveSum:
    return ProjectiveSum(S.summands + T.summands)


def op_k0(p):
    S1, S2, T = p["S1"], p["S2"], p["T"]
    iso = wg.iso_test(S1, S2)
    N = wg.normalize_sum(S1)
    return {
        "iso_test <=> k0_class": (iso, wg.k0_class(S1) == wg.k0_class(S2)),
        "normalize idempotent": (wg.normalize_sum(N), N),
        "cancellation": (wg.iso_test(_plus(S1, T), _plus(S2, T)), iso),
    }


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of run_command(argv), dispatched in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = wg.run_command(argv)
    return code, out.getvalue()


KINDS = {
    "ring-oracle": {"piece": op_piece, "closure": op_closure},
    "lattice-family": {
        "invariants": op_invariants, "schanuel": op_schanuel, "embed-free": op_embed_free,
    },
    "group-algebra": {
        "pic-axioms": op_pic_axioms, "power": op_power, "canonical": op_canonical,
        "necklace": op_necklace, "enumerate": op_enumerate, "k0": op_k0,
    },
}


def failed_checks(results: dict) -> list[str]:
    return [name for name, (got, want) in results.items() if not got == want]
