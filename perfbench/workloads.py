"""Seeded instance generators for the core-extraction benchmark.

Every generator takes a `random.Random` built from the workload seed and
returns SMT-LIB text, so the parser and the CNF converter stay on the
measured path.  No generator emits a tautological assertion: the literals
of one clause always sit on distinct variable pairs (LRA), distinct
unordered term pairs (EUF) or distinct Booleans, so no two of them can
canonicalize to one atom or to an atom and its complement.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Instance:
    name: str
    text: str
    planted: frozenset = frozenset()  # assertion ids that must form the core (prop-core)


@dataclass
class Workload:
    name: str
    why: str
    params: dict
    per_second: float  # instances per second of run length: one timed run and its checks
    generate: object = field(repr=False)  # (rng, params, k) -> Instance
    all_unsat: bool = False               # unsat by construction
    minimize_and_enumerate: bool = False


def _num(c: int) -> str:
    return str(c) if c >= 0 else f"(- {-c})"


def _diff_lit(rng: random.Random, i: int, j: int, lo: int, hi: int) -> str:
    rel = rng.choice(["<=", "<"])
    atom = f"({rel} (- x{i} x{j}) {_num(rng.randint(lo, hi))})"
    return atom if rng.random() < 0.8 else f"(not {atom})"


def _clause(lits: list[str]) -> str:
    return lits[0] if len(lits) == 1 else "(or " + " ".join(lits) + ")"


def _smt2(logic: str, decls: list[str], asserts: list[str]) -> str:
    lines = [f"(set-logic {logic})"] + decls
    lines += [f"(assert {a})" for a in asserts]
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _real_decls(n: int) -> list[str]:
    return [f"(declare-fun x{i} () Real)" for i in range(n)]


# ---------------------------------------------------------------------------
# lra-core: random difference constraints
# ---------------------------------------------------------------------------

def gen_lra(rng: random.Random, p: dict, k: int) -> Instance:
    n = p["reals"]
    pairs = [(i, j) for i in range(n) for j in range(n) if i < j]
    asserts = []
    lo, hi = p["clauses"]
    for _ in range(lo + k % (hi - lo + 1)):
        width = rng.choice(p["widths"])
        lits = []
        for i, j in rng.sample(pairs, width):
            if rng.random() < 0.5:
                i, j = j, i
            lits.append(_diff_lit(rng, i, j, *p["constant"]))
        asserts.append(_clause(lits))
    return Instance("lra", _smt2("QF_LRA", _real_decls(n), asserts))


# ---------------------------------------------------------------------------
# euf-core: diamond chains closed by f(x0) != f(xn), plus congruence noise
# ---------------------------------------------------------------------------

def _diamond_asserts(n: int) -> list[str]:
    out = []
    for i in range(n):
        out.append(f"(or (and (= x{i} y{i}) (= y{i} x{i + 1})) "
                   f"(and (= x{i} z{i}) (= z{i} x{i + 1})))")
    out.append(f"(not (= (f x0) (f x{n})))")
    return out


def _euf_noise(rng: random.Random, n: int, extra: int, count: int,
               width: tuple[int, int]) -> list[str]:
    consts = [f"x{i}" for i in range(n + 1)] + [f"a{k}" for k in range(extra)]
    pool = consts + [f"(f {c})" for c in consts]
    pairs = [(s, t) for k, s in enumerate(pool) for t in pool[k + 1:]]
    out = []
    for _ in range(count):
        lits = []
        for s, t in rng.sample(pairs, rng.randint(*width)):
            atom = f"(= {s} {t})"
            lits.append(atom if rng.random() < 0.5 else f"(not {atom})")
        out.append(_clause(lits))
    return out


def _euf_text(n: int, extra: int, asserts: list[str]) -> str:
    decls = ["(declare-sort U 0)", "(declare-fun f (U) U)"]
    for i in range(n + 1):
        decls.append(f"(declare-fun x{i} () U)")
    for i in range(n):
        decls.append(f"(declare-fun y{i} () U)")
        decls.append(f"(declare-fun z{i} () U)")
    decls += [f"(declare-fun a{k} () U)" for k in range(extra)]
    return _smt2("QF_UF", decls, asserts)


def gen_euf(rng: random.Random, p: dict, k: int) -> Instance:
    n = p["diamonds"][k % len(p["diamonds"])]
    lo, hi = p["noise_clauses"]
    asserts = _diamond_asserts(n) + _euf_noise(
        rng, n, p["extra_consts"], lo + k % (hi - lo + 1), p["noise_width"])
    rng.shuffle(asserts)
    return Instance("euf", _euf_text(n, p["extra_consts"], asserts))


# ---------------------------------------------------------------------------
# prop-core: pigeonhole plus satisfiable noise over fresh Booleans
# ---------------------------------------------------------------------------

def gen_prop(rng: random.Random, p: dict, k: int) -> Instance:
    holes = p["holes"]
    pigeons = holes + 1
    php = []
    for i in range(pigeons):
        php.append(_clause([f"p{i}_{h}" for h in range(holes)]))
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                php.append(f"(or (not p{i}_{h}) (not p{j}_{h}))")
    nq = p["noise_vars"]
    planted = [rng.random() < 0.5 for _ in range(nq)]
    noise = []
    lo, hi = p["noise_clauses"]
    for _ in range(lo + k % (hi - lo + 1)):
        picked = rng.sample(range(nq), 3)
        signs = [rng.random() < 0.5 for _ in picked]
        if not any(s == planted[v] for v, s in zip(picked, signs)):
            signs[0] = planted[picked[0]]  # keep the planted model satisfying it
        noise.append(_clause([f"q{v}" if s else f"(not q{v})"
                              for v, s in zip(picked, signs)]))
    tagged = [(a, True) for a in php] + [(a, False) for a in noise]
    rng.shuffle(tagged)
    decls = [f"(declare-fun p{i}_{h} () Bool)"
             for i in range(pigeons) for h in range(holes)]
    decls += [f"(declare-fun q{v} () Bool)" for v in range(nq)]
    core = frozenset(aid for aid, (_a, is_php) in enumerate(tagged) if is_php)
    return Instance(f"php{pigeons}-{holes}",
                    _smt2("QF_UF", decls, [a for a, _ in tagged]), core)


# ---------------------------------------------------------------------------
# mus-enum: small unsat instances, half LRA and half EUF
# ---------------------------------------------------------------------------

def _negative_cycle(rng: random.Random, cycle: list[int]) -> list[str]:
    """Unit bounds x_i - x_next <= c_i along a cycle whose bounds sum below
    zero, so the units alone are unsat."""
    consts = [rng.randint(-2, 3) for _ in cycle]
    consts[-1] -= sum(consts) + rng.randint(1, 2)
    return [f"(<= (- x{i} x{j}) {_num(c)})"
            for (i, j), c in zip(zip(cycle, cycle[1:] + cycle[:1]), consts)]


def gen_mus(rng: random.Random, p: dict, k: int) -> Instance:
    if k % 2 == 0:
        lp = p["lra"]
        n = lp["reals"]
        verts = list(range(n))
        rng.shuffle(verts)
        asserts = _negative_cycle(rng, verts)
        pairs = [(i, j) for i in range(n) for j in range(n) if i < j]
        while len(asserts) < lp["clauses"]:
            lits = []
            for i, j in rng.sample(pairs, 2):
                if rng.random() < 0.5:
                    i, j = j, i
                lits.append(_diff_lit(rng, i, j, *lp["constant"]))
            asserts.append(_clause(lits))
        rng.shuffle(asserts)
        return Instance("mus-lra", _smt2("QF_LRA", _real_decls(n), asserts))
    ep = p["euf"]
    n = ep["diamonds"]
    asserts = _diamond_asserts(n) + _euf_noise(
        rng, n, ep["extra_consts"], ep["noise_clauses"], (2, 2))
    rng.shuffle(asserts)
    return Instance("mus-euf", _euf_text(n, ep["extra_consts"], asserts))


# Sizes cycle with the instance index, so a seed changes content but not the
# mix.  prop-core keeps to one pigeonhole size: with two, whose times differ
# fivefold, the median falls near the gap between them and jumps from seed
# to seed.
WORKLOADS = {
    w.name: w for w in [
        Workload(
            "lra-core",
            "random difference constraints: LRA theory deductions dominate, sat and "
            "unsat runs mixed (ROADMAP item 2, LRA)",
            {"reals": 4, "clauses": [14, 17], "widths": [2, 2, 3], "constant": [-4, 1]},
            per_second=6.0, generate=gen_lra),
        Workload(
            "euf-core",
            "diamond chains with congruence noise, unsat by construction: EUF "
            "deductions and replay backtracking dominate (ROADMAP item 2, EUF)",
            {"diamonds": [4, 5, 6], "extra_consts": 2, "noise_clauses": [6, 10],
             "noise_width": [2, 3]},
            per_second=5.8, generate=gen_euf, all_unsat=True),
        Workload(
            "prop-core",
            "pigeonhole plus satisfiable noise, no theory: CDCL search and Boolean "
            "extraction dominate (ROADMAP item 4); theory changes must not move it",
            {"holes": 5, "noise_vars": 16, "noise_clauses": [30, 50]},
            per_second=5.4, generate=gen_prop, all_unsat=True),
        Workload(
            "mus-enum",
            "small unsat LRA and EUF instances: many short fresh-engine solves in "
            "minimization and MCS enumeration (ROADMAP item 3)",
            {"lra": {"reals": 4, "clauses": 8, "constant": [-1, 3]},
             "euf": {"diamonds": 3, "extra_consts": 1, "noise_clauses": 1}},
            per_second=6.6, generate=gen_mus, all_unsat=True, minimize_and_enumerate=True),
    ]
}

# Which end-to-end metric each layer should move, and on which workloads;
# a change to one layer is judged against this before it is measured.
LAYER_EFFECTS = {
    "parser, cnf": "instance_ms.* only slightly, most on prop-core",
    "sat": "instance_ms.*, instances_per_s and peak_rss_mb on prop-core",
    "smt": "instance_ms.* on lra-core and euf-core; lemma counts can move core_ratio.mean",
    "theory.lra": "instance_ms.* on lra-core and the LRA half of mus-enum; "
                  "not on euf-core or prop-core",
    "theory.euf": "instance_ms.* on euf-core and the EUF half of mus-enum",
    "cores": "instance_ms.* on prop-core (extraction) and on mus-enum (minimization)",
    "mus": "instance_ms.* on mus-enum only",
}


def corpus_size(workload: Workload, seconds: float) -> int:
    return max(1, round(workload.per_second * seconds))


def build_corpus(workload: Workload, seed: int, seconds: float) -> list[Instance]:
    """The workload's instances for one seed and run length; the same seed
    gives the same texts in every process, whatever the hash seed."""
    rng = random.Random(f"{workload.name}/{seed}")
    out = []
    for k in range(corpus_size(workload, seconds)):
        inst = workload.generate(rng, workload.params, k)
        inst.name = f"{workload.name}/{seed}/{k}:{inst.name}"
        out.append(inst)
    return out
