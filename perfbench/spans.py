"""Outside-in tracing of the smtcore layers.

`install` replaces public module attributes and class methods of an
imported smtcore with wrappers that record a span per call (name, start,
end, parent span, instance id) and a few counts read off arguments and
results.  Nothing under `src/` is edited.  Spans stay in memory; self time
is derived from them afterwards as span time minus the time covered by
child spans.  `SatSolver.value` is deliberately not wrapped: it runs tens
of millions of times and timing it would measure the wrapper.
"""
from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, instance]
        self._stack: list[int] = []
        self.open: Counter = Counter()  # span name -> number currently open
        self.counts: Counter = Counter()
        self.instance = -1

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.instance])
        self._stack.append(idx)
        self.open[name] += 1
        return idx

    def end(self, idx: int):
        span = self.spans[idx]
        span[2] = perf_counter()
        self._stack.pop()
        self.open[span[0]] -= 1

    def self_times(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: summed self seconds, summed total seconds, calls."""
        child = defaultdict(float)
        for name, start, end, parent, _inst in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, total_s, calls = Counter(), Counter(), Counter()
        for idx, (name, start, end, _parent, _inst) in enumerate(self.spans):
            self_s[name] += (end - start) - child[idx]
            total_s[name] += end - start
            calls[name] += 1
        return self_s, total_s, calls

    def write(self, path):
        """One tab-separated line per span, times in microseconds from the
        first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\tinstance\n")
            for idx, (name, start, end, parent, inst) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{(start - t0) * 1e6:.1f}\t"
                         f"{(end - t0) * 1e6:.1f}\t{parent}\t{inst}\n")


def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _learned(solver) -> int:
    return sum(1 for origin in solver.origins if origin[0] == "learned")


def _proof_nodes(solver) -> int:
    return len(solver.proof.nodes) if solver.proof is not None else 0


def install(tracer: Tracer, sm):
    """Wrap the public entry points of each layer of the imported smtcore
    package `sm` for the rest of the process."""
    c = tracer.counts

    def patch(owner, attr, name, after=None):
        setattr(owner, attr, _span(tracer, name, getattr(owner, attr), after))

    patch(sm.parser, "parse", "parser.parse",
          lambda a, r: c.update({"parser.bytes": len(a[0])}))
    patch(sm.cnf, "cnf_convert", "cnf.convert",
          lambda a, r: c.update({"cnf.clauses": len(r.clauses)}))

    def after_smt_solve(a, r):
        kinds = Counter(lemma.kind for lemma in a[0].store)
        c["smt.lemmas.conflict"] += kinds["theory-conflict"]
        c["smt.lemmas.deduction"] += kinds["theory-deduction"]
        if tracer.open["cores.minimize_core"]:
            c["cores.minimize_core.trials"] += 1
        if tracer.open["mus.enumerate_mcs"]:
            c["mus.enumerate_mcs.solves"] += 1

    engine = sm.smt.SmtSolver
    patch(engine, "__init__", "smt.init")
    patch(engine, "solve", "smt.solve", after_smt_solve)
    for hook in ("hook_fixpoint", "hook_final", "hook_backjump"):
        patch(engine, hook, f"smt.{hook}")

    # Every CDCL run, inside SMT engines and Boolean extraction alike.  This
    # wrapper only counts, so CDCL time stays in the smt.solve and
    # cores.extract_sat spans.
    sat_solve = sm.sat.SatSolver.solve

    @functools.wraps(sat_solve)
    def counted_sat_solve(self, *args, **kwargs):
        before = (self.conflicts, _learned(self), _proof_nodes(self))
        try:
            return sat_solve(self, *args, **kwargs)
        finally:
            c["sat.conflicts"] += self.conflicts - before[0]
            c["sat.learned"] += _learned(self) - before[1]
            c["sat.proof_nodes"] += _proof_nodes(self) - before[2]

    sm.sat.SatSolver.solve = counted_sat_solve

    for cls, prefix in ((sm.theory.LraSolver, "lra"), (sm.theory.EufSolver, "euf")):
        for method in ("assert_literal", "check_full", "backtrack"):
            patch(cls, method, f"{prefix}.{method}")
        patch(cls, "deductions", f"{prefix}.deductions",
              lambda a, r, key=f"{prefix}.deductions.found": c.update({key: len(r)}))

    patch(sm.cores, "lemma_lift_core", "cores.lemma_lift_core")
    patch(sm.cores, "boolean_core", "cores.boolean_core",
          lambda a, r: c.update({"cores.boolean_core.in_clauses": len(a[0]),
                                 "cores.boolean_core.out_clauses": len(r)}))
    patch(sm.cores, "sat_solve", "cores.extract_sat")
    patch(sm.cores, "check_core", "cores.check_core")
    patch(sm.cores, "minimize_core", "cores.minimize_core",
          lambda a, r: c.update({"cores.minimize_core.removed": len(set(a[1])) - len(r)}))
    patch(sm.mus, "enumerate_mcs", "mus.enumerate_mcs",
          lambda a, r: c.update({"mus.enumerate_mcs.mcs": len(r.mcses)}))
    patch(sm.mus, "minimal_hitting_sets", "mus.minimal_hitting_sets",
          lambda a, r: c.update({"mus.minimal_hitting_sets.mus": len(r.muses)}))
