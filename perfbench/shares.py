"""Write PROFILE.json: per workload, its generator parameters, why it was
chosen, and the share of traced time each layer took.

    python3 perfbench/shares.py

Each workload runs once with `run.py --trace 1 --seed 1` in a subprocess
started from the repository root.  A layer's share is its summed self time divided
by the summed self time of all spans, which covers the traced pass; a
phase's share (verification, minimization, enumeration) uses its whole
span time instead.  The file also records which end-to-end metric each
layer should move.
"""
from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import LAYER_EFFECTS, WORKLOADS, corpus_size  # noqa: E402

SEED = 1

LAYER_OF = {  # self-time metric prefix -> layer
    "bench.instance": "bench", "parser.parse": "parser", "cnf.convert": "cnf",
    "sat.search": "sat", "smt.init": "smt", "smt.hook_fixpoint": "smt",
    "smt.hook_final": "smt", "smt.hook_backjump": "smt",
    "cores.lemma_lift_core": "cores", "cores.boolean_core": "cores",
    "cores.extract_sat": "cores", "cores.check_core": "cores",
    "cores.minimize_core": "cores", "mus.enumerate_mcs": "mus",
    "mus.minimal_hitting_sets": "mus",
}


def layer(prefix: str) -> str:
    if prefix.startswith(("lra.", "euf.")):
        return "theory." + prefix.split(".")[0]
    return LAYER_OF[prefix]


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {
        "how": f"perfbench/run.py --trace 1 --seed {SEED} on each workload",
        "machine": f"{platform.machine()}, {platform.python_implementation()} "
                   f"{platform.python_version()}",
        "layer_effects": LAYER_EFFECTS,
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(SEED), "--seconds", str(seconds), "--trace", "1"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        metrics = {k: v["value"] for k, v in
                   json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
        self_ms = {k[:-len(".self_ms")]: v for k, v in metrics.items() if k.endswith(".self_ms")}
        total = sum(self_ms.values())
        layers: dict[str, float] = {}
        for prefix, ms in self_ms.items():
            layers[layer(prefix)] = layers.get(layer(prefix), 0.0) + ms / total
        out["workloads"][name] = {
            "why": workload.why,
            "params": workload.params,
            "corpus_size": corpus_size(workload, seconds),
            "traced_ms": round(total, 1),
            "layer_shares": {k: round(v, 4) for k, v in sorted(layers.items(), key=lambda kv: -kv[1])},
            "span_shares": {k: round(v / total, 4) for k, v in
                            sorted(self_ms.items(), key=lambda kv: -kv[1]) if v / total >= 0.005},
            "phase_shares": {k[:-len(".total_ms")]: round(v / total, 4)
                             for k, v in metrics.items() if k.endswith(".total_ms")},
            "counts": {k: v for k, v in metrics.items()
                       if not k.endswith((".self_ms", ".total_ms"))},
        }
        print(name, out["workloads"][name]["layer_shares"])
    (HERE / "PROFILE.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
