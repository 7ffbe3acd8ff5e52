"""The benchmark's use of the qrlab API, checked in tier-1.

perfbench/ calls qrlab through fixed function names and keyword arguments,
and its tracer patches module attributes by name, raising on any name that
is missing or rebound.  This sends one small call of each kind through every
workload's ``run`` and ``check`` with the tracer installed and recording,
each case under its own item id, and pins the work traced for the paley
sweep and for one abelian subset of the small batch.  It runs in a
subprocess so the patched attributes do not leak into other tests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import spans
from workloads import Call, Counting, PaleyLarge, SmallBatch, SubgroupIndex

tracer = spans.Tracer()
spans.install(tracer)
tracer.active = True

paley, search, batch, counting = PaleyLarge(), SubgroupIndex(), SmallBatch(), Counting()
for workload in (paley, search, batch, counting):
    workload.setup(7)
cases = [(paley, Call("sweep", (13, 1))), (search, Call("search", (2, 3, 2)))]
first = {}
for call in batch.make_pass(0):
    first.setdefault(call.kind, call)
kinds = ("gowers", "abelian", "sl2", "irreps")
cases += [(batch, first[kind]) for kind in kinds]
text, _, want = counting.DIM_MEASURE[0]
cases.append((counting, Call("dim", (text, [101, 103, 107, 109, 113], want))))

failures = []
for i, (workload, call) in enumerate(cases):
    tracer.item = i
    err = workload.check(call, workload.run(call))
    if err:
        failures.append(f"{workload.name} {call.kind}: {err}")
items = {"paley": 0, "abelian": 2 + kinds.index("abelian")}
item_calls = {key: {name: stats["calls"] for name, stats in tracer.summarize({i}).items()}
              for key, i in items.items()}
print(json.dumps({"calls": len(cases), "failures": failures,
                  "traced": sorted(tracer.summarize()),
                  "item_calls": item_calls}))
"""


def test_workloads_run_and_check_under_tracer():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["calls"] == 7
    assert out["failures"] == []
    for name in ("reglab.sweep", "reglab.subgroup_search", "quasi.eps3_spectral",
                 "quasi.eps1_quasirandomness", "quasi.verify_gowers_relations",
                 "fourier.subset_qr_characters", "fourier.irrep_dimensions",
                 "reglab.estimate_dim_measure", "defform.evaluate"):
        assert name in out["traced"], name
    # the paley sweep at index 1: one search, whose one coset block is the
    # full graph; (F_q, +) has a digit layout, so its eps1 and eps3 come from
    # the batched transform, with no dense kernel called
    paley = out["item_calls"]["paley"]
    assert paley["reglab.subgroup_search"] == 1
    assert paley.get("quasi.eps3_spectral", 0) == 0
    assert paley.get("quasi.eps1_quasirandomness", 0) == 0
    assert paley.get("reglab.translate_fourier_eps", 0) == 0
    # one abelian subset through both subset routes: quasi.block_stats sends
    # Z/n and (F_q, +) through the transform, so no graph and no eigh
    abelian = out["item_calls"]["abelian"]
    assert abelian["fourier.subset_qr_spectral"] == 1
    assert abelian["fourier.subset_qr_characters"] == 1
    for name in ("quasi.cayley_bipartite", "quasi.eps1_quasirandomness",
                 "quasi.eps3_spectral"):
        assert abelian.get(name, 0) == 0, name
