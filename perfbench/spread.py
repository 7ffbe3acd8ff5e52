"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--compare earlier.json]

Runs run.py once per seed and workload (seeds first-seed, first-seed+1, ...),
one after another, and prints for every metric the median, the quartiles and
the spread (q3 - q1) / median, next to the metric's bound in BENCHMARK.json.
A spread at or above a third of the bound is flagged; setup_s is exempt from
the spread rule.  With --compare, the medians are also compared with an
earlier result file, where each may be worse by at most the bound.  Results
go to perfbench/out/spread-<time>.json.  Exits 1 when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--compare")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    results, ok = {}, True
    for workload in args.workloads.split(","):
        values = {name: [] for name in metrics}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = run_once(bench["command"], workload, seed, bench["run_seconds"])
            if not out["correct"] or out["failed"]:
                print(f"{workload} seed {seed}: {out['failed']} failed items")
                ok = False
            for name in metrics:
                values[name].append(out["metrics"][name]["value"])
        results[workload] = values
        for name, m in metrics.items():
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread >= m["bound"] / 3:
                flag = "  SPREAD >= bound/3"
                ok = ok and spread < m["bound"]
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                change = (med - before) / before * (1 if m["better"] == "lower" else -1)
                flag += f"  vs earlier {change:+.3f}"
                if change > m["bound"]:
                    flag += " WORSE THAN BOUND"
                    ok = False
            print(f"{workload:15s} {name:12s} median {med:10.5g} {m['unit']:4s} "
                  f"q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:.4f} "
                  f"bound {m['bound']}{flag}", flush=True)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(results))
    print(f"results written to {path.relative_to(ROOT)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
