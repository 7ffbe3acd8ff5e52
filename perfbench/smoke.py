"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

From the repository root it

1. checks the Paley closed forms used as oracles against qrlab on nine
   fields (five with q = 1 mod 4, four with q = 3 mod 4);
2. runs every workload once with --trace 0 and once with --trace 1, with a
   fixed seed and a short --seconds, and checks that each run prints every
   metric named in BENCHMARK.json with its unit, fails no item, and that the
   traced layer self times add up to within 5% of the traced wall time;
3. checks that run.py fails, without printing a result, in a directory that
   holds only BENCHMARK.json and the benchmark's files.

Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SECONDS = 1
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def report(ok, what):
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def check_paley_closed_forms():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import oracles
    from qrlab import quasi, reglab
    family = reglab.builtin_families()["paley"]
    for q in (5, 13, 17, 29, 37, 7, 11, 19, 23):
        g, d, _ = family.instantiate(q)
        bg = quasi.cayley_bipartite(g, d)
        e1 = quasi.eps1_quasirandomness(bg)
        e3, _ = quasi.eps3_spectral(bg)
        ok = e1 == oracles.paley_eps1(q) and abs(e3 - oracles.paley_eps3(q)) <= 1e-6
        report(ok, f"Paley q={q} (q mod 4 = {q % 4}): eps1 {e1}, eps3 {e3:.9f} "
                   "match the closed forms")


def run_bench(bench, cwd, workload, trace):
    return subprocess.run(bench["command"] + ["--workload", workload, "--seed", str(SEED),
                                              "--seconds", str(SECONDS), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(bench, workload, trace):
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    proc = run_bench(bench, ROOT, workload, trace)
    what = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        report(False, f"{what}: exit code {proc.returncode}\n{proc.stderr}")
        return
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    report(set(out) == RESULT_KEYS, f"{what}: result keys {sorted(out)}")
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    report(got == expected, f"{what}: prints all {len(expected)} metrics with their units")
    report(all(isinstance(v["value"], (int, float)) for v in out["metrics"].values()),
           f"{what}: every value is a number")
    report(out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
           f"{what}: error_rate {out['failed']}/{out['attempted']} = 0")
    if trace:
        cov = out["metrics"]["trace.coverage"]["value"]
        report(abs(cov - 1) <= 0.05, f"{what}: layer self times cover {cov:.4f} "
                                     "of the traced wall time")
    else:
        report(all(v["value"] > 0 for v in out["metrics"].values()),
               f"{what}: every end-to-end value is above 0")


def check_bare_directory(bench):
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for rel in bench["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bench, bare, bench["workloads"][0]["name"], 0)
    printed_result = '"correct"' in proc.stdout
    shutil.rmtree(bare)
    report(proc.returncode != 0 and not printed_result,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_paley_closed_forms()
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
    check_bare_directory(bench)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
