"""qrlab benchmark: one seeded workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports qrlab from ./src and refuses to
run without it.  The workload repeats passes (its list of calls, see
workloads.py) until S seconds have gone by, at least one pass and at most
the workload's max_passes.  Every output is checked against an independent
oracle after its pass.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones.
Set-up times, and on workloads of short calls (Workload.scaled) all times,
are scaled by a machine-speed probe (speed.py) that the run times around
set-up and between calls; the raw figures are printed on the lines above.
With --trace 1 the run installs span wrappers (spans.py), runs the same
passes traced and then untraced, prints the per-layer metrics and writes the
spans to perfbench/out/trace-<workload>-seed<N>.json.
"""

import time

T0 = time.perf_counter()  # set-up time is counted from here

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread.  On a 2-vCPU guest two threads made Paley sweeps faster
# (8.7-10.2 s against 12.0-14.3 s for one) but no steadier, and the idle
# OpenBLAS thread spun on the second vCPU (small_batch used 12.4 s of CPU in
# 7.2 s); with one thread the work and the speed probe share one vCPU.
BLAS_THREADS = 1
SETUP_SAMPLES = 5  # set-ups measured per run: this process plus 4 fresh ones
PROBE_EVERY_S = 0.25  # run a speed probe after this much timed work
PROBES_AROUND = 5  # probes before the first pass and after the last
ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
                    "item_ms_p50": "ms", "item_ms_p99": "ms", "peak_rss_mb": "MB"}


def pin_threads() -> int:
    """Fixes the BLAS/OpenMP thread count; must run before numpy is imported."""
    n = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_qrlab():
    if not (SRC / "qrlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC}/qrlab not found; run from the repository root")
    sys.path[:0] = [str(SRC), str(HERE)]
    import qrlab
    if Path(qrlab.__file__).resolve().parent != (SRC / "qrlab").resolve():
        sys.exit(f"perfbench: imported qrlab from {qrlab.__file__}, not {SRC}")


THREADS = pin_threads()
import_qrlab()
import numpy as np  # noqa: E402  (after the thread pinning and the src check)

import spans  # noqa: E402
from speed import SpeedLog  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment(threads: int, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        blas = "unknown"
    return {"blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__, "blas": blas,
            "python": sys.version.split()[0], "seed": seed}


def percentile(values, share):
    """Nearest-rank percentile: the smallest value with at least share of the
    values at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


class PassRecord:
    def __init__(self, wall, latencies, units, failed, errors):
        self.wall = wall
        self.latencies = latencies  # seconds per item
        self.units = units
        self.failed = failed
        self.errors = errors


def run_pass(workload, k, tracer=None, probes=None) -> PassRecord:
    """Times every call of pass k, then checks the outputs against oracles.

    With a SpeedLog, a speed probe runs between calls after every
    PROBE_EVERY_S of work; its time is left out of the pass wall time."""
    calls = workload.make_pass(k)
    times, results = [], []
    clock = time.perf_counter
    probing = 0.0
    if tracer is not None:
        tracer.active = True
    start = last_probe = clock()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.item = f"{k}.{i}"
        t = clock()
        try:
            out = workload.run(call)
        except Exception as exc:  # a raising call is a failed item
            out = exc
        done = clock()
        times.append(done - t)
        results.append(out)
        if probes is not None and done - last_probe >= PROBE_EVERY_S:
            probes.take()
            last_probe = clock()
            probing += last_probe - done
    wall = clock() - start - probing
    if tracer is not None:
        tracer.active = False
    failed, errors = 0, []
    for call, out in zip(calls, results):
        if isinstance(out, Exception):
            err = f"{type(out).__name__}: {out}"
        else:
            try:
                err = workload.check(call, out)
            except Exception as exc:
                err = f"oracle check raised {type(exc).__name__}: {exc}"
        if err:
            failed += call.units
            errors.append(err)
    units = sum(c.units for c in calls)
    # A call covering several items has no per-item latency of its own; the
    # pass's mean item time stands in for it, one sample per pass.
    latencies = times if units == len(calls) else [wall / units]
    return PassRecord(wall, latencies, units, failed, errors)


def run_passes(workload, seconds, count=None, tracer=None, probes=None) -> list:
    """Passes until `seconds` have elapsed (capped by the workload's
    max_passes), or exactly `count` passes."""
    records = []
    start = time.perf_counter()
    while True:
        records.append(run_pass(workload, len(records), tracer, probes))
        if count is not None:
            if len(records) >= count:
                return records
        elif (workload.max_passes and len(records) >= workload.max_passes) \
                or time.perf_counter() - start >= seconds:
            return records


def probed_passes(workload, seconds, count=None, tracer=None):
    """run_passes with speed probes before, between and after: (records, log)."""
    probes = SpeedLog()
    probes.take(PROBES_AROUND)
    records = run_passes(workload, seconds, count, tracer, probes)
    probes.take(PROBES_AROUND)
    return records, probes


def scaled_setup(setup_s) -> float:
    """Set-up time scaled by probes taken right after it.  Set-up is short on
    every workload, so it is always scaled (raw set-up times spread 0.3 over
    ten seeds, scaled ones under 0.1)."""
    probes = SpeedLog()
    probes.take(PROBES_AROUND)
    return setup_s * probes.scale()


def fresh_setup_times(args, samples) -> list:
    """Scaled set-up time of `samples` fresh processes running --setup-only."""
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def end_to_end(records, setup_times, scale) -> tuple:
    """(metrics, raw values).  Times are multiplied by scale (1 for the
    workloads that report raw times)."""
    walls = [r.wall for r in records]
    latencies = [t for r in records for t in r.latencies]
    raw = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(r.units / r.wall for r in records),
        "item_ms_p50": 1e3 * statistics.median(latencies),
        "item_ms_p99": 1e3 * percentile(latencies, 0.99),
    }
    values = {"setup_s": statistics.median(setup_times)}
    values.update({k: v / scale if k == "items_per_s" else v * scale
                   for k, v in raw.items()})
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, raw


def per_layer(tracer, traced, untraced, scale_traced, scale_untraced) -> tuple:
    traced_spans = [span for span in tracer.spans if span[4] != "setup"]
    traced_items = {span[4] for span in traced_spans}
    summary = tracer.summarize(traced_items)
    # means over passes, so they add up with the per-pass layer figures
    traced_wall = statistics.fmean(r.wall for r in traced)
    untraced_wall = statistics.fmean(r.wall for r in untraced)
    n_traced = len(traced)
    values = {}
    for name, stats in spans.LAYER_METRICS.items():
        got = summary.get(name, {})
        for stat in stats:
            v = got.get(stat, 0.0)
            # per-pass figures, comparable with wall_s
            values[f"{name}.{stat}"] = v if stat == "unique_ratio" else v / n_traced
    layer_self = 0.0
    for layer in spans.LAYERS:
        total = sum(stats.get("self_s", 0.0) for name, stats in summary.items()
                    if name.split(".")[0] == layer) / n_traced
        values[f"{layer}.all.self_s"] = total
        layer_self += total
    values.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        # scaled by each phase's own probes, so machine drift between the
        # traced and the untraced passes does not show as overhead
        "trace.overhead_s": traced_wall * scale_traced - untraced_wall * scale_untraced,
        "trace.layer_self_s": layer_self,
        "trace.coverage": layer_self / traced_wall,
        "trace.spans": len(traced_spans) / n_traced,
    })
    units = spans.per_layer_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    setup_summary = tracer.summarize({"setup"})
    return metrics, summary, setup_summary


def write_trace(args, env, tracer, metrics, summary, setup_summary):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload, "env": env,
        "metrics": metrics,
        "derived": summary,
        "setup": setup_summary,
        "spans_fields": ["name", "start_s", "end_s", "parent", "item"],
        "spans": [[n, round(a - T0, 9), round(b - T0, 9), p, item]
                  for n, a, b, p, item in tracer.spans],
    }
    path.write_text(json.dumps(doc))
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.active, tracer.item = True, "setup"
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    workload.make_pass(0)  # input generation is part of set-up
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": scaled_setup(setup_s)}))
        return
    env = environment(THREADS, args.seed)
    print(json.dumps({"workload": args.workload, "unit": workload.unit, "env": env}))

    if tracer is not None:
        tracer.active = False
        # traced passes first, so they see the same cold caches as --trace 0
        traced, probes_t = probed_passes(workload, args.seconds, tracer=tracer)
        untraced, probes_u = probed_passes(workload, args.seconds, count=len(traced))
        records = traced + untraced
        metrics, summary, setup_summary = per_layer(tracer, traced, untraced,
                                                    probes_t.scale(), probes_u.scale())
        path = write_trace(args, env, tracer, metrics, summary, setup_summary)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        records, probes = probed_passes(workload, args.seconds)
        setup_times = [scaled_setup(setup_s)] + fresh_setup_times(args, SETUP_SAMPLES - 1)
        scale = probes.scale() if workload.scaled else 1.0
        metrics, raw = end_to_end(records, setup_times, scale)
        print(f"raw (unscaled) {json.dumps(raw)}  raw setup_s {setup_s:.6g}  "
              f"probe median {statistics.median(probes.times):.6g} s "
              f"over {len(probes.times)}")

    attempted = sum(r.units for r in records)
    failed = sum(r.failed for r in records)
    for err in [e for r in records for e in r.errors][:10]:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"passes {len(records)}  items {attempted}  latency samples "
          f"{sum(len(r.latencies) for r in records)}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed}/{attempted} items)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
