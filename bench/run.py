"""The valuedfields benchmark.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own single-threaded worker process as a closed
loop with one caller.  Inputs come from --seed and are generated before
timing starts; every output is checked against the reference code in
bench/oracles.py.  With --trace 0 the end-to-end metrics are measured with
no instrumentation; with --trace 1 a separate worker reports per-layer
metrics.  The last line of standard output is one JSON object; the lines
before it are a table of every metric with its unit and sample count.
See bench/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# neither module imports library code, so run.py starts without src/
from calibrate import REF_MS  # noqa: E402
from tracing import EXERCISED, MODULES  # noqa: E402

WORKLOADS = tuple(EXERCISED)

SETUPS = 7  # set-ups per run; setup_s is their median
DEADLINE_S = 175  # each workload must end within 180 s

# metrics in the JSON result line of a timed run; the table shows all rows
END_TO_END = ("ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb")

COUNTS = (
    *(f"{m}.calls" for m in MODULES),
    "series.mul_series.calls",
    "series.mul_series.term_pairs",
    "series.invert.calls",
    "series.invert.mul_calls",
    "series.make_series.terms_in",
    "series.unit_nth_root.calls",
    "hensel.newton_steps",
    "hensel.eval_calls",
    "groups.cmp.calls",
    "groups.arith.calls",
    "fields.mul.calls.Fp",
    "fields.mul.calls.Fpn",
    "fields.mul.calls.Q",
    "fields.inverse.calls",
)
# self time, and the inclusive time of invert, as shares of traced op time
SHARES = (*(f"{m}.self" for m in MODULES), "series.mul_series.self", "series.invert.self",
          "series.invert.total", "fields.GF.self")


class BenchError(Exception):
    pass


def worker(name, seed, seconds, mode, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(seconds), mode]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} {mode} worker did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{name} {mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name, seed, seconds, trace, deadline):
    """(result dict, table rows) for one workload."""
    if trace:
        res = worker(name, seed, seconds, "trace", deadline)
        return res, _layer_rows(res)
    setups = [worker(name, seed, 0, "setup", deadline) for _ in range(SETUPS - 1)]
    res = worker(name, seed, seconds, "time", deadline)
    setups.append(res)
    n, inputs = res["attempted"], res["attempted"] // res["passes"]
    samples = f"{n} ops, {inputs} inputs x {res['passes']} passes"
    wall_setup = statistics.median(s["wall_setup_s"] for s in setups)
    rows = [
        ("ops_per_s", res["ops_per_s"], "1/s", f"{samples}; wall {res['wall_ops_per_s']:.6g}"),
        ("op_p50_ms", res["op_p50_ms"], "ms", f"{samples}; wall {res['wall_op_p50_ms']:.6g}"),
        ("op_p90_ms", res.get("op_p90_ms"), "ms", samples if inputs >= 100 else "needs 100 inputs"),
        ("setup_s", statistics.median(s["setup_s"] for s in setups), "s",
         f"{SETUPS} set-ups; wall {wall_setup:.6g}"),
        ("peak_rss_mb", res["peak_rss_mb"], "MB", "1 process"),
        ("kernel_ms", res["kernel_ms"], "ms", f"{res['kernel_runs']} runs; figures scaled to {REF_MS}"),
        ("failed_ratio", len(res["failures"]) / n, "ratio", f"{len(res['failures'])}/{n} ops"),
    ]
    return res, rows


def _layer_rows(res):
    layers, traced_s = res["layers"], res["traced_op_s"]
    rows = [
        (f"{key}_share", 100 * layers[f"{key}_s"] / traced_s, "%", f"{layers[f'{key}_s']:.4f} s")
        for key in SHARES
    ]
    rows += [(key, layers.get(key, 0), "count", "exact") for key in COUNTS]
    plain_s = res["plain_op_s"]
    rows.append(("trace.overhead_ratio", traced_s / plain_s, "ratio",
                 f"{traced_s:.3f} s / {plain_s:.3f} s; counters {res['counted_op_s'] / plain_s:.2f}x"))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description="valuedfields benchmark")
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            res, rows = measure(name, args.seed, args.seconds, args.trace, deadline)
            attempted += res["attempted"]
            failed += len(res["failures"])
            for why in res["failures"][:5]:
                print(f"FAILED {name}: {why}")
            for metric, value, unit, samples in rows:
                shown = "n/a" if value is None else f"{value:.6g}"
                print(f"{name:<12} {metric:<30} {shown:>14} {unit:<6} ({samples})")
                if args.trace or metric in END_TO_END:
                    key = metric if len(names) == 1 else f"{name}.{metric}"
                    metrics[key] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
