"""One workload in one single-threaded process.

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (set up, report the set-up time, stop), ``time`` (set
up, then run whole passes over the inputs until SECONDS have elapsed) or
``trace`` (set up, then one untraced, one span-traced and one counted pass).
Prints one JSON object on its last line.  ``run.py`` starts this script; it
is not meant to be run by hand.
"""

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate  # imports no library code

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_PASSES = 3


def run_pass(ops, speed=None):
    """Latency and raw result of each op; an exception is a result too.
    With a calibrate.Speed, the kernel runs between ops, untimed."""
    latencies, results = [], []
    clock = time.perf_counter
    for op in ops:
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:  # counted as a failure by check_pass
            result = exc
        latency = clock() - t0
        latencies.append(latency)
        results.append(result)
        if speed:
            speed.after(latency)
    return latencies, results


def check_pass(ops, results):
    failures = []
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            why = f"raised {result!r}"
        else:
            try:
                why = op.check(result)
            except Exception as exc:  # malformed output
                why = f"check raised {exc!r}"
        if why:
            failures.append(f"{op.label}: {why}")
    return failures


def timed(wl, seconds):
    """Whole passes until SECONDS have elapsed, and at least MIN_PASSES.
    Each input's latency is its mean over the passes, scaled to the
    reference host by the calibration kernel run between ops; the wall_
    figures are the same, unscaled.  Throughput and percentiles are taken
    over the per-input latencies."""
    sums = [0.0] * len(wl.ops)
    failures = []
    passes = 0
    speed = calibrate.Speed()
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        lat, results = run_pass(wl.ops, speed)
        sums = [a + b for a, b in zip(sums, lat)]
        failures += check_pass(wl.ops, results)
        passes += 1
    wall = [t / passes for t in sums]
    scaled = [t * speed.scale() for t in wall]
    out = {
        "attempted": passes * len(wl.ops),
        "passes": passes,
        "failures": failures,
        "kernel_ms": speed.mean_ms(),
        "kernel_runs": speed.runs,
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_op_p50_ms": statistics.median(wall) * 1e3,
    }
    if len(scaled) >= 100:
        out["op_p90_ms"] = statistics.quantiles(scaled, n=10)[-1] * 1e3
    return out


def traced(wl):
    import tracing

    plain, results = run_pass(wl.ops)
    failures = check_pass(wl.ops, results)
    with tracing.Spans() as spans:
        spanned, results = run_pass(wl.ops)
    failures += check_pass(wl.ops, results)
    with tracing.ElementCounter() as counter:
        counted, results = run_pass(wl.ops)
    failures += check_pass(wl.ops, results)

    counts = dict(counter.counts)
    missing = [
        key for key in tracing.EXERCISED[wl.name]
        if not spans.calls.get(key, counts.get(key, 0))
    ]
    if missing:
        raise RuntimeError(f"instrumented functions never reached on {wl.name}: {missing}")

    traced_s = sum(spanned)
    layers = {}
    for m in tracing.MODULES:
        layers[f"{m}.self_s"] = spans.module_self_s(m)
        layers[f"{m}.calls"] = spans.module_calls(m)
    for key in ("series.mul_series", "series.invert", "fields.GF"):
        layers[f"{key}.self_s"] = spans.self_s[key]
    layers["series.invert.total_s"] = spans.total_s["series.invert"]
    for key in ("series.mul_series", "series.invert", "series.unit_nth_root"):
        layers[f"{key}.calls"] = spans.calls[key]
    layers.update(spans.extra)
    layers["hensel.eval_calls"] = (
        spans.calls["hensel.SeriesPoly.eval"] + spans.calls["hensel.eval_poly_at_series"]
    )
    layers.update(counts)
    return {
        "attempted": 3 * len(wl.ops),
        "failures": failures,
        "layers": layers,
        "traced_op_s": traced_s,
        "plain_op_s": sum(plain),
        "counted_op_s": sum(counted),
    }


def main(argv):
    name, seed, seconds, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    import valuedfields

    if not Path(valuedfields.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"valuedfields imported from {valuedfields.__file__}, not {ROOT / 'src'}")
    import workloads

    wl = workloads.build(name, seed)
    for op in wl.warmup:
        op.run()
    wall_setup_s = time.perf_counter() - START
    speed = calibrate.Speed()
    speed.sample(calibrate.SETUP_REPS)
    out = {"setup_s": wall_setup_s * speed.scale(), "wall_setup_s": wall_setup_s}
    if mode != "setup":
        gc.collect()
        out.update(timed(wl, seconds) if mode == "time" else traced(wl))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
