"""Frame-level benchmark of the coded uplink simulator.

    python3 perfbench/run.py --workload coded16_k16 --seed 11 --seconds 45 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) through the
public ``mimodsp`` API, from the ``src/`` tree next to this directory.

``--trace 0`` repeats sweeps for ``--seconds``, times every library call
in them and reports the end-to-end metrics from each call's least time
(best of run); ``--trace 1`` alternates untraced sweeps with sweeps
of the rebuilt, traced frame loop and reports per-layer metrics, then
writes the spans to ``perfbench/out/``.  Every sweep's counts must equal
the first sweep's, the stored reference (at the default seeds) and the
traced loop's; any mismatch or error marks the run failed and the exit
code non-zero.  The last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7

# Spans whose summed time per frame evaluation is a per-layer metric.
LAYERS = ("channel.draw_estimate", "link.sim.frame_data",
          "link.coding.encode", "link.modem.map", "impairments.front_end",
          "equalization.build", "equalization.detect", "link.modem.demap",
          "link.coding.decode")


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cores": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "loadavg": os.getloadavg()}


class Runner:
    """Runs sweeps of one workload and checks every result."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def run(self, label, fn):
        """(wall s, ok) of one sweep; a failure is logged, not raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            print(f"sweep {label} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            self.failed += 1
            return time.perf_counter() - t0, False
        wall = time.perf_counter() - t0
        # JSON round trip so a stored reference and a fresh result compare alike
        result = json.loads(json.dumps(result))
        if self.expected is None:
            self.expected = result
        if result != self.expected:
            print(f"sweep {label}: counts differ from the reference\n"
                  f"  got      {result}\n  expected {self.expected}",
                  file=sys.stderr)
            self.failed += 1
            return wall, False
        return wall, True


def _reference(wl):
    refs = json.loads((HERE / "reference.json").read_text())
    ref = refs.get(wl.name)
    if ref and ref["seed"] == wl.seed and ref["frames"] == wl.configs[0].frames:
        return ref["result"]
    return None


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _spread(xs):
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"n={len(xs)}, q1 {q1:.4g}, q3 {q3:.4g}, max {max(xs):.4g}"


def _setup_s(wl):
    times = []
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", wl.name, "--seed", str(wl.seed)]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _best(sweeps, i):
    """Sum over a sweep's calls of each call's least time over the sweeps.

    ``sweeps`` holds one list of (wall s, CPU s) per call for each sweep.
    On a shared host other tenants only ever add time, so the quietest
    repetition of each call is the steadiest estimate of its own cost.
    """
    return sum(min(call[i] for call in calls) for calls in zip(*sweeps))


def end_to_end(wl, runner, seconds):
    """Untraced sweeps for ``seconds``; returns (metrics, report lines)."""
    sweeps = []
    t_end = time.perf_counter() + seconds
    while runner.attempted == 0 or time.perf_counter() < t_end:
        timings = []
        _, ok = runner.run(f"{runner.attempted}",
                           lambda: wl.sweep(timings=timings))
        if ok:
            sweeps.append(timings)
    kids_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    from frameloop import Tracer
    runner.run("traced-check", lambda: wl.traced_sweep(Tracer()))
    setups = _setup_s(wl)
    nan = float("nan")
    best_wall = _best(sweeps, 0) if sweeps else nan
    best_cpu = _best(sweeps, 1) if sweeps else nan
    frame_ms = [1e3 * sum(w for w, _ in t) / wl.evals for t in sweeps]
    cpu_ms = [1e3 * sum(c for _, c in t) / wl.evals for t in sweeps]
    metrics = {
        "info_bits_per_s": (wl.info_bits / best_wall, "bit/s"),
        "frame_ms": (1e3 * best_wall / wl.evals, "ms"),
        "cpu_frame_ms": (1e3 * best_cpu / wl.evals, "ms"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (own_rss_mb, "MB"),
    }
    lines = [
        f"whole-sweep frame_ms {_spread(frame_ms)}, median "
        f"{_median(frame_ms):.4g} ({wl.evals} frame x SNR evaluations and "
        f"{len(sweeps[0]) if sweeps else 0} timed calls per sweep)",
        f"whole-sweep cpu_frame_ms {_spread(cpu_ms)}, median "
        f"{_median(cpu_ms):.4g}",
        f"setup_s {_spread(setups)} (fresh processes)",
        f"peak_rss_mb process {own_rss_mb:.1f}, children {kids_rss_mb:.1f}",
        f"failed_fraction {runner.failed / runner.attempted:g} "
        f"({runner.failed} of {runner.attempted} sweeps)",
    ]
    return metrics, lines


def _sweep_layers(spans, evals):
    """Per-layer ms per frame evaluation from one traced sweep's spans."""
    total = defaultdict(float)
    by_parent = defaultdict(dict)
    rows, failed = [], 0
    for _sid, parent, name, start, end, attrs in spans:
        total[name] += end - start
        by_parent[parent][name] = end - start
        if name == "link.coding.decode":
            rows.append(attrs["rows"])
        failed += bool(attrs.get("failed"))
    overlay = sum(kids["equalization.detect"] - kids["equalization.detect_float"]
                  for kids in by_parent.values()
                  if "equalization.detect_float" in kids)
    from frameloop import FLOAT_PROBE
    traced = total["link.sim.sweep"] - sum(total[n] for n in FLOAT_PROBE)
    out = {f"{n}.ms_per_frame": 1e3 * total[n] / evals for n in LAYERS}
    out["equalization.detect_float.ms_per_frame"] = (
        1e3 * (total["equalization.detect"] - overlay) / evals)
    out["numerics.overlay.ms_per_frame"] = 1e3 * overlay / evals
    out["link.sim.other.ms_per_frame"] = (
        1e3 * traced / evals - sum(out[f"{n}.ms_per_frame"] for n in LAYERS))
    out["traced_ms"] = 1e3 * traced / evals
    out["link.coding.decode.batch"] = _median(rows) if rows else 0
    out["equalization.build.failed"] = failed
    return out


def per_layer(wl, runner, seconds):
    """Alternating untraced and traced sweeps; returns (metrics, lines)."""
    import frameloop
    tracer = frameloop.Tracer()
    untraced, serial, layers = [], [], []
    t_end = time.perf_counter() + seconds
    while runner.attempted == 0 or time.perf_counter() < t_end:
        wall, ok = runner.run(f"untraced-{len(untraced)}", wl.sweep)
        if ok:
            untraced.append(1e3 * wall / wl.evals)
        if wl.workers > 1:
            wall, ok = runner.run(f"serial-{len(serial)}",
                                  lambda: wl.sweep(workers=1))
            if ok:
                serial.append(1e3 * wall / wl.evals)
        first = len(tracer.spans)
        _, ok = runner.run(f"traced-{len(layers)}",
                           lambda: wl.traced_sweep(tracer))
        if ok:
            layers.append(_sweep_layers(tracer.spans[first:], wl.evals))
    if not layers:
        return {}, ["no traced sweep succeeded"]
    kids_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    serial = serial if wl.workers > 1 else untraced
    med = {key: _median([d[key] for d in layers]) for key in layers[0]}
    traced_ms = med.pop("traced_ms")
    detect_ms = med["equalization.detect.ms_per_frame"]
    real_mults = wl.detect_real_mults()
    metrics = {key: (value, "count" if key.endswith(("batch", "failed"))
                     else "ms") for key, value in med.items()}
    metrics.update({
        "link.coding.decode.ns_per_state_step.b160":
            (frameloop.viterbi_ns_per_state_step(160), "ns"),
        "link.coding.decode.ns_per_state_step.b1968":
            (frameloop.viterbi_ns_per_state_step(1968, repeats=1), "ns"),
        "numerics.fxp_quantize.ns_per_elem.128x512":
            (frameloop.quantize_ns_per_elem(128, 512), "ns"),
        "numerics.fxp_quantize.ns_per_elem.16x512":
            (frameloop.quantize_ns_per_elem(16, 512), "ns"),
        "equalization.detect.real_mults": (real_mults, "count"),
        "equalization.detect.mmults_per_s":
            (real_mults / detect_ms / 1e3, "Mmul/s"),
        "link.sim.parallel_speedup": (traced_ms / _median(untraced), "x"),
        "link.sim.pool.peak_rss_mb": (kids_rss_mb, "MB"),
        "trace.overhead": (traced_ms / _median(serial) - 1.0, "fraction"),
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    with path.open("w") as fh:
        for rec in tracer.records():
            fh.write(json.dumps(rec) + "\n")
    lines = [f"traced_ms {_spread([d['traced_ms'] for d in layers])}",
             f"untraced_ms at workers={wl.workers} {_spread(untraced)}",
             f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}",
             f"failed_fraction {runner.failed / runner.attempted:g} "
             f"({runner.failed} of {runner.attempted} sweeps)"]
    if wl.workers > 1:
        lines.insert(2, f"untraced_ms at workers=1 {_spread(serial)}")
    return metrics, lines


def run(name, seed, seconds, trace, frames=None):
    """One benchmark run; returns (result dict, report lines)."""
    import workloads
    wl = workloads.make(name, seed, frames)
    wl.warm()
    reference = _reference(wl)
    runner = Runner(reference)
    measure = per_layer if trace else end_to_end
    metrics, lines = measure(wl, runner, seconds)
    lines.insert(0, f"workload {wl.name} seed {wl.seed} trace {trace} "
                    f"reference {'stored' if reference else 'first sweep'}")
    lines.insert(1, "env " + json.dumps(environment()))
    lines += [f"{key} = {value:.6g} {unit}"
              for key, (value, unit) in metrics.items()]
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in metrics.items()}}
    return result, lines


def main(argv=None):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's criterion seed)")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if not (SRC / "mimodsp" / "__init__.py").is_file():
        sys.exit(f"run.py: no mimodsp source under {SRC}; run from a "
                 f"checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.exit(main())
