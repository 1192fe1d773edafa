"""Self-test of the benchmark itself, at one or two frames per point.

    python3 perfbench/selftest.py

Checks, and exits non-zero at the first failure:

1. for all eight detectors, with and without the fixed-point overlay, and
   for the front-end variants (faults excluded or ignored, a coarse ADC,
   uncoded QPSK), the traced frame loop reproduces ``run_uplink_ber``;
2. the traced outage study reproduces ``run_outage_study``;
3. every workload, in both trace modes, emits exactly the metrics that
   ``BENCHMARK.json`` lists, with their units, and passes its checks;
4. a sweep whose counts differ from the reference, or that raises, counts
   as failed.
"""
import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mimodsp import SimConfig, run_outage_study, run_uplink_ber  # noqa: E402

import frameloop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DETECTORS = ("mr", "zf", "mmse", "chd", "cd", "nsa", "wnsa", "mqrd")


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def traced_loop_matches_library():
    base = SimConfig(m=128, k=16, snr_db=(-13.0, -12.0),
                     constellation="16qam", coherence_uses=64, frames=2,
                     cd_sweeps=2, seed=5)
    cases = [replace(base, detector=d, signal_fraction_bits=bits,
                     operator_fraction_bits=bits)
             for d in DETECTORS for bits in (None, 8)]
    uncoded = replace(base, constellation="qpsk", coded=False,
                      snr_db=(-10.0, -8.0), detector="zf")
    cases += [replace(uncoded, victim_fraction=0.1, victim_policy=policy)
              for policy in ("exclude", "ignore")]
    cases += [replace(uncoded, adc_bits=4), replace(base, adc_bits=4)]
    for cfg in cases:
        want = run_uplink_ber(cfg).points
        got = frameloop.traced_ber(cfg, frameloop.Tracer()).points
        check(got == want,
              f"traced loop == run_uplink_ber: {cfg.detector} "
              f"coded={cfg.coded} bits={cfg.signal_fraction_bits} "
              f"faults={cfg.victim_policy} adc={cfg.adc_bits}")


def traced_outage_matches_library():
    cfg = workloads.make("outage_exclude_w2").configs[0]
    want = run_outage_study(cfg, (0.1,), "exclude", 1e-3)
    got = frameloop.traced_outage(cfg, (0.1,), "exclude", 1e-3,
                                  frameloop.Tracer())
    check(got == want, "traced outage == run_outage_study")


def metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check({w["name"] for w in spec["workloads"]} == set(workloads.NAMES),
          "BENCHMARK.json names every workload")
    for name in workloads.NAMES:
        frames = None if name == "outage_exclude_w2" else 1
        for trace in (0, 1):
            result, _ = run.run(name, None, 0.0, trace, frames=frames)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(result["correct"] and got == wanted[trace],
                  f"{name} trace {trace}: {len(got)} metrics with units")


def mismatch_counts_as_failed():
    runner = run.Runner({"zf": [[-12.0, 100, 3]]})
    _, ok = runner.run("changed", lambda: {"zf": [[-12.0, 100, 4]]})
    _, ok_raise = runner.run("raises", lambda: 1 / 0)
    _, ok_same = runner.run("same", lambda: {"zf": [[-12.0, 100, 3]]})
    check(not ok and not ok_raise and ok_same
          and (runner.attempted, runner.failed) == (3, 2),
          "differing counts and errors count as failed sweeps")


if __name__ == "__main__":
    mismatch_counts_as_failed()
    traced_loop_matches_library()
    traced_outage_matches_library()
    metrics_match_benchmark_json()
    print("selftest passed")
