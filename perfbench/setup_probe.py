"""Print a fresh process's set-up time for one workload, in seconds.

Set-up runs from the start of ``import mimodsp`` until the first timed
sweep could start: the import, building and validating the workload's
configs, and one warm-up frame per config.  ``run.py`` starts this script
several times and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py --workload coded16_k16 --seed 11
"""
import argparse
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()
    if not (SRC / "mimodsp" / "__init__.py").is_file():
        sys.exit(f"setup_probe: no mimodsp source under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import mimodsp  # noqa: F401  (the import is what is timed)
    import workloads
    wl = workloads.make(args.workload, args.seed)
    for cfg in wl.configs:
        cfg.validate()
    wl.warm()
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
