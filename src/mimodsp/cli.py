"""Config-driven experiment runner emitting CSV artifacts.

``mimodsp run --config cfg.yaml`` executes the experiment named in the
config and writes one CSV whose comment header echoes the full config,
the package version, and the seed, so a run can be reproduced from its
output alone.  ``mimodsp validate --config cfg.yaml`` dry-runs the
schema checks.  Exit codes: 0 success, 1 validation failure, 2 runtime
failure.
"""
from __future__ import annotations

import argparse
import csv
import logging
import math
import sys
from dataclasses import asdict, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import yaml

from . import __version__
from .channel import hardening_variance, stream_rng
from .complexity import ALGORITHMS, table2_cost
from .decentral import InterconnectConfig, interconnect_rate
from .impairments import PaModel
from .link import (SimConfig, run_calibration_study, run_downlink_evm,
                   run_outage_study, run_uplink_ber)
from .link.modem import _ORDERS

log = logging.getLogger("mimodsp")

EXPERIMENTS = ("ber", "evm_vs_m", "fxp_sweep", "outage", "complexity_table",
               "interconnect", "hardening", "calibration")


class ConfigError(ValueError):
    """Validation failure; the message names the offending field(s)."""


# ---------------------------------------------------------------- schema


class _Schema:
    """Typed key extraction with unknown-key detection."""

    def __init__(self, raw: dict, context: str):
        if not isinstance(raw, dict):
            raise ConfigError(f"{context}: expected a mapping")
        self.raw = dict(raw)
        self.context = context
        self.errors: List[str] = []
        self.seen = set()

    def take(self, key, default=None, required=False, typ=None, choices=None,
             minimum=None):
        self.seen.add(key)
        if key not in self.raw:
            if required:
                self.errors.append(f"{key}: required")
            return default
        val = self.raw[key]
        if typ is not None:
            try:
                # an explicit null would skip the range checks below
                if val is None or (typ is int and isinstance(val, bool)):
                    raise TypeError
                val = typ(val)
            except (TypeError, ValueError):
                self.errors.append(f"{key}: expected {typ.__name__}, "
                                   f"got {val!r}")
                return default
        if minimum is not None and val is not None and val < minimum:
            self.errors.append(f"{key}: must be at least {minimum}")
            return default
        if choices is not None and val not in choices:
            self.errors.append(f"{key}: {val!r} not one of {sorted(choices)}")
            return default
        return val

    def take_list(self, key, item_typ, default=None, required=False,
                  minimum=None):
        self.seen.add(key)
        if key not in self.raw:
            if required:
                self.errors.append(f"{key}: required")
            return default
        val = self.raw[key]
        if not isinstance(val, (list, tuple)) or not val:
            self.errors.append(f"{key}: expected a non-empty list")
            return default
        try:
            items = [item_typ(v) for v in val]
        except (TypeError, ValueError):
            self.errors.append(f"{key}: entries must be {item_typ.__name__}")
            return default
        if minimum is not None and any(v < minimum for v in items):
            self.errors.append(f"{key}: entries must be at least {minimum}")
            return default
        return items

    def finish(self):
        unknown = sorted(set(self.raw) - self.seen)
        for key in unknown:
            self.errors.append(f"{key}: unknown key for {self.context}")
        if self.errors:
            raise ConfigError("; ".join(self.errors))


def _flatten(prefix: str, value) -> List[Tuple[str, str]]:
    if isinstance(value, dict):
        out = []
        for k in value:
            out.extend(_flatten(f"{prefix}.{k}" if prefix else str(k), value[k]))
        return out
    if isinstance(value, (list, tuple)):
        return [(prefix, "[" + ", ".join(str(v) for v in value) + "]")]
    return [(prefix, str(value))]


def write_csv(path: str, echo: dict, header: Sequence[str],
              rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# version: {__version__}\n")
        for key, val in _flatten("", echo):
            fh.write(f"# {key}: {val}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------- experiments
#
# Each builder validates its config section and returns a no-argument
# callable producing (header, rows).  Validation must not compute.

# SimConfig's scalar fields, keyed to the type a config value is read
# as; snr_db and coded are read below, and seed is the top-level seed.
_SCALARS = {"int": int, "Optional[int]": int, "float": float, "str": str}
_SIM_KEYS = {f.name: _SCALARS[f.type] for f in fields(SimConfig)
             if f.type in _SCALARS and f.name != "seed"}


def _sim_config(s: _Schema, seed: int, **overrides) -> SimConfig:
    kwargs = {}
    for key, typ in _SIM_KEYS.items():
        val = s.take(key, typ=typ, required=key in ("m", "k"))
        if val is not None:
            kwargs[key] = val
    snr = s.take_list("snr_db", float, required="snr_db" not in overrides)
    if snr is not None:
        kwargs["snr_db"] = tuple(snr)
    coded = s.take("coded")
    if coded is not None:
        if not isinstance(coded, bool):
            s.errors.append("coded: expected true/false")
        else:
            kwargs["coded"] = coded
    trials = s.take("trials", typ=int)    # alias for frames
    if trials is not None:
        kwargs["frames"] = trials
    kwargs.update(overrides)
    kwargs.setdefault("seed", seed)
    if s.errors:
        s.finish()      # cannot construct; raises with everything found
    cfg = SimConfig(**kwargs)
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _build_ber(s: _Schema, seed: int, workers: int) -> Callable:
    cfg = _sim_config(s, seed)
    s.finish()

    def run():
        res = run_uplink_ber(cfg, workers=workers)
        rows = [(p.snr_db, p.n_bits, p.n_errors, f"{p.ber:.6e}",
                 f"{p.stderr:.3e}") for p in res.points]
        return ("snr_db", "n_bits", "n_errors", "ber", "stderr"), rows

    return run


def _build_fxp_sweep(s: _Schema, seed: int, workers: int) -> Callable:
    bits = s.take_list("fraction_bits", int, required=True) or [8]
    include_float = s.take("include_float", default=False)
    base = _sim_config(s, seed)
    configs = []
    if include_float:
        configs.append(("float", SimConfig(**{**asdict(base),
                                              "signal_fraction_bits": None,
                                              "operator_fraction_bits": None})))
    for n in bits:
        cfg = SimConfig(**{**asdict(base), "signal_fraction_bits": n,
                           "operator_fraction_bits": n})
        try:
            cfg.validate()
        except ValueError as exc:
            raise ConfigError(f"fraction_bits: {exc}") from None
        configs.append((str(n), cfg))
    s.finish()

    def run():
        rows = []
        for label, cfg in configs:
            log.info("fxp_sweep: fraction bits %s", label)
            res = run_uplink_ber(cfg, workers=workers)
            rows.extend((label, p.snr_db, p.n_bits, p.n_errors,
                         f"{p.ber:.6e}") for p in res.points)
        return ("fraction_bits", "snr_db", "n_bits", "n_errors", "ber"), rows

    return run


def _build_outage(s: _Schema, seed: int, workers: int) -> Callable:
    fractions = s.take_list("fractions", float, required=True) or [0.0]
    policy = s.take("policy", required=True, typ=str,
                    choices={"ignore", "exclude"})
    target = s.take("target_ber", required=True, typ=float)
    if target is not None and not 0.0 < target < 1.0:
        s.errors.append(f"target_ber: {target} outside (0, 1)")
    bad = [f for f in fractions if not 0.0 <= f < 1.0]
    if bad:
        s.errors.append(f"fractions: {bad} outside [0, 1)")
    cfg = _sim_config(s, seed, victim_policy="none", victim_fraction=0.0)
    s.finish()

    def run():
        res = run_outage_study(cfg, fractions, policy, target,
                               workers=workers)
        rows = [(p.fraction, "" if math.isinf(p.snr_db) else f"{p.snr_db:.4f}",
                 "" if math.isinf(p.penalty_db) else f"{p.penalty_db:.4f}",
                 p.status) for p in res.points]
        return ("fraction", "snr_db", "penalty_db", "status"), rows

    return run


def _build_evm_vs_m(s: _Schema, seed: int, workers: int) -> Callable:
    m_list = s.take_list("m_list", int, required=True)
    k = s.take("k", required=True, typ=int, minimum=1)
    trials = s.take("trials", default=20, typ=int, minimum=1)
    uses = s.take("uses", default=64, typ=int, minimum=1)
    backoff = s.take("backoff_db", default=0.0, typ=float)
    precoder = s.take("precoder", default="zf", typ=str,
                      choices={"mr", "zf", "rzf"})
    constellation = s.take("constellation", default="qpsk", typ=str)
    m_ref = s.take("m_ref", typ=int, minimum=1)
    pa_raw = s.take("pa", default={})
    ps = _Schema(pa_raw, "pa")
    a_1db = ps.take("a_1db", default=1.0, typ=float)
    alpha1 = ps.take("alpha1", default=1.0, typ=float)
    ps.finish()
    if str(constellation).lower() not in _ORDERS:
        s.errors.append(f"constellation: unknown {constellation!r}")
    if m_list and k and any(m < k for m in m_list):
        s.errors.append("m_list: entries must be >= k")
    try:
        pa = PaModel.from_compression_point(a_1db, alpha1)
    except ValueError as exc:
        s.errors.append(f"pa: {exc}")
    s.finish()

    def run():
        points = run_downlink_evm(m_list, k, pa, trials=trials, uses=uses,
                                  backoff_db=backoff, precoder=precoder,
                                  constellation=constellation, m_ref=m_ref,
                                  seed=seed)
        return ("m", "evm_db"), [(p.m, f"{p.evm_db:.4f}") for p in points]

    return run


def _build_complexity_table(s: _Schema, seed: int, workers: int) -> Callable:
    m = s.take("m", required=True, typ=int, minimum=1)
    k_list = s.take_list("k_list", int, required=True, minimum=1)
    order = s.take("nsa_order", default=3, typ=int)
    uses = s.take("coherence_uses", default=512, typ=int, minimum=1)
    algos = s.take_list("algorithms", str, default=list(ALGORITHMS))
    bad = sorted(set(algos) - set(ALGORITHMS))
    if bad:
        s.errors.append(f"algorithms: unknown {bad}")
    iterative = sorted({"nsa", "cd"} & set(algos))
    if iterative and (order is None or order < 1):
        s.errors.append(f"nsa_order: {iterative} need at least 1")
    if m and k_list and any(k > m for k in k_list):
        s.errors.append("k_list: entries must not exceed m")
    s.finish()

    def run():
        rows = []
        for k in k_list:
            for alg in algos:
                cost = table2_cost(alg, m, k, l=order)
                rows.append((alg, m, k, order, uses,
                             int(cost.per_realization), int(cost.per_use),
                             int(cost.total(uses))))
        return ("algorithm", "m", "k", "nsa_order", "coherence_uses",
                "per_realization", "per_use", "total"), rows

    return run


def _build_interconnect(s: _Schema, seed: int, workers: int) -> Callable:
    kwargs = {}
    for key, default in (("r_samp", 30.72e6), ("n_data", 1200),
                         ("n_sub", 2048), ("n_cp", 146), ("w_bits", 24),
                         ("m", 100)):
        typ = float if key == "r_samp" else int
        kwargs[key] = s.take(key, default=default, typ=typ)
    s.finish()
    try:
        cfg = InterconnectConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    def run():
        r_ofdm, r_total = interconnect_rate(cfg)
        return (("r_ofdm_samples_per_s", "r_total_bits_per_s"),
                [(f"{r_ofdm:.6e}", f"{r_total:.6e}")])

    return run


def _build_hardening(s: _Schema, seed: int, workers: int) -> Callable:
    m_list = s.take_list("m_list", int, required=True, minimum=1)
    trials = s.take("trials", default=10000, typ=int, minimum=1)
    s.finish()

    def run():
        rows = []
        for m in m_list:
            var = hardening_variance(m, trials, stream_rng(seed, m))
            rows.append((m, f"{var:.6e}", f"{1.0 / m:.6e}",
                         f"{var * m:.4f}"))
        return ("m", "gain_variance", "inverse_m", "ratio"), rows

    return run


def _build_calibration(s: _Schema, seed: int, workers: int) -> Callable:
    m = s.take("m", required=True, typ=int, minimum=1)
    k = s.take("k", required=True, typ=int, minimum=1)
    gain = s.take("gain_bound_db", default=1.0, typ=float)
    phase = s.take("phase_bound_deg", default=5.0, typ=float)
    residuals = s.take_list("residual_error_db", float, default=[-40.0])
    trials = s.take("trials", default=100, typ=int, minimum=1)
    precoder = s.take("precoder", default="zf", typ=str,
                      choices={"mr", "zf", "rzf"})
    if m and k and k > m:
        s.errors.append(f"k: {k} users exceed {m} antennas")
    s.finish()

    def run():
        raw, cal = run_calibration_study(m, k, gain, phase, residuals, trials,
                                         precoder=precoder, seed=seed)
        rows = [("uncalibrated", "", f"{raw:.4f}")]
        rows.extend(("calibrated", r, f"{c:.4f}")
                    for r, c in zip(residuals, cal))
        return ("label", "residual_error_db", "median_mui_db"), rows

    return run


_BUILDERS: Dict[str, Callable] = {
    "ber": _build_ber,
    "evm_vs_m": _build_evm_vs_m,
    "fxp_sweep": _build_fxp_sweep,
    "outage": _build_outage,
    "complexity_table": _build_complexity_table,
    "interconnect": _build_interconnect,
    "hardening": _build_hardening,
    "calibration": _build_calibration,
}


# ------------------------------------------------------------- plumbing


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc.strerror}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a mapping")
    return raw


def build_experiment(raw: dict, seed_override: Optional[int] = None,
                     workers: int = 1):
    """Validate a config dict; returns (name, runner, echo, out_name)."""
    raw = dict(raw)
    name = raw.pop("experiment", None)
    if name not in EXPERIMENTS:
        raise ConfigError(f"experiment: {name!r} not one of {EXPERIMENTS}")
    seed = raw.pop("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed: expected int, got {seed!r}")
    if seed_override is not None:
        seed = seed_override
    out_name = raw.pop("output", f"{name}.csv")
    cfg_workers = raw.pop("workers", None)
    if cfg_workers is not None:
        if not isinstance(cfg_workers, int) or cfg_workers < 1:
            raise ConfigError(f"workers: expected positive int, got {cfg_workers!r}")
        if workers == 1:
            workers = cfg_workers
    schema = _Schema(raw, f"experiment {name}")
    runner = _BUILDERS[name](schema, seed, workers)
    echo = dict(raw)
    echo["experiment"] = name
    echo["seed"] = seed
    echo["workers"] = workers
    return name, runner, echo, out_name


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mimodsp",
        description="Massive MIMO baseband experiments, CSV out.")
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the experiment named in the config")
    run.add_argument("--config", required=True, help="YAML config path")
    run.add_argument("--out", default=None,
                     help="output CSV path (default: <experiment>.csv)")
    run.add_argument("--seed", type=int, default=None, help="seed override")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes for Monte-Carlo experiments")
    run.add_argument("-v", "--verbose", action="count", default=0)
    val = sub.add_parser("validate", help="schema-check a config, no compute")
    val.add_argument("--config", required=True)
    val.add_argument("-v", "--verbose", action="count", default=0)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose > 1 else
        logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s")
    try:
        raw = load_config(args.config)
        if args.command == "validate":
            build_experiment(raw)
            print("ok")
            return 0
        name, runner, echo, out_name = build_experiment(
            raw, seed_override=args.seed, workers=args.workers)
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    out_path = args.out or out_name
    try:
        log.info("running %s", name)
        header, rows = runner()
        write_csv(out_path, echo, header, rows)
    except Exception as exc:   # runtime failure, distinct from validation
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    log.info("wrote %s (%d rows)", out_path, len(rows))
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
