"""Config-driven experiment runner emitting CSV artifacts.

``mimodsp run --config cfg.yaml`` executes the experiment named in the
config and writes one CSV whose comment header echoes the full config,
the package version, and the seed, so a run can be reproduced from its
output alone.  ``mimodsp validate --config cfg.yaml`` dry-runs the
schema checks.  Exit codes: 0 success, 1 validation failure, 2 runtime
failure.

Every key, the top-level ``seed``, ``output`` and ``workers`` included,
is read by one typed reader: unknown keys are rejected, ``null`` is
accepted only for ``Optional`` keys, and a dataclass section (``SimConfig``,
``InterconnectConfig``) takes its keys, types and defaults from its fields.
An explicit ``--workers`` overrides the config's ``workers``.
"""
from __future__ import annotations

import argparse
import csv
import logging
import math
import sys
from dataclasses import MISSING, fields, replace
from typing import (Callable, Dict, List, Optional, Sequence, Tuple, Union,
                    get_args, get_origin, get_type_hints)

import yaml

from . import __version__
from .channel import hardening_variance, stream_rng
from .complexity import ALGORITHMS, ITERATIVE, table2_cost
from .decentral import InterconnectConfig, interconnect_rate
from .equalization import PRECODERS
from .impairments import PaModel
from .link import (SimConfig, run_calibration_study, run_downlink_evm,
                   run_outage_study, run_uplink_ber)
from .link.modem import _ORDERS
from .link.sim import FAULT_POLICIES, _run_ber, outage_configs

log = logging.getLogger("mimodsp")

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

    def take(self, key, typ, default=None, required=False, choices=None,
             minimum=None):
        """``key`` read as ``typ``; ``default`` when absent or invalid.
        Names with ``choices``, one or a tuple, are returned in lower case."""
        self.seen.add(key)
        if key not in self.raw:
            if required:
                self.errors.append(f"{key}: required")
            return default
        try:
            val = _coerce(self.raw[key], typ)
        except TypeError as exc:
            self.errors.append(f"{key}: {exc}")
            return default
        many = isinstance(val, tuple)
        vals = val if many else (val,)
        if minimum is not None and any(v < minimum for v in vals):
            self.errors.append(f"{key}: {'entries ' if many else ''}"
                               f"must be at least {minimum}")
            return default
        if choices is None:
            return val
        names = tuple(v.lower() for v in vals)
        if any(n not in choices for n in names):
            self.errors.append(f"{key}: {val!r} not one of {sorted(choices)}")
            return default
        return names if many else names[0]

    def check(self):
        if self.errors:
            raise ConfigError("; ".join(self.errors))

    def finish(self):
        for key in sorted(set(self.raw) - self.seen):
            self.errors.append(f"{key}: unknown key for {self.context}")
        self.check()


def _coerce(val, typ):
    """``val`` as annotation ``typ``: a scalar, ``Optional[X]`` (the only
    type that takes ``null``) or ``Tuple[X, ...]`` (a non-empty list)."""
    if get_origin(typ) is Union:
        return None if val is None else _coerce(val, get_args(typ)[0])
    if get_origin(typ) is tuple:
        if not isinstance(val, (list, tuple)) or not val:
            raise TypeError(f"expected a non-empty list, got {val!r}")
        return tuple(_coerce(v, get_args(typ)[0]) for v in val)
    # numbers may come as strings (YAML reads 1e-3 as one); int takes no
    # fraction, and bool and str take only their own YAML type
    try:
        if (val is None or isinstance(val, bool) != (typ is bool)
                or (typ is str and not isinstance(val, str))
                or (typ is int and isinstance(val, float)
                    and not val.is_integer())):
            raise TypeError
        return typ(val)
    except (TypeError, ValueError):
        raise TypeError(f"expected {typ.__name__}, got {val!r}") from None


def _read(s: _Schema, cls, **fixed):
    """Build dataclass ``cls`` from the keys named by its fields, except
    the ``fixed`` ones; a field without a default is a required key.
    Read the section's other keys first: this reports unknown keys."""
    hints = get_type_hints(cls)
    kwargs = dict(fixed)
    for f in fields(cls):
        if f.name not in fixed:
            val = s.take(f.name, hints[f.name], default=MISSING,
                         required=f.default is MISSING)
            if val is not MISSING:
                kwargs[f.name] = val
    s.finish()
    try:
        cfg = cls(**kwargs)
        getattr(cfg, "validate", lambda: None)()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


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
# Each builder reads and checks its keys and returns a no-argument
# callable producing (header, rows); ``build_experiment`` then rejects
# unknown keys.  Validation must not compute.


def _build_ber(s: _Schema, seed: int, workers: int) -> Callable:
    cfg = _read(s, SimConfig, seed=seed)

    def run():
        res = run_uplink_ber(cfg, workers=workers)
        rows = [(p.snr_db, p.n_bits, p.n_errors, f"{p.ber:.6e}",
                 f"{p.stderr:.3e}") for p in res.points]
        return ("snr_db", "n_bits", "n_errors", "ber", "stderr"), rows

    return run


def _build_fxp_sweep(s: _Schema, seed: int, workers: int) -> Callable:
    bits = s.take("fraction_bits", Tuple[int, ...], required=True)
    include_float = s.take("include_float", bool, default=False)
    base = _read(s, SimConfig, seed=seed, signal_fraction_bits=None,
                 operator_fraction_bits=None)
    configs = [base] if include_float else []
    for n in bits:
        cfg = replace(base, signal_fraction_bits=n, operator_fraction_bits=n)
        try:
            cfg.validate()
        except ValueError as exc:
            raise ConfigError(f"fraction_bits: {exc}") from None
        configs.append(cfg)

    def run():   # one pass: every width runs over the same frames
        rows = [(res.config.signal_fraction_bits or "float", p.snr_db,
                 p.n_bits, p.n_errors, f"{p.ber:.6e}")
                for res in _run_ber(configs, workers) for p in res.points]
        return ("fraction_bits", "snr_db", "n_bits", "n_errors", "ber"), rows

    return run


def _build_outage(s: _Schema, seed: int, workers: int) -> Callable:
    fractions = s.take("fractions", Tuple[float, ...], default=(),
                       required=True)
    policy = s.take("policy", str, required=True, choices=FAULT_POLICIES)
    target = s.take("target_ber", float, required=True)
    # the study sets the victims itself
    cfg = _read(s, SimConfig, seed=seed, victim_policy="none",
                victim_fraction=0.0)
    try:
        outage_configs(cfg, fractions, policy, target)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    def run():
        res = run_outage_study(cfg, fractions, policy, target,
                               workers=workers)
        rows = [(p.fraction, "" if math.isinf(p.snr_db) else f"{p.snr_db:.4f}",
                 "" if math.isinf(p.penalty_db) else f"{p.penalty_db:.4f}",
                 p.status) for p in res.points]
        return ("fraction", "snr_db", "penalty_db", "status"), rows

    return run


def _build_evm_vs_m(s: _Schema, seed: int, workers: int) -> Callable:
    m_list = s.take("m_list", Tuple[int, ...], required=True)
    k = s.take("k", int, required=True, minimum=1)
    trials = s.take("trials", int, default=20, minimum=1)
    uses = s.take("uses", int, default=64, minimum=1)
    backoff = s.take("backoff_db", float, default=0.0)
    precoder = s.take("precoder", str, default="zf", choices=PRECODERS)
    constellation = s.take("constellation", str, default="qpsk")
    m_ref = s.take("m_ref", int, minimum=1)
    ps = _Schema(s.take("pa", dict, default={}), "pa")
    a_1db = ps.take("a_1db", float, default=1.0)
    alpha1 = ps.take("alpha1", float, default=1.0)
    ps.finish()
    if constellation.lower() not in _ORDERS:
        s.errors.append(f"constellation: unknown {constellation!r}")
    if m_list and k and any(m < k for m in m_list):
        s.errors.append("m_list: entries must be >= k")
    try:
        pa = PaModel.from_compression_point(a_1db, alpha1)
    except ValueError as exc:
        s.errors.append(f"pa: {exc}")

    def run():
        points = run_downlink_evm(m_list, k, pa, trials=trials, uses=uses,
                                  backoff_db=backoff, precoder=precoder,
                                  constellation=constellation, m_ref=m_ref,
                                  seed=seed)
        return ("m", "evm_db"), [(p.m, f"{p.evm_db:.4f}") for p in points]

    return run


def _build_complexity_table(s: _Schema, seed: int, workers: int) -> Callable:
    m = s.take("m", int, required=True, minimum=1)
    k_list = s.take("k_list", Tuple[int, ...], required=True, minimum=1)
    order = s.take("nsa_order", int, default=3)
    uses = s.take("coherence_uses", int, default=512, minimum=1)
    algos = s.take("algorithms", Tuple[str, ...], default=ALGORITHMS,
                   choices=ALGORITHMS)
    iterative = sorted(set(ITERATIVE) & set(algos))
    if iterative and order < 1:
        s.errors.append(f"nsa_order: {iterative} need at least 1")
    if m and k_list and any(k > m for k in k_list):
        s.errors.append("k_list: entries must not exceed m")

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
    cfg = _read(s, InterconnectConfig)

    def run():
        r_ofdm, r_total = interconnect_rate(cfg)
        return (("r_ofdm_samples_per_s", "r_total_bits_per_s"),
                [(f"{r_ofdm:.6e}", f"{r_total:.6e}")])

    return run


def _build_hardening(s: _Schema, seed: int, workers: int) -> Callable:
    m_list = s.take("m_list", Tuple[int, ...], required=True, minimum=1)
    trials = s.take("trials", int, default=10000, minimum=1)

    def run():
        rows = []
        for m in m_list:
            var = hardening_variance(m, trials, stream_rng(seed, m))
            rows.append((m, f"{var:.6e}", f"{1.0 / m:.6e}",
                         f"{var * m:.4f}"))
        return ("m", "gain_variance", "inverse_m", "ratio"), rows

    return run


def _build_calibration(s: _Schema, seed: int, workers: int) -> Callable:
    m = s.take("m", int, required=True, minimum=1)
    k = s.take("k", int, required=True, minimum=1)
    gain = s.take("gain_bound_db", float, default=1.0)
    phase = s.take("phase_bound_deg", float, default=5.0)
    residuals = s.take("residual_error_db", Tuple[float, ...],
                       default=(-40.0,))
    trials = s.take("trials", int, default=100, minimum=1)
    precoder = s.take("precoder", str, default="zf", choices=PRECODERS)
    if m and k and k > m:
        s.errors.append(f"k: {k} users exceed {m} antennas")

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
                     workers: Optional[int] = None):
    """Validate a config dict; returns (name, runner, echo, out_name).

    An explicit ``workers`` overrides the config's ``workers`` key."""
    s = _Schema(raw, "config")
    name = s.take("experiment", str, required=True, choices=_BUILDERS)
    s.check()
    s.context = f"experiment {name}"
    seed = s.take("seed", int, default=0)
    if seed_override is not None:
        seed = seed_override
    out_name = s.take("output", str, default=f"{name}.csv")
    if workers is not None:   # the override replaces the key, check and all
        s.raw["workers"] = workers
    workers = s.take("workers", int, default=1, minimum=1)
    runner = _BUILDERS[name](s, seed, workers)
    s.finish()
    echo = {k: v for k, v in raw.items()
            if k not in ("experiment", "seed", "output", "workers")}
    echo.update(experiment=name, seed=seed, workers=workers)
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
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes for Monte-Carlo experiments "
                          "(default: the config's workers, else 1)")
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
