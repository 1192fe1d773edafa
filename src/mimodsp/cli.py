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
``EvmConfig`` ...) takes its keys, types and defaults from its fields and
its rules from its ``validate``.  An explicit ``--workers`` overrides the
config's ``workers``.
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
from .channel import (_count_errors, _name_errors, _raise, _range_errors,
                      hardening_variance, stream_rng)
from .complexity import CostTableConfig, table2_cost
from .decentral import InterconnectConfig, interconnect_rate
from .impairments import PaModel
from .link import (SimConfig, run_calibration_study, run_downlink_evm,
                   run_outage_study, run_uplink_ber)
from .link.sim import (CalibrationConfig, EvmConfig, _run_ber,
                       outage_configs)

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

    def take(self, key, typ, default=None, required=False):
        """``key`` read as ``typ``; ``default`` when absent or invalid."""
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
        return val

    def check(self):
        _raise(self.errors, ConfigError)

    def finish(self):
        for key in sorted(set(self.raw) - self.seen):
            self.errors.append(f"{key}: unknown key for {self.context}")
        self.check()


def _coerce(val, typ):
    """``val`` as annotation ``typ``: a scalar (no NaN), ``Optional[X]`` (the
    only type that takes ``null``) or ``Tuple[X, ...]`` (a non-empty list)."""
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
        out = typ(val)
    except (TypeError, ValueError):
        raise TypeError(f"expected {typ.__name__}, got {val!r}") from None
    if typ is float and math.isnan(out):
        raise TypeError(f"expected a number, got {val!r}")
    return out


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
    cfg = cls(**kwargs)
    getattr(cfg, "validate", lambda: None)()
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
    policy = s.take("policy", str, required=True)
    target = s.take("target_ber", float, required=True)
    # the study sets the victims itself
    cfg = _read(s, SimConfig, seed=seed, victim_policy="none",
                victim_fraction=0.0)
    outage_configs(cfg, fractions, policy, target)

    def run():
        res = run_outage_study(cfg, fractions, policy, target,
                               workers=workers)
        rows = [(p.fraction, "" if math.isinf(p.snr_db) else f"{p.snr_db:.4f}",
                 "" if math.isinf(p.penalty_db) else f"{p.penalty_db:.4f}",
                 p.status) for p in res.points]
        return ("fraction", "snr_db", "penalty_db", "status"), rows

    return run


def _build_evm_vs_m(s: _Schema, seed: int, workers: int) -> Callable:
    ps = _Schema(s.take("pa", dict, default={}), "pa")
    a_1db = ps.take("a_1db", float, default=1.0)
    alpha1 = ps.take("alpha1", float, default=1.0)
    ps.finish()
    try:
        pa = PaModel.from_compression_point(a_1db, alpha1)
    except ValueError as exc:
        s.errors.append(f"pa: {exc}")
    cfg = _read(s, EvmConfig, seed=seed)

    def run():
        points = run_downlink_evm(cfg, pa)
        return ("m", "evm_db"), [(p.m, f"{p.evm_db:.4f}") for p in points]

    return run


def _build_complexity_table(s: _Schema, seed: int, workers: int) -> Callable:
    cfg = _read(s, CostTableConfig)

    def run():
        rows = []
        for k in cfg.k_list:
            for alg in cfg.algorithms:
                cost = table2_cost(alg, cfg.m, k, l=cfg.nsa_order)
                rows.append((alg.lower(), cfg.m, k, cfg.nsa_order,
                             cfg.coherence_uses, int(cost.per_realization),
                             int(cost.per_use),
                             int(cost.total(cfg.coherence_uses))))
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
    m_list = s.take("m_list", Tuple[int, ...], required=True)
    trials = s.take("trials", int, default=10000)
    s.errors += _count_errors(m_list=m_list, trials=trials)

    def run():
        rows = []
        for m in m_list:
            var = hardening_variance(m, trials, stream_rng(seed, m))
            rows.append((m, f"{var:.6e}", f"{1.0 / m:.6e}",
                         f"{var * m:.4f}"))
        return ("m", "gain_variance", "inverse_m", "ratio"), rows

    return run


def _build_calibration(s: _Schema, seed: int, workers: int) -> Callable:
    cfg = _read(s, CalibrationConfig, seed=seed)

    def run():
        raw, cal = run_calibration_study(cfg)
        rows = [("uncalibrated", "", f"{raw:.4f}")]
        rows.extend(("calibrated", r, f"{c:.4f}")
                    for r, c in zip(cfg.residual_error_db, cal))
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
    name = s.take("experiment", str, required=True)
    if name is not None:
        s.errors += _name_errors("experiment", name, _BUILDERS)
    s.check()
    name = name.lower()
    s.context = f"experiment {name}"
    seed = s.take("seed", int, default=0)
    if seed_override is not None:
        seed = seed_override
    s.errors += _range_errors("seed", seed, 0, math.inf)
    out_name = s.take("output", str, default=f"{name}.csv")
    if workers is not None:   # the override replaces the key, check and all
        s.raw["workers"] = workers
    workers = s.take("workers", int, default=1)
    s.errors.extend(_count_errors(workers=workers))
    try:
        runner = _BUILDERS[name](s, seed, workers)
    except ValueError as exc:   # a library config's or study's rules
        raise ConfigError(str(exc)) from None
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
