"""Property tests on small random configs: what ``validate`` accepts runs,
and one shared pass over a study's runs counts what separate runs count."""
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mimodsp import SimConfig, run_uplink_ber
from mimodsp import cli
from mimodsp.cli import ConfigError, build_experiment
from mimodsp.complexity import ALGORITHMS
from mimodsp.equalization import DETECTORS, MAX_SERIES_ORDER, PRECODERS
from mimodsp.impairments import FAULT_MODES
from mimodsp.link import sim
from mimodsp.link.modem import _ORDERS
from mimodsp.link.sim import FAULT_POLICIES
from mimodsp.numerics import NonPositivePivotError, ZeroDiagonalError

# ROADMAP item 5: a factorization breakdown at a short word length aborts
# the run.  No other exception may escape a run that validate accepted.
BREAKDOWNS = (NonPositivePivotError, ZeroDiagonalError, ZeroDivisionError)
# An outage study whose baseline never crosses its target BER has no
# penalty to report, and says so.
NO_BASELINE = "baseline never reaches BER"


def _name(names):
    """One of ``names``, in lower, upper or mixed case."""
    known = st.sampled_from(sorted(names))
    return known | known.map(str.upper) | known.map(str.title)


@st.composite
def _frame_fields(draw):
    """The fields that shape the frames, shared by every run of a pass."""
    m = draw(st.integers(1, 12))
    return dict(
        m=m, k=draw(st.integers(1, m)),
        snr_db=tuple(draw(st.lists(st.floats(-10.0, 20.0), min_size=1,
                                   max_size=3))),
        constellation=draw(st.sampled_from(sorted(_ORDERS))),
        coded=draw(st.booleans()),
        coherence_uses=draw(st.integers(1, 24)),
        frames=draw(st.integers(1, 2)),
        pilot_snr_db=draw(st.just(math.inf) | st.floats(-10.0, 30.0)),
        seed=draw(st.integers(0, 2**16)))


@st.composite
def _run_fields(draw):
    """The fields a run of a shared pass reads for itself."""
    bits = draw(st.none() | st.tuples(st.integers(1, 24), st.integers(1, 24)))
    policy = draw(_name(("none", *FAULT_POLICIES)))
    return dict(
        detector=draw(st.sampled_from(sorted(DETECTORS))),
        signal_fraction_bits=bits and bits[0],
        operator_fraction_bits=bits and bits[1],
        nsa_order=draw(st.integers(0, MAX_SERIES_ORDER)),
        cd_sweeps=draw(st.integers(1, 4)),
        c_const=draw(st.just(1.0) | st.floats(0.0, 1.5)),
        adc_bits=draw(st.none() | st.integers(1, 8)),
        victim_policy=policy,
        victim_fraction=(0.0 if policy.lower() == "none"
                         else draw(st.floats(0.0, 1.0))),
        victim_mode=draw(_name(FAULT_MODES)))


def _accepted(cfg: SimConfig) -> bool:
    try:
        cfg.validate()
    except ValueError:
        return False
    return True


@pytest.mark.filterwarnings("ignore::mimodsp.equalization.NsaDivergenceWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(frame=_frame_fields(), runs=st.lists(_run_fields(), min_size=1,
                                            max_size=3))
def test_shared_pass_equals_separate_runs(frame, runs):
    cfgs = [cfg for cfg in (SimConfig(**frame, **run) for run in runs)
            if _accepted(cfg)]
    assume(cfgs)
    separate = []
    for cfg in cfgs:
        try:
            separate.append(run_uplink_ber(cfg))
        except BREAKDOWNS:
            with pytest.raises(BREAKDOWNS):
                sim._run_ber(cfgs, 1)
            return
    shared = sim._run_ber(cfgs, 1)
    assert shared == tuple(separate)
    for res in shared:
        for p in res.points:
            assert math.isfinite(p.ber) and math.isfinite(p.stderr)
            assert 0 <= p.n_errors <= p.n_bits


def _sim_keys(draw, *drop):
    """Raw ``SimConfig`` keys of one run, as a config file spells them."""
    keys = {**draw(_frame_fields()), **draw(_run_fields())}
    keys["snr_db"] = list(keys["snr_db"])
    for key in drop:
        del keys[key]
    return keys


def _any_float(inside):
    """``inside`` (a key's stated range) or any float at all: NaN, +-inf,
    huge, tiny and negative values included, for validate to refuse."""
    return inside | st.floats()


_FRACTION_BITS = ("signal_fraction_bits", "operator_fraction_bits")
_VICTIMS = ("victim_fraction", "victim_policy")
_SIZES = st.integers(1, 8)
_SIZE_LISTS = st.lists(_SIZES, min_size=1, max_size=3)
# bad values of the evm_vs_m, calibration, complexity_table and hardening
# keys, for validate to refuse: counts of 0 and below, unknown names
_NOT_COUNTS = st.integers(-2, 0)
_ANY_COUNT_LISTS = st.lists(st.integers(-2, 8), min_size=1, max_size=3)
_UNKNOWN_NAMES = st.sampled_from(["bogus", "8psk"])
_SEEDS = st.integers(0, 2**16)
_NEGATIVE_SEEDS = st.integers(-2**16, -1)
# bad values of the SimConfig keys: SNRs past +-300 dB (+inf allowed for
# pilots), adc_bits on both sides of 53 and of 1024, the widest that ran
_BAD_SIM_KEYS = dict(
    seed=_NEGATIVE_SEEDS,
    adc_bits=st.integers(51, 55) | st.integers(1023, 1026),
    snr_db=st.lists(st.floats(-400.0, 400.0) | st.floats(), min_size=1,
                    max_size=3),
    pilot_snr_db=st.floats(-400.0, 400.0) | st.floats())


def _spoiled(draw, keys, bad):
    """``keys`` as drawn, then ``keys`` with each of ``bad``'s keys in turn
    redrawn from its bad values: one fault at a time reaches every rule."""
    return [keys] + [{**keys, key: draw(values)} for key, values in bad.items()]


@st.composite
def _raw_ber(draw):
    return _spoiled(draw, dict(experiment="ber", **_sim_keys(draw)),
                    _BAD_SIM_KEYS)


@st.composite
def _raw_fxp_sweep(draw):
    keys = dict(experiment="fxp_sweep", **_sim_keys(draw, *_FRACTION_BITS),
                fraction_bits=draw(st.lists(st.integers(1, 24), min_size=1,
                                            max_size=3)),
                include_float=draw(st.booleans()))
    return _spoiled(draw, keys, _BAD_SIM_KEYS)


@st.composite
def _raw_outage(draw):
    keys = _sim_keys(draw, *_VICTIMS)
    # a wide grid, so that the baseline often crosses the target
    keys["snr_db"] = [-10.0, draw(st.floats(-5.0, 5.0)), 30.0]
    keys.update(experiment="outage",
                fractions=draw(st.lists(st.floats(0.0, 0.5), min_size=1,
                                        max_size=3)),
                policy=draw(_name(FAULT_POLICIES)),
                target_ber=draw(st.floats(0.0, 0.3)))
    return _spoiled(draw, keys, _BAD_SIM_KEYS)


@st.composite
def _raw_evm_vs_m(draw):
    k = draw(st.integers(1, 3))
    keys = dict(experiment="evm_vs_m",
                m_list=draw(st.lists(st.integers(k, 8), min_size=1,
                                     max_size=3)),
                k=k, trials=draw(st.integers(1, 2)), uses=draw(_SIZES),
                backoff_db=draw(st.floats(-60.0, 60.0)),
                precoder=draw(_name(PRECODERS)),
                constellation=draw(_name(_ORDERS)),
                m_ref=draw(st.none() | _SIZES), seed=draw(_SEEDS),
                pa=dict(a_1db=draw(st.floats(1e-3, 3.0)),
                        alpha1=draw(st.floats(0.1, 2.0)
                                    | st.floats(-2.0, -0.1))))
    return _spoiled(draw, keys, dict(
        m_list=_ANY_COUNT_LISTS, k=_NOT_COUNTS, trials=_NOT_COUNTS,
        uses=_NOT_COUNTS, m_ref=_NOT_COUNTS, precoder=_UNKNOWN_NAMES,
        constellation=_UNKNOWN_NAMES, backoff_db=st.floats(),
        seed=_NEGATIVE_SEEDS,
        # zero, subnormal, tiny, huge and infinite values included:
        # validate refuses what leaves no compression point
        pa=st.fixed_dictionaries(dict(
            a_1db=(st.floats(min_value=0.0)
                   | st.sampled_from([1e-200, 1e200])),
            alpha1=st.floats(-2.0, 2.0) | st.sampled_from([0.0, 5e-324])))))


@st.composite
def _raw_complexity_table(draw):
    m = draw(st.integers(1, 64))
    keys = dict(experiment="complexity_table", m=m,
                k_list=draw(st.lists(st.integers(1, min(m, 16)), min_size=1,
                                     max_size=3)),
                nsa_order=draw(st.integers(0, 4)),
                coherence_uses=draw(st.integers(1, 64)),
                algorithms=draw(st.lists(_name(ALGORITHMS), min_size=1,
                                         max_size=3)))
    return _spoiled(draw, keys, dict(
        m=_NOT_COUNTS, k_list=st.lists(st.integers(-2, 80), min_size=1,
                                       max_size=3),
        nsa_order=_NOT_COUNTS, coherence_uses=_NOT_COUNTS,
        algorithms=st.lists(_name(ALGORITHMS) | _UNKNOWN_NAMES, min_size=1,
                            max_size=3)))


@st.composite
def _raw_interconnect(draw):
    return [dict(experiment="interconnect",
                 r_samp=draw(_any_float(st.floats(1.0, 1e8))),
                 n_data=draw(st.integers(1, 1200)),
                 n_sub=draw(st.integers(1, 2048)),
                 n_cp=draw(st.integers(0, 200)),
                 w_bits=draw(st.integers(1, 32)),
                 m=draw(st.integers(1, 256)))]


@st.composite
def _raw_hardening(draw):
    keys = dict(experiment="hardening", m_list=draw(_SIZE_LISTS),
                trials=draw(st.integers(1, 20)), seed=draw(_SEEDS))
    return _spoiled(draw, keys, dict(m_list=_ANY_COUNT_LISTS,
                                     trials=_NOT_COUNTS,
                                     seed=_NEGATIVE_SEEDS))


@st.composite
def _raw_calibration(draw):
    m = draw(_SIZES)
    keys = dict(experiment="calibration", m=m, k=draw(st.integers(1, m)),
                gain_bound_db=draw(st.floats(0.0, 20.0)),
                phase_bound_deg=draw(st.floats(0.0, 180.0)),
                residual_error_db=draw(st.lists(
                    st.floats(-300.0, 60.0) | st.just(-math.inf),
                    min_size=1, max_size=2)),
                trials=draw(st.integers(1, 2)),
                precoder=draw(_name(PRECODERS)), seed=draw(_SEEDS))
    return _spoiled(draw, keys, dict(
        # k above m first: hypothesis leans on a union's first branch
        m=_NOT_COUNTS, k=st.integers(9, 12) | _NOT_COUNTS,
        trials=_NOT_COUNTS,
        precoder=_UNKNOWN_NAMES, gain_bound_db=st.floats(),
        phase_bound_deg=st.floats(),
        residual_error_db=st.lists(st.floats(), min_size=1, max_size=2),
        seed=_NEGATIVE_SEEDS))


_RAW = {"ber": _raw_ber, "fxp_sweep": _raw_fxp_sweep,
        "outage": _raw_outage, "evm_vs_m": _raw_evm_vs_m,
        "complexity_table": _raw_complexity_table,
        "interconnect": _raw_interconnect, "hardening": _raw_hardening,
        "calibration": _raw_calibration}


def test_every_cli_experiment_is_drawn():
    assert sorted(_RAW) == sorted(cli._BUILDERS)


@pytest.mark.filterwarnings("ignore::mimodsp.equalization.NsaDivergenceWarning")
@pytest.mark.parametrize("name", sorted(_RAW))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_validated_experiment_runs(name, data):
    for raw in data.draw(_RAW[name]()):
        _runs_if_valid(name, raw)


def _runs_if_valid(name, raw):
    try:
        _, runner, _, _ = build_experiment(raw, workers=1)
    except ConfigError:
        return
    try:
        header, rows = runner()
    except BREAKDOWNS:
        return
    except RuntimeError as exc:
        assert name == "outage" and str(exc).startswith(NO_BASELINE)
        return
    assert rows and all(len(row) == len(header) for row in rows)
    assert "nan" not in {str(cell).lower() for row in rows for cell in row}
