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
    policy = draw(st.sampled_from(("none", *FAULT_POLICIES)))
    return dict(
        detector=draw(st.sampled_from(sorted(DETECTORS))),
        signal_fraction_bits=bits and bits[0],
        operator_fraction_bits=bits and bits[1],
        nsa_order=draw(st.integers(0, MAX_SERIES_ORDER)),
        cd_sweeps=draw(st.integers(1, 4)),
        c_const=draw(st.just(1.0) | st.floats(0.0, 1.5)),
        adc_bits=draw(st.none() | st.integers(1, 8)),
        victim_policy=policy,
        victim_fraction=(0.0 if policy == "none"
                         else draw(st.floats(0.0, 1.0))),
        victim_mode=draw(st.sampled_from(FAULT_MODES)))


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


_FRACTION_BITS = ("signal_fraction_bits", "operator_fraction_bits")
_VICTIMS = ("victim_fraction", "victim_policy")
_SIZES = st.integers(1, 8)
_SIZE_LISTS = st.lists(_SIZES, min_size=1, max_size=3)


@st.composite
def _raw_ber(draw):
    return dict(experiment="ber", **_sim_keys(draw))


@st.composite
def _raw_fxp_sweep(draw):
    return dict(experiment="fxp_sweep", **_sim_keys(draw, *_FRACTION_BITS),
                fraction_bits=draw(st.lists(st.integers(1, 24), min_size=1,
                                            max_size=3)),
                include_float=draw(st.booleans()))


@st.composite
def _raw_outage(draw):
    keys = _sim_keys(draw, *_VICTIMS)
    # a wide grid, so that the baseline often crosses the target
    keys["snr_db"] = [-10.0, draw(st.floats(-5.0, 5.0)), 30.0]
    return dict(experiment="outage", **keys,
                fractions=draw(st.lists(st.floats(0.0, 0.5), min_size=1,
                                        max_size=3)),
                policy=draw(st.sampled_from(FAULT_POLICIES)),
                target_ber=draw(st.floats(0.0, 0.3)))


@st.composite
def _raw_evm_vs_m(draw):
    return dict(experiment="evm_vs_m", m_list=draw(_SIZE_LISTS),
                k=draw(st.integers(1, 3)), trials=draw(st.integers(1, 2)),
                uses=draw(_SIZES), backoff_db=draw(st.floats(-10.0, 10.0)),
                precoder=draw(st.sampled_from(sorted(PRECODERS))),
                constellation=draw(st.sampled_from(sorted(_ORDERS))),
                m_ref=draw(_SIZES),
                # zero, subnormal, tiny, huge and infinite values included:
                # validate refuses what leaves no compression point
                pa=dict(a_1db=draw(st.floats(1e-3, 3.0)
                                   | st.floats(min_value=0.0)
                                   | st.sampled_from([1e-200, 1e200])),
                        alpha1=draw(st.floats(-2.0, 2.0)
                                    | st.sampled_from([0.0, 5e-324]))))


@st.composite
def _raw_complexity_table(draw):
    return dict(experiment="complexity_table", m=draw(st.integers(1, 64)),
                k_list=draw(st.lists(st.integers(1, 16), min_size=1,
                                     max_size=3)),
                nsa_order=draw(st.integers(0, 4)),
                coherence_uses=draw(st.integers(1, 64)),
                algorithms=draw(st.lists(st.sampled_from(ALGORITHMS),
                                         min_size=1, max_size=3)))


@st.composite
def _raw_interconnect(draw):
    return dict(experiment="interconnect",
                r_samp=draw(st.floats(1.0, 1e8)),
                n_data=draw(st.integers(1, 1200)),
                n_sub=draw(st.integers(1, 2048)),
                n_cp=draw(st.integers(0, 200)),
                w_bits=draw(st.integers(1, 32)), m=draw(st.integers(1, 256)))


@st.composite
def _raw_hardening(draw):
    return dict(experiment="hardening", m_list=draw(_SIZE_LISTS),
                trials=draw(st.integers(1, 20)))


@st.composite
def _raw_calibration(draw):
    return dict(experiment="calibration", m=draw(_SIZES), k=draw(_SIZES),
                gain_bound_db=draw(st.floats(0.0, 3.0)),
                phase_bound_deg=draw(st.floats(0.0, 10.0)),
                residual_error_db=draw(st.lists(st.floats(-60.0, 0.0),
                                                min_size=1, max_size=2)),
                trials=draw(st.integers(1, 2)),
                precoder=draw(st.sampled_from(sorted(PRECODERS))))


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
    try:
        _, runner, _, _ = build_experiment(data.draw(_RAW[name]()), workers=1)
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
