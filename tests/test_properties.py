"""Property tests on small random configs: what ``validate`` accepts runs,
and one shared pass over a study's runs counts what separate runs count."""
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mimodsp import SimConfig, run_uplink_ber
from mimodsp.equalization import DETECTORS, MAX_SERIES_ORDER
from mimodsp.impairments import FAULT_MODES
from mimodsp.link import sim
from mimodsp.link.modem import _ORDERS
from mimodsp.link.sim import FAULT_POLICIES
from mimodsp.numerics import NonPositivePivotError, ZeroDiagonalError

# ROADMAP item 5: a factorization breakdown at a short word length aborts
# the run.  No other exception may escape a run that validate accepted.
BREAKDOWNS = (NonPositivePivotError, ZeroDiagonalError, ZeroDivisionError)


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
