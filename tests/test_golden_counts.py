"""Pinned bit-error counts for every uplink detector.

A small coded 16-QAM sweep runs each detector in double precision and
under the 4/4 and 8/8 fraction-bit overlays, and zf and chd behind the
fault front end.  The counts were recorded before the detectors were
folded into one implementation; any change to them is a change in
behaviour, not a refactor.  The grid is chosen so every detector makes
errors at one point or more, so a detector that silently stops
detecting cannot pass by staying at zero.  An uncoded table does the
same for hard decisions: every constellation with mr, zf, mmse and chd,
and zf behind the fault front end.  A last table runs zf and chd on a
least-squares channel estimate from 0 dB pilots.
"""
import pytest

from mimodsp import SimConfig, run_uplink_ber

_BASE = dict(m=32, k=8, snr_db=(-10.0, -8.0, -6.0), constellation="16qam",
             coded=True, coherence_uses=64, frames=3, seed=7)

# detector -> fraction bits (None = double precision) -> n_errors per SNR
GOLDEN = {
    "mr": {None: (932, 618, 349), 4: (932, 618, 349), 8: (932, 618, 349)},
    "zf": {None: (710, 104, 0), 4: (710, 104, 0), 8: (710, 104, 0)},
    "mmse": {None: (599, 39, 0), 4: (599, 39, 0), 8: (599, 39, 0)},
    "chd": {None: (694, 83, 0), 4: (760, 135, 0), 8: (694, 90, 0)},
    "cd": {None: (699, 83, 0), 4: (915, 231, 0), 8: (699, 90, 0)},
    "nsa": {None: (856, 178, 0), 4: (857, 300, 8), 8: (857, 172, 0)},
    "wnsa": {None: (694, 83, 0), 4: (894, 368, 3), 8: (786, 126, 0)},
    "mqrd": {None: (694, 83, 0), 4: (939, 264, 18), 8: (768, 83, 0)},
}


@pytest.mark.parametrize("bits", [None, 4, 8], ids=["float", "fxp4", "fxp8"])
@pytest.mark.parametrize("detector", sorted(GOLDEN))
def test_error_counts_pinned(detector, bits):
    cfg = SimConfig(detector=detector, signal_fraction_bits=bits,
                    operator_fraction_bits=bits, **_BASE)
    res = run_uplink_ber(cfg)
    assert all(p.n_bits == 3 * 8 * 122 for p in res.points)
    assert tuple(p.n_errors for p in res.points) == GOLDEN[detector][bits]


# Fault front end at a quarter of the antennas (8 of 32), recorded before
# the victim set became frame data: case -> (policy, mode, adc_bits).
_FRONT_END_CASES = {
    "exclude": ("exclude", "stuck_at_max", None),
    "ignore": ("ignore", "stuck_at_max", None),
    "ignore_value": ("ignore", "stuck_at_value", None),
    "exclude_adc4": ("exclude", "stuck_at_max", 4),
}
FRONT_END_GOLDEN = {
    "zf": {"exclude": (1042, 491, 30), "ignore": (1425, 1322, 1187),
           "ignore_value": (1142, 713, 300),
           "exclude_adc4": (1113, 451, 59)},
    "chd": {"exclude": (1236, 553, 23), "ignore": (1393, 1349, 1290),
            "ignore_value": (1320, 997, 589),
            "exclude_adc4": (1259, 660, 30)},
}


# The coded sweep on an estimate from 0 dB pilots, recorded before the
# estimate's error was drawn through draw_iid_rayleigh: detector ->
# fraction bits -> n_errors per SNR.
PILOT_GOLDEN = {
    "zf": {None: (1394, 1343, 1280), 8: (1394, 1343, 1280)},
    "chd": {None: (1445, 1361, 1342), 8: (1445, 1369, 1345)},
}


@pytest.mark.parametrize("bits", [None, 8], ids=["float", "fxp8"])
@pytest.mark.parametrize("detector", sorted(PILOT_GOLDEN))
def test_finite_pilot_counts_pinned(detector, bits):
    cfg = SimConfig(detector=detector, signal_fraction_bits=bits,
                    operator_fraction_bits=bits, pilot_snr_db=0.0, **_BASE)
    res = run_uplink_ber(cfg)
    assert (tuple(p.n_errors for p in res.points)
            == PILOT_GOLDEN[detector][bits])


@pytest.mark.parametrize("case", sorted(_FRONT_END_CASES))
@pytest.mark.parametrize("detector", sorted(FRONT_END_GOLDEN))
def test_front_end_counts_pinned(detector, case):
    policy, mode, adc_bits = _FRONT_END_CASES[case]
    cfg = SimConfig(detector=detector, victim_fraction=0.25,
                    victim_policy=policy, victim_mode=mode,
                    adc_bits=adc_bits, **_BASE)
    res = run_uplink_ber(cfg)
    assert (tuple(p.n_errors for p in res.points)
            == FRONT_END_GOLDEN[detector][case])


# Uncoded hard decisions, recorded before they moved to per-axis labels:
# constellation -> detector (chd at 8/8 bits) -> n_errors per SNR.
_UNCODED = dict(m=8, k=4, snr_db=(0.0, 6.0, 12.0), coded=False,
                coherence_uses=64, frames=3, seed=7)
UNCODED_GOLDEN = {
    "qpsk": {"mr": (163, 130, 111), "zf": (55, 1, 0), "mmse": (49, 1, 0),
             "chd": (48, 1, 0)},
    "16qam": {"mr": (747, 697, 668), "zf": (470, 112, 7),
              "mmse": (413, 102, 9), "chd": (435, 109, 8)},
    "64qam": {"mr": (1496, 1417, 1408), "zf": (1146, 562, 150),
              "mmse": (1047, 548, 146), "chd": (1104, 565, 152)},
    "256qam": {"mr": (2270, 2215, 2204), "zf": (1904, 1281, 634),
               "mmse": (1841, 1239, 630), "chd": (1874, 1266, 633)},
}
# zf behind the fault front end at a quarter of the antennas (2 of 8):
# case -> constellation -> n_errors per SNR.
UNCODED_FRONT_END_GOLDEN = {
    "exclude": {"qpsk": (109, 7, 0), "16qam": (592, 211, 10)},
    "ignore_value": {"qpsk": (161, 58, 35), "16qam": (680, 477, 383)},
}


@pytest.mark.parametrize("detector", ["mr", "zf", "mmse", "chd"])
@pytest.mark.parametrize("constellation", sorted(UNCODED_GOLDEN))
def test_uncoded_counts_pinned(constellation, detector):
    bits = 8 if detector == "chd" else None
    cfg = SimConfig(constellation=constellation, detector=detector,
                    signal_fraction_bits=bits, operator_fraction_bits=bits,
                    **_UNCODED)
    res = run_uplink_ber(cfg)
    bps = {"qpsk": 2, "16qam": 4, "64qam": 6, "256qam": 8}[constellation]
    assert all(p.n_bits == 3 * 4 * 64 * bps for p in res.points)
    assert (tuple(p.n_errors for p in res.points)
            == UNCODED_GOLDEN[constellation][detector])


@pytest.mark.parametrize("constellation", ["qpsk", "16qam"])
@pytest.mark.parametrize("case", sorted(UNCODED_FRONT_END_GOLDEN))
def test_uncoded_front_end_counts_pinned(case, constellation):
    policy, mode, _ = _FRONT_END_CASES[case]
    cfg = SimConfig(constellation=constellation, detector="zf",
                    victim_fraction=0.25, victim_policy=policy,
                    victim_mode=mode, **_UNCODED)
    res = run_uplink_ber(cfg)
    assert (tuple(p.n_errors for p in res.points)
            == UNCODED_FRONT_END_GOLDEN[case][constellation])


def test_every_detector_makes_errors():
    for detector, by_case in (*GOLDEN.items(), *FRONT_END_GOLDEN.items(),
                              *PILOT_GOLDEN.items(), *UNCODED_GOLDEN.items(),
                              *UNCODED_FRONT_END_GOLDEN.items()):
        for counts in by_case.values():
            assert any(counts), detector
