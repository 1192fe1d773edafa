"""Coded link-level simulation: modem, convolutional code, Monte-Carlo runs."""
from .coding import conv_encode, viterbi_decode
from .modem import Constellation, demap_hard, demap_soft, map_bits
from .sim import (BerPoint, BerResult, CalibrationConfig, EvmConfig, EvmPoint,
                  OutagePoint, OutageResult, SimConfig, run_calibration_study,
                  run_downlink_evm, run_outage_study, run_uplink_ber,
                  snr_at_ber)

__all__ = [
    "Constellation", "map_bits", "demap_hard", "demap_soft",
    "conv_encode", "viterbi_decode",
    "SimConfig", "BerPoint", "BerResult", "run_uplink_ber",
    "EvmConfig", "EvmPoint", "run_downlink_evm", "CalibrationConfig",
    "run_calibration_study",
    "OutagePoint", "OutageResult", "run_outage_study", "snr_at_ber",
]
