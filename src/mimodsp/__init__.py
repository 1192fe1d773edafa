"""Massive MIMO baseband co-design toolkit.

Fixed-point numerics, channel models, centralized and decentralized
equalization, front-end impairment models, hardware cost accounting, and
a coded link-level simulator, tied together by the ``mimodsp`` CLI.
"""
from . import (channel, complexity, decentral, equalization, impairments,
               link, numerics)
from .channel import (draw_iid_rayleigh, estimate_ls, gram, hardening_variance,
                      stream_rng)
from .complexity import AlgoCost, exact_inverse_cost, table2_cost
from .decentral import (InterconnectConfig, aggregate, interconnect_rate,
                        local_gram, local_mf)
from .equalization import (NsaDivergenceWarning, UplinkDetector,
                           build_uplink_detector, combiner_exact,
                           fit_wnsa_weights, nsa_inverse, precode,
                           wnsa_inverse)
from .impairments import (CircuitErrorModel, FrontEndSet, PaModel,
                          build_nonreciprocal, calibrate, draw_front_end_set,
                          draw_victims, evm_db, inject_errors, mui_db,
                          pa_apply, quantize_adc)
from .link import (BerResult, CalibrationConfig, Constellation, EvmConfig,
                   SimConfig, conv_encode, demap_hard, demap_soft, map_bits,
                   run_calibration_study, run_downlink_evm, run_outage_study,
                   run_uplink_ber, snr_at_ber, viterbi_decode)
from .numerics import (FixedPointFormat, FxpOverlay, GivensRotation,
                       NonPositivePivotError, ZeroDiagonalError,
                       back_substitute, cholesky, forward_substitute,
                       fxp_quantize, givens_exact, givens_modified, qrd)

__version__ = "0.1.0"
