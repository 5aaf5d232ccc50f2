"""Analyzer, simulator, and optimizer for a roadside mm-wave network that
serves localization and communication jointly: localization error bounds,
beam-selection / misalignment error probabilities, SINR and effective-rate
coverage, initial-access delay, and the optimal beamwidth / frame split.
"""

from .config import NetworkConfig
from .antenna import (
    UlaArray,
    array_response,
    array_response_derivative,
    beamwidth_to_elements,
    main_lobe_gain,
    sidelobe_gain,
)
from .dictionary import beam_boundaries
from .localization import (
    avg_beam_selection_error,
    avg_misalignment_error,
    nu_threshold,
    p_misalignment,
)
from .coverage import (
    CoverageQuery,
    CoverageResult,
    laplace_interference,
    overall_coverage,
    rate_coverage,
    rate_to_sinr_threshold,
)
from .montecarlo import (
    simulate_coverage,
    simulate_error_probabilities,
    simulate_laplace,
)
from .initial_access import (
    AccessPolicy,
    AccessStep,
    AccessTrace,
    delay_exhaustive,
    delay_iterative,
    run_initial_access,
    select_ue_beam,
)
from .optimizer import (
    OptimizationResult,
    OptimizationSpec,
    optimize_beamwidth,
    optimize_beta,
    ue_beamwidth_for_dictionary,
)
from .errors import ConfigError, NumericError

__version__ = "0.1.0"
