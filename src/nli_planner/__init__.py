"""Closed-form nonlinear-interference models and planning tools for
coherent WDM links: SNR/reach evaluation, system generation, launch-power
optimization, a numerical quadrature benchmark, campaigns and coefficient
fitting.
"""

from .types import (CfmKind, FiberParams, LinkSpec, ModelCoefficients,
                    ModelVariant, ModulationFormat, ValidationError,
                    phi_of_format)
from .assets import (fiber_presets, identity_coefficients, model,
                     shipped_coefficients)
from .cfm import (LowDispersionWarning, ZeroDispersionError, rx_nli_psd,
                  rx_nli_psd_all_channels)
from .perf import (ReachResult, SensitivityPolicy, SnrReport,
                   UnreachableError, ase_power, evaluate_all_channels,
                   max_reach, shannon_sensitivity, snr, snr_report)
from .sysgen import (GeneratorConfig, generate_system,
                     generate_system_from_seed)
from .poweropt import PowerPlan, optimize_powers
from .oracle import (QuadratureConfig, QuadratureError, QuadratureStats,
                     gn_rx_psd, gn_span_psd, gn_span_psds)
from .campaign import (CampaignConfig, CampaignResult, CfmBenchmark,
                       ErrorStats, FitConfig, FitResult, FitStart,
                       GnOracleBenchmark, error_stats, fit_coefficients,
                       run_campaign)
from .fileio import (ParseError, load_coefficients, load_system,
                     save_coefficients, save_system)

__version__ = "0.1.0"

__all__ = [
    "CfmKind", "FiberParams", "LinkSpec", "ModelCoefficients",
    "ModelVariant", "ModulationFormat", "ValidationError", "phi_of_format",
    "fiber_presets", "identity_coefficients", "model",
    "shipped_coefficients",
    "LowDispersionWarning", "ZeroDispersionError", "rx_nli_psd",
    "rx_nli_psd_all_channels",
    "ReachResult", "SensitivityPolicy", "SnrReport", "UnreachableError",
    "ase_power", "evaluate_all_channels", "max_reach",
    "shannon_sensitivity", "snr", "snr_report",
    "GeneratorConfig", "generate_system", "generate_system_from_seed",
    "PowerPlan", "optimize_powers",
    "QuadratureConfig", "QuadratureError", "QuadratureStats", "gn_rx_psd",
    "gn_span_psd", "gn_span_psds",
    "CampaignConfig", "CampaignResult", "CfmBenchmark", "ErrorStats",
    "FitConfig", "FitResult", "FitStart", "GnOracleBenchmark", "error_stats",
    "fit_coefficients", "run_campaign",
    "ParseError", "load_coefficients", "load_system", "save_coefficients",
    "save_system",
]
