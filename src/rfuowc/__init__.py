"""Outage analysis of a dual-hop UAV RF link into an underwater optical link.

Three mutually validating evaluation paths are provided: a closed-form
expression built on Meijer G-functions, direct quadrature of the outage
integral, and Monte Carlo simulation of both hops.
"""

__version__ = "0.1.0"

from .specfun import (  # noqa: F401
    CapabilityError,
    ContourError,
    GammaDomainError,
    MeijerGSpec,
    NonConvergenceError,
    SpecfunError,
    ln_gamma,
    meijer_g,
    meijer_g_mellin_barnes,
)
from .channels import (  # noqa: F401
    EggParams,
    PointingParams,
    RfLinkParams,
    UowcLinkParams,
    WaterPreset,
    WATER_PRESETS,
    egg_moment,
    get_preset,
    relay_constant_c,
    rf_avg_power_gain,
    rf_avg_snr,
    rf_snr_cdf,
    rf_snr_pdf,
    uowc_snr_cdf,
    uowc_snr_pdf,
)
from .system import (  # noqa: F401
    OutageQuery,
    OutageResult,
    SystemConfig,
    end_to_end_snr,
    flooring_gap_report,
    outage_closed_form,
    outage_quadrature,
)
from .mc import (  # noqa: F401
    McConfig,
    McEstimate,
    mc_moments,
    mc_outage,
    sample_egg_irradiance,
    sample_pointing,
    sample_rf_best_snr,
)
