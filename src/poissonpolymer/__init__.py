"""Brownian directed polymer in a Poissonian medium.

Simulation and analytics for a Brownian path in d spatial dimensions coupled
to a Poisson point field: quenched and annealed free energies, replica
overlaps, favourite-path localization, and the closed-form phase-diagram
bounds, with deterministic counter-based random streams throughout.
"""

__version__ = "0.1.0"

from .analytics import (
    BetaCriticalBounds,
    CriticalPoint,
    PhaseLabel,
    annealed_gap_integrand,
    annealed_rate,
    bessel_zero,
    classify_phase,
    critical_beta_bounds,
    critical_curve_exponent,
    critical_intensity_lower_bound,
    critical_intensity_ratio,
    curve_kernel,
    drift_gap_integrand,
    in_l2_region,
)
from .environment import (
    PointCloud,
    SpaceTimeBox,
    sample_poisson,
)
from .estimators import (
    EstimateWithError,
    ExperimentConfig,
    annealed_free_energy,
    dp_dbeta,
    dp_dnu,
    localization_scan,
    quenched_free_energy,
)
from .geometry import unit_ball_radius
from .polymer import (
    GibbsEnsemble,
    TimeGrid,
    TwoToOneReport,
    build_ensemble,
    field_report,
    sample_paths,
)
from .streams import stream_key, substream, substreams

__all__ = [name for name in dir() if not name.startswith("_")]
