"""Registration of noisy periodic curves sharing one common shape.

Estimates per-curve phase shifts, amplitudes, and levels across a panel of
curves that are all shifted/scaled/raised copies of one unknown periodic
function, by minimizing a Fourier-domain profile criterion.  Ships the
closed-form asymptotic covariance, confidence intervals, the estimated
common shape, and a Monte Carlo harness that checks the estimator against
its theoretical covariance.
"""

from .criterion import (
    criterion_gradient,
    criterion_value,
    profiled_coefficients,
    profiled_mean,
)
from .errors import ShapeAlignError
from .fit import (
    FitConfig,
    FitResult,
    estimate_shape,
    fit,
    fit_batch,
    initialize_shifts,
)
from .fourier import (
    SamplingGrid,
    ShapeSpectrum,
    dft,
    evaluate_shifted_on_grid,
    evaluate_spectrum,
    make_grid,
)
from .inference import (
    A1CovarianceBlocks,
    ConfidenceReport,
    EfficiencyBlocks,
    a1_covariance,
    confidence_intervals,
    efficiency_blocks,
    scaled_covariance,
)
from .model import (
    ConstraintRegime,
    CurvePanel,
    ParameterSet,
    Regime,
    center_shape,
    generate_panel,
    generate_panels,
    project_to_constraints,
    reparameterize_to_a1,
)
from .montecarlo import (
    MiseCurve,
    RegimeComparison,
    StudyConfig,
    StudyReport,
    compare_regimes,
    mise_curve,
    run_study,
)
from .normal import inverse_normal_cdf, standard_normals

__version__ = "0.1.0"
