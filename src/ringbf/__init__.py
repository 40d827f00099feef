"""Ring-decomposed bilateral filtering for 16-bit grayscale images.

The filter averages each pixel's ring-shaped neighborhood with weights that
fall off both with spatial distance and with photometric difference, scaled
so that a chosen fraction of the local noise deviation survives.  The
package bundles the filter itself, a Monte-Carlo estimator of the
deviation-reduction function, a threshold solver, a dose-to-noise model for
planning filter strength on low-dose CT-style images, and empirical
calibration from image pairs.

Images and Monte-Carlo trial ensembles go through one numpy compute path
(``ringbf._core_py``).  It walks images in cache-sized row strips on one
thread per available core, and trial ensembles in fixed-size chunks, so
temporaries stay in cache rather than streaming whole-image arrays through
memory.  Each pixel keeps a pinned operation order, so results are
bit-identical whatever the tiling or the thread count.
"""
from .analysis import (
    DEFAULT_TRIALS_CURVE,
    DEFAULT_TRIALS_TABLE,
    CurveExtrema,
    KCurve,
    KEstimate,
    NoiseDistribution,
    compute_curve,
    curve_to_csv,
    estimate_K,
    estimate_linear_K,
    find_extrema,
    linear_k0,
    solve_threshold,
)
from .calibrate import (
    S_L_FLOOR,
    SUMMARY_BINS,
    LocalMaps,
    PointSummary,
    PolyFit,
    PredictorStats,
    RegressionReport,
    empirical_K_points,
    fit_polynomial,
    format_calibration_report,
    format_points,
    local_maps,
    local_std_map,
    regress_noise,
    summarize_points,
)
from .ctmodel import (
    DEFAULT_DOSE_MODEL,
    DEFAULT_HU_GATE,
    DEFAULT_THRESHOLD,
    DoseNoiseModel,
    FilterPlan,
    load_dose_model,
    noise_sigma,
    plan_filter,
    synth_phantom,
    synth_phantom_values,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DegenerateFitError,
    FormatError,
    NumericalError,
    OutOfDomainError,
    RangeError,
)
from .filter import (
    FilterConfig,
    Image,
    filter_image,
    filter_image_values,
    filter_pixel_dense,
    quantize_to_int16,
)
from .io_cli import cli_dispatch, read_image, write_image
from .kernel import (
    MAX_SUPPORT_SIZE,
    KernelSpec,
    Ring,
    RingNeighborhood,
    VFamily,
    WFamily,
    build_rings,
    eval_W,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernel
    "VFamily",
    "WFamily",
    "KernelSpec",
    "Ring",
    "RingNeighborhood",
    "MAX_SUPPORT_SIZE",
    "build_rings",
    "eval_W",
    # filter
    "Image",
    "FilterConfig",
    "quantize_to_int16",
    "filter_pixel_dense",
    "filter_image",
    "filter_image_values",
    # analysis
    "NoiseDistribution",
    "KEstimate",
    "KCurve",
    "CurveExtrema",
    "DEFAULT_TRIALS_TABLE",
    "DEFAULT_TRIALS_CURVE",
    "estimate_K",
    "estimate_linear_K",
    "linear_k0",
    "compute_curve",
    "solve_threshold",
    "find_extrema",
    "curve_to_csv",
    # ct model
    "DoseNoiseModel",
    "DEFAULT_DOSE_MODEL",
    "DEFAULT_HU_GATE",
    "DEFAULT_THRESHOLD",
    "noise_sigma",
    "FilterPlan",
    "plan_filter",
    "synth_phantom",
    "synth_phantom_values",
    "load_dose_model",
    # calibration
    "S_L_FLOOR",
    "SUMMARY_BINS",
    "local_std_map",
    "LocalMaps",
    "local_maps",
    "empirical_K_points",
    "PointSummary",
    "summarize_points",
    "PolyFit",
    "fit_polynomial",
    "PredictorStats",
    "RegressionReport",
    "regress_noise",
    "format_points",
    "format_calibration_report",
    # io
    "read_image",
    "write_image",
    "cli_dispatch",
    # errors
    "FormatError",
    "RangeError",
    "NumericalError",
    "BracketError",
    "ConvergenceError",
    "DegenerateFitError",
    "OutOfDomainError",
]
