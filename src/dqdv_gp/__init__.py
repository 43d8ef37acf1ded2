"""GP-based incremental-capacity (dQ/dV) analysis and lithium-plating
detection from battery charging logs.

The charge-voltage curve Q(V) is modeled as an exact Gaussian process with
a rational-quadratic kernel; dQ/dV follows in closed form from the joint
value-derivative posterior with calibrated credible bands, and cycles are
classified by the above-4.0 V differential-peak signature.
"""

from .kernel import Hyperparams, k, k_cross, k_dd, kernel_matrix
from .gp_core import TrainingSet, FittedGP, log_marginal_likelihood, fit, posterior_mean
from .derivative import (
    DerivativePosterior,
    derivative_posterior,
    covariance_full,
    sample_derivative,
)
from .ingest import (
    ChargeLog,
    QVCurve,
    parse_log,
    write_log,
    extract_cc_charge,
    coulomb_count,
    clean_qv,
)
from .detect import PeakCandidate, PlatingReport, find_peaks, classify
from .metrics import ThroughputSeries, throughput_series, degradation_rate, concordance
from .baseline import SgConfig, fd_dqdv
from .synth import (
    SynthSpec,
    LogisticRamp,
    GaussianBump,
    plating_spec,
    baseline_spec,
    true_dqdv,
    true_q,
    generate_cycle,
    generate_log,
)
from .pipeline import analyze_curve, log_to_curves, paired_trial
from . import errors

__version__ = "0.1.0"
