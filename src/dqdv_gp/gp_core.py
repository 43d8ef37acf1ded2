"""Exact GP regression over Q(V).

Conditioning on training data, log marginal likelihood with analytic
gradients in log-hyperparameter space, and quasi-Newton hyperparameter
optimization from a given warm start or the best of several default starts,
all with the rational-quadratic kernel of ``kernel``.

Inputs are centered and outputs standardized internally (jitter and
optimizer bounds then live on a unit scale); hyperparameters and all
returned values are in natural units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import blas, lapack
from scipy.optimize import minimize

from .errors import AllStartsFailed, FactorizationFailure, NonFinite
from .kernel import Hyperparams, jitter_for, kernel_matrix, log_param_grads

__all__ = ["TrainingSet", "FittedGP", "log_marginal_likelihood", "fit", "posterior_mean"]

# large finite penalty returned to the optimizer when a Cholesky fails;
# keeps L-BFGS-B line searches well-behaved
_PENALTY = 1e25

_STD_FLOOR = 1e-12

# L-BFGS-B iteration budget of each ascent
MAX_ITER = 200

# an ascent stops at the first iteration that raises the LML by at most this
# many nats; the test is absolute, so where it stops depends on neither the
# number of points nor the unit of Q (both shift |LML| by thousands of nats)
LML_TOL = 3e-6

# a warm ascent, which starts near the optimum, stops only after this many
# such iterations in a row: one quiet iteration moved a warm refit's band
# half-width by up to 1.2e-3 relative from the cold fit, two by 5.8e-4
WARM_QUIET_ITERS = 2


@dataclass(frozen=True)
class TrainingSet:
    """Ordered (voltage, charge) training pairs with centering offsets."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or len(xs) != len(ys):
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        if len(xs) < 1:
            raise ValueError("training set must contain at least one point")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("training data must be finite")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing (merge duplicates upstream)")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    # computed once per training set; cached_property writes to the instance
    # __dict__, which a frozen dataclass allows
    @cached_property
    def x_mean(self):
        return float(self.xs.mean())

    @cached_property
    def y_mean(self):
        return float(self.ys.mean())

    @cached_property
    def y_std(self):
        return max(float(np.std(self.ys)), _STD_FLOOR)

    def __len__(self):
        return len(self.xs)


@dataclass(frozen=True)
class FittedGP:
    """Trained GP state: hyperparameters, Cholesky factor, and weights.

    The factorization lives in standardized units: chol is the lower factor
    of K(X,X) + (sigma_n^2 + jitter) I built from ``hp_internal`` over
    centered inputs, and weights = Kn^-1 y solves it against the
    standardized targets.  ``hp.alpha`` is the RQ shape.  ``fit_start`` is
    "warm" when ``fit`` kept the ascent from the start it was given, and
    "cold" when it ran the default starts.
    Immutable and safe to share across threads.
    """

    hp: Hyperparams
    train: TrainingSet
    chol: np.ndarray
    weights: np.ndarray
    lml: float
    fit_start: str

    @property
    def xs_centered(self):
        return self.train.xs - self.train.x_mean

    @property
    def hp_internal(self) -> Hyperparams:
        """Hyperparameters in standardized output units."""
        return _internal_hp(self.train, self.hp)


def _internal_hp(train, hp):
    s = train.y_std
    return replace(hp, signal_std=hp.signal_std / s, noise_std=hp.noise_std / s)


# Every BLAS and LAPACK call of an LML evaluation goes to scipy's library
# (lapack.*, blas.*), and the traces use np.einsum, which calls no BLAS.
# numpy loads a second OpenBLAS with its own thread pool; an n x n numpy BLAS
# call (@, np.dot, np.vdot) wakes that pool, whose threads then spin against
# scipy's: on 2 cores, dpotrf of a 300-point Gram took a median 4.7 ms right
# after an np.vdot over a 300 x 300 array, against 0.79 ms without it.
#
# An evaluation needs four n x n arrays: the three outputs of
# log_param_grads and the noisy Gram matrix, which dpotrf overwrites with the
# factor and dpotri with Kn^-1.  ``fit`` allocates them once and passes them
# to every evaluation.  Allocated afresh per call, their pages were faulted
# in again each time: at n = 300 a call took 673 minor page faults and
# 1.2-1.7 ms of system time out of 5.5-6.1 ms, against at most 1 fault, no
# system time and 3.5-3.6 ms with the arrays reused (300 calls at a fitted
# optimum, 3 repeats, 2 cores).


def _workspace(n):
    """The four n x n arrays one LML evaluation writes into."""
    return np.empty((4, n, n))


def _factor(train, hp_i, gram):
    """Add the noise diagonal to ``gram``, factor it and solve for the weights.

    ``gram`` is the noise-free Gram matrix in standardized units; it is
    overwritten by the factor.  Returns (chol, weights, lml) with chol the
    lower Cholesky factor (zero above the diagonal), weights = Kn^-1 ys_s
    and the LML in natural units.  Raises FactorizationFailure when the
    noisy Gram matrix is not positive definite or not finite.
    """
    gram[np.diag_indices_from(gram)] += hp_i.noise_std**2 + jitter_for(hp_i)
    # gram is symmetric, so its transpose is the Fortran-ordered view that
    # LAPACK factors in place
    chol, info = lapack.dpotrf(gram.T, lower=True, overwrite_a=True)
    if info != 0:
        raise FactorizationFailure(
            f"noisy Gram matrix is not positive definite (leading minor {info})")
    half_log_det = float(np.sum(np.log(np.diag(chol))))
    if not np.isfinite(half_log_det):
        raise FactorizationFailure("noisy Gram matrix is not finite")
    ys_s = (train.ys - train.y_mean) / train.y_std
    weights, _ = lapack.dpotrs(chol, ys_s, lower=True)
    n = len(train)
    lml_scaled = (
        -0.5 * blas.ddot(ys_s, weights)
        - half_log_det
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    return chol, weights, lml_scaled - n * np.log(train.y_std)


def _half_trace(kinv, a, m):
    """0.5 tr((a a^T - Kn^-1) M) for a symmetric M.

    ``kinv`` holds Kn^-1 in its lower triangle and zeros above, as dpotri
    leaves it.  tr(Kn^-1 M) = 2 sum(lower(Kn^-1) * M) - sum(diag(Kn^-1) *
    diag(M)), so no n x n temporary is formed.
    """
    quad = blas.ddot(a, blas.dsymv(1.0, m.T, a, lower=True))
    # kinv.T has the memory layout of m, so einsum streams both
    tr = 2.0 * np.einsum("ij,ij->", kinv.T, m) - np.einsum("ii,ii->", kinv, m)
    return 0.5 * (quad - tr)


def log_marginal_likelihood(train: TrainingSet, hp: Hyperparams, work=None):
    """LML of the centered data and its gradient w.r.t. log-hyperparameters.

    Returns (value, grad) with grad ordered (log l, log sigma_f, log sigma_n,
    log alpha); the value is in natural units (standardization only changes
    it by the constant N log std).  Raises FactorizationFailure when the
    noisy Gram matrix is not positive definite after jitter.  ``work`` is
    four float64 (n, n) C-ordered arrays to compute in, as ``_workspace``
    makes; their contents are overwritten and do not affect the result.
    Without it the evaluation allocates its own.
    """
    if work is None:
        work = _workspace(len(train))
    hp_i = _internal_hp(train, hp)
    kf, d_ell, d_alpha = log_param_grads(train.xs - train.x_mean, hp_i, out=work[:3])
    np.copyto(work[3], kf)
    chol, a, lml = _factor(train, hp_i, work[3])

    # d LML / d theta = 0.5 tr((a a^T - Kn^-1) dKn/dtheta); dpotri writes
    # the lower triangle of Kn^-1 over the factor, which is no longer needed
    kinv, info = lapack.dpotri(chol, lower=True, overwrite_c=True)
    if info != 0:
        raise FactorizationFailure(f"noisy Gram matrix is singular (pivot {info})")

    grad = [
        _half_trace(kinv, a, d_ell),
        2.0 * _half_trace(kinv, a, kf),    # dKn / d log sigma_f = 2 Kf
        # dKn / d log sigma_n = 2 sigma_n^2 I
        hp_i.noise_std**2 * (blas.ddot(a, a) - float(np.trace(kinv))),
        _half_trace(kinv, a, d_alpha),
    ]
    return lml, np.array(grad)


def _condition(train: TrainingSet, hp: Hyperparams, fit_start: str) -> FittedGP:
    hp_i = _internal_hp(train, hp)
    xs_c = train.xs - train.x_mean
    chol, weights, lml = _factor(train, hp_i, kernel_matrix(xs_c, xs_c, hp_i, "VV"))
    return FittedGP(hp=hp, train=train, chol=chol, weights=weights, lml=lml,
                    fit_start=fit_start)


def default_inits(train: TrainingSet) -> list[Hyperparams]:
    """Multi-start initializations: length scales at fixed fractions of the
    voltage span, signal at the sample std of ys, noise at 1% of it, alpha 1."""
    span = float(train.xs[-1] - train.xs[0]) or 1.0
    s = train.y_std
    return [Hyperparams(f * span, s, 0.01 * s) for f in (0.02, 0.05, 0.10, 0.20, 0.40)]


def _stop_when_quiet(f0, quiet):
    """L-BFGS-B callback that halts the ascent begun at -LML ``f0`` after
    ``quiet`` iterations in a row that each gain at most LML_TOL nats."""
    last, run = f0, 0

    def callback(intermediate_result):
        nonlocal last, run
        gain, last = last - intermediate_result.fun, intermediate_result.fun
        run = run + 1 if gain <= LML_TOL else 0
        if run >= quiet:
            raise StopIteration

    return callback


def fit(train: TrainingSet, start: Hyperparams | None = None) -> FittedGP:
    """Maximize the LML with L-BFGS-B in log-hyperparameter space.

    With ``start`` (say the previous cycle's optimum), scores that point and
    ascends from it, stopping after WARM_QUIET_ITERS iterations in a row that
    each gain at most LML_TOL nats.  Without it, or when that ascent fails
    (no finite LML, or the iteration budget runs out) or ends with a
    hyperparameter on a bound, scores the ``default_inits`` and ascends from
    the best one, stopping after the first iteration that gains at most
    LML_TOL nats.  The other default starts are ascended, best first, only
    while the latest ascent fails or ends on a bound.  Returns the
    conditioned model at the point with the highest LML evaluated, starts
    included.  The RQ shape alpha is optimized next to l, sigma_f and sigma_n.
    """
    if len(train) < 4:
        raise ValueError("fit requires at least 4 training points")
    span = float(train.xs[-1] - train.xs[0]) or 1.0
    s = train.y_std
    bounds = [
        (np.log(1e-4 * span), np.log(10.0 * span)),
        (np.log(1e-6 * s), np.log(1e3 * s)),
        (np.log(1e-8 * s), np.log(1.0 * s)),
        (np.log(1e-2), np.log(1e3)),
    ]
    lo, hi = np.array(bounds).T
    work = _workspace(len(train))
    # (-LML, -grad) of every point scored, in the order scored: L-BFGS-B's
    # first call repeats the start it ascends from, which is answered from
    # here, and an ascent can end at a point below the best one it evaluated
    scored = {}

    def neg_lml(log_theta):
        """(-LML, -grad) at log-hyperparameters, or (_PENALTY, 0) where the
        LML cannot be evaluated."""
        if not np.all(np.isfinite(log_theta)):
            raise NonFinite("non-finite log-hyperparameters in optimization")
        key = log_theta.tobytes()
        if key not in scored:
            try:
                val, grad = log_marginal_likelihood(train, Hyperparams(*np.exp(log_theta)), work)
            except FactorizationFailure:
                val = np.nan
            finite = np.isfinite(val)
            scored[key] = (-val, -grad) if finite else (_PENALTY, np.zeros(len(log_theta)))
        f, g = scored[key]
        return f, g.copy()

    def score(hp0):
        """(-LML, log-hyperparameters) of a start, clipped into the bounds."""
        theta0 = [hp0.length_scale, hp0.signal_std, max(hp0.noise_std, 1e-8 * s), hp0.alpha]
        x0 = np.clip(np.log(theta0), lo, hi)
        return neg_lml(x0)[0], x0

    def ascend(f0, x0, quiet):
        """Ascend from a scored start; True unless the ascent failed or
        ended with a hyperparameter on a bound."""
        res = minimize(
            neg_lml,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            callback=_stop_when_quiet(f0, quiet),
            # zero switches off L-BFGS-B's own tests (ftol, relative to
            # |LML|, and gtol on the projected gradient): the callback stops
            options={"maxiter": MAX_ITER, "gtol": 0.0, "ftol": 0.0},
        )
        # status 1 is the iteration budget running out.  Any other status
        # ends at the optimum the ascent can resolve: 99 is the quiet stop
        # (scipy's code for a callback halt), 2 a line search that cannot
        # improve at the precision of the gradient.  With all five cold
        # starts ascended on plating and no-plating seeds 0-99, every
        # status-2 run ended within 6.6e-6 nats of the best of the five, and
        # 861 of the 865 one-quiet stops within 1e-5 (the worst 4.0e-5
        # short, on the ridge in alpha).  A warm start is already near the
        # optimum, where one quiet iteration can be a lull on that ridge, so
        # its ascent waits for WARM_QUIET_ITERS
        converged = res.status != 1 and res.fun < _PENALTY
        return converged and not np.any((res.x <= lo) | (res.x >= hi))

    warm = False
    if start is not None:
        f0, x0 = score(start)
        warm = f0 < _PENALTY and ascend(f0, x0, WARM_QUIET_ITERS)
    if not warm:
        # stable sort: ties keep default_inits' order, so the fit stays deterministic
        starts = sorted((score(hp0) for hp0 in default_inits(train)), key=lambda st: st[0])
        for f0, x0 in starts:
            if f0 < _PENALTY and ascend(f0, x0, 1):
                break
    # neg_lml holds the buffers through its closure cell; drop them before
    # conditioning allocates its own n x n arrays
    work = None
    # min keeps the first of equal values, so ties go to the earliest point
    best_key = min(scored, key=lambda point: scored[point][0])
    if scored[best_key][0] >= _PENALTY:
        raise AllStartsFailed("every optimization start failed")
    best_x = np.frombuffer(best_key)
    return _condition(train, Hyperparams(*np.exp(best_x)), "warm" if warm else "cold")


def posterior_mean(model: FittedGP, grid):
    """Posterior mean of Q at the given voltages, in natural units."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    ks = kernel_matrix(grid - model.train.x_mean, model.xs_centered, model.hp_internal, "VV")
    return model.train.y_std * (ks @ model.weights) + model.train.y_mean

