"""Exact GP regression over Q(V).

Conditioning on training data, log marginal likelihood with analytic
gradients in log-hyperparameter space, and hyperparameter optimization from
a given warm start or the best of several default starts, all with the
kernel and hyperparameter table (``PARAMS``) of ``kernel``.  The
optimization ascends the profiled LML: sigma_f^2 takes its closed-form
optimum y^T C^-1 y / n at each point (the concentrated likelihood; Santner,
Williams & Notz 2003, sec. 3.3), so the ascent searches one dimension fewer.
It is a trust-region Newton method on the profiled LML's exact Hessian
(Rasmussen & Williams 2006, sec. 5.4.1; Moré & Sorensen 1983).

Inputs are centered and outputs standardized internally (jitter and
optimizer bounds then live on a unit scale); hyperparameters and all
returned values are in natural units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import blas, lapack
from scipy.optimize import Bounds, OptimizeResult, brentq, minimize

from .errors import AllStartsFailed, FactorizationFailure, NonFinite
from .kernel import (
    PARAMS,
    Hyperparams,
    jitter_for,
    kernel_matrix,
    log_param_grads,
    log_param_hessian,
)

__all__ = ["TrainingSet", "FittedGP", "log_marginal_likelihood", "fit", "posterior_mean"]

# the -LML of a point whose LML cannot be evaluated: finite, and worse than
# any real value, so the ascent rejects a step to it
_PENALTY = 1e25

_STD_FLOOR = 1e-12

# iteration budget of each ascent; an iteration evaluates at most one point
MAX_ITER = 200

# an ascent stops at a point where the Newton step predicts a gain of at
# most this many nats; the test is absolute, so where it stops depends on
# neither the number of points nor the unit of Q (both shift |LML| by
# thousands of nats)
LML_TOL = 3e-6


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

    @cached_property
    def ys_standardized(self):
        return (self.ys - self.y_mean) / self.y_std

    def __len__(self):
        return len(self.xs)


@dataclass(frozen=True)
class FittedGP:
    """Trained GP state: hyperparameters, Cholesky factor, and weights.

    The factorization lives in standardized units: chol is the lower factor
    of K(X,X) + (sigma_n^2 + jitter) I built from ``hp_internal`` over
    centered inputs, and weights = Kn^-1 y solves it against the
    standardized targets.  ``fit_start`` is "warm" when ``fit`` kept the
    ascent from the start it was given, and "cold" when it ran the default
    starts.  Immutable and safe to share across threads.
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
    return replace(hp, **{p.name: getattr(hp, p.name) / s for p in PARAMS if p.unit == "Ah"})


def _scales(train):
    """What each unit of ``PARAMS`` is a multiple of, for this training set."""
    return {"V": float(train.xs[-1] - train.xs[0]) or 1.0, "Ah": train.y_std, "": 1.0}


# Every BLAS and LAPACK call of an LML evaluation goes to scipy's library
# (lapack.*, blas.*), and the traces use np.einsum, which calls no BLAS.
# numpy loads a second OpenBLAS with its own thread pool; an n x n numpy BLAS
# call (@, np.dot, np.vdot) wakes that pool, whose threads then spin against
# scipy's: on 2 cores, dpotrf of a 300-point Gram took a median 4.7 ms right
# after an np.vdot over a 300 x 300 array, against 0.79 ms without it.
#
# A value and gradient need the len(PARAMS) - 1 outputs of log_param_grads:
# K, to which _factor adds the noise diagonal and which dpotrf then
# overwrites with the factor and dpotri with C^-1, and one per shape
# parameter.  The Hessian needs the products C^-1 dC/dtheta of every shape
# parameter at once, in one more array each, and the second-derivative
# blocks are then built one at a time in two of those.
# ``fit`` allocates the arrays once and passes them to every evaluation.
# Allocated afresh per call, their pages were faulted in again each time: at
# n = 300 a call took 673 minor page faults and 1.2-1.7 ms of system time out
# of 5.5-6.1 ms, against at most 1 fault, no system time and 3.5-3.6 ms with
# the arrays reused (300 calls at a fitted optimum, 3 repeats, 2 cores).


def _indices():
    """Indices into ``PARAMS`` of sigma_f, of sigma_n and, in order, of the
    shape parameters, whose derivatives log_param_grads returns."""
    names = [p.name for p in PARAMS]
    i_f, i_n = names.index("signal_std"), names.index("noise_std")
    return i_f, i_n, [i for i in range(len(PARAMS)) if i not in (i_f, i_n)]


def _workspace(n):
    """The n x n arrays one LML evaluation writes into: len(PARAMS) - 1 for
    the value and gradient, and one per shape parameter for the Hessian."""
    return np.empty((2 * len(PARAMS) - 3, n, n))


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
    ys_s = train.ys_standardized
    weights, _ = lapack.dpotrs(chol, ys_s, lower=True)
    n = len(train)
    lml_scaled = (
        -0.5 * blas.ddot(ys_s, weights)
        - half_log_det
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    return chol, weights, lml_scaled - n * np.log(train.y_std)


def _half_trace(kinv, a, m):
    """0.5 tr((a a^T - C^-1) M) for a symmetric M, and M a.

    ``kinv`` holds C^-1 in its lower triangle and zeros above, as dpotri
    leaves it.  tr(C^-1 M) = 2 sum(lower(C^-1) * M) - sum(diag(C^-1) *
    diag(M)), so no n x n temporary is formed.
    """
    m_a = blas.dsymv(1.0, m.T, a, lower=True)
    # kinv.T has the memory layout of m, so einsum streams both
    tr = 2.0 * np.einsum("ij,ij->", kinv.T, m) - np.einsum("ii,ii->", kinv, m)
    return 0.5 * (blas.ddot(a, m_a) - tr), m_a


def _peak_on_ray(var, rho):
    """(sigma_f, sigma_n, the name of the row whose bound holds the peak or
    None), in units of std(Q), where the LML peaks on the ray sigma_n = rho
    sigma_f inside both ``PARAMS`` bounds, from the unconstrained peak
    sigma_f^2 = ``var``.  The LML is concave in log sigma_f along the ray,
    so this projects ``var`` into the bounds; a held parameter equals its
    bound exactly.
    """
    bounds = {p.name: p.bounds for p in PARAMS}
    sf = min(max(np.sqrt(var), bounds["signal_std"][0]), bounds["signal_std"][1])
    sn = min(max(rho * sf, bounds["noise_std"][0]), bounds["noise_std"][1])
    if sn != rho * sf:
        return sn / rho, sn, "noise_std"
    return sf, sn, None if sf == np.sqrt(var) else "signal_std"


def log_marginal_likelihood(train: TrainingSet, hp: Hyperparams, work=None, *,
                            profile=False, order=1):
    """LML of the centered data and its gradient w.r.t. log-hyperparameters.

    Returns (value, grad) with grad in ``PARAMS`` order; the value is in
    natural units (standardization only changes it by the constant N log
    std).  Every evaluation factors C = Kn / sigma_f^2, a function of rho =
    sigma_n / sigma_f, and scales it to the sigma_f of ``hp``.  Raises
    FactorizationFailure when C is not positive definite after jitter.
    ``work`` is ``_workspace``'s float64 (n, n) C-ordered arrays to compute
    in; their contents are overwritten and do not affect the result.
    Without it the evaluation allocates its own.

    With ``profile``, ``hp`` gives only the ray sigma_n / sigma_f = rho,
    and the LML is taken at the sigma_f that maximizes it on that ray
    inside the ``PARAMS`` bounds (``_peak_on_ray``).  Returns (value, grad,
    hess, hp) with hp that point and value the LML there; grad is the
    gradient of this profiled LML, which depends on sigma_f and sigma_n
    only through rho, so its sigma_f entry is minus its sigma_n entry, d/d
    log rho; hp's noise_std must then be above zero.  hess is its Hessian
    in ``PARAMS`` order, whose sigma_f row and column are likewise minus
    sigma_n's.  ``order`` is the highest derivative computed, and those
    above it are None: 0 needs no inverse of the Gram matrix, 1 (the
    plain evaluation's only order) no Hessian.  Where no bound holds, value
    and grad equal the plain evaluation at hp (the envelope theorem).
    """
    if order != 1 and not profile:
        raise ValueError("only the profiled LML is given at other orders than 1")
    if work is None:
        work = _workspace(len(train))
    m = len(PARAMS)
    hp_i = _internal_hp(train, hp)
    sf, held = hp_i.signal_std, None
    # C is the noisy Gram matrix at sigma_f = 1 with noise rho; jitter_for is a
    # fraction of sigma_f^2, so C carries the jitter _condition adds at any sigma_f
    hp_i = replace(hp_i, signal_std=1.0, noise_std=hp_i.noise_std / sf)
    xs_c = train.xs - train.x_mean
    _, *d_shape = log_param_grads(xs_c, hp_i, out=work[:m - 1])
    chol, a, lml = _factor(train, hp_i, work[0])

    n, rho, quad = len(train), hp_i.noise_std, blas.ddot(train.ys_standardized, a)
    if profile:
        sf, sn, held = _peak_on_ray(quad / n, rho)
        hp = replace(hp, signal_std=sf * train.y_std, noise_std=sn * train.y_std)
    # Kn = sf^2 C, so Kn^-1 y = a / sf^2 and each dKn is sf^2 dC: every
    # trace below is the one at sf with a / sf
    lml += 0.5 * quad * (1.0 - 1.0 / sf**2) - n * np.log(sf)
    a = a / sf
    if order == 0:
        return lml, None, None, hp

    # d LML / d theta = 0.5 tr((a a^T - C^-1) dC/dtheta); dpotri writes
    # the lower triangle of C^-1 over the factor, which is no longer needed
    kinv, info = lapack.dpotri(chol, lower=True, overwrite_c=True)
    if info != 0:
        raise FactorizationFailure(f"noisy Gram matrix is singular (pivot {info})")

    # dC / d log sigma_n = 2 rho^2 I; each shape row takes the next shape
    # derivative from log_param_grads
    diag = blas.ddot(a, a) - float(np.trace(kinv))
    g_noise = rho**2 * diag
    # every kernel is sigma_f^2 times a shape and the jitter a fraction of
    # sigma_f^2, so dKn / d log sigma_f = 2 (Kn - sigma_n^2 I): the sigma_f
    # and sigma_n entries sum to y^T Kn^-1 y - n, the slope along the ray
    slope = quad / sf**2 - n
    if held == "noise_std":
        # sigma_n held on its bound: sigma_f = sigma_n / rho falls as rho rises
        g_noise -= slope
    shape = [_half_trace(kinv, a, d) for d in d_shape]
    i_f, i_n, i_s = _indices()
    grad = np.empty(m)
    grad[i_f] = -g_noise if profile else slope - g_noise
    grad[i_n], grad[i_s] = g_noise, [g for g, _ in shape]
    if order == 1:
        return (lml, grad, None, hp) if profile else (lml, grad)
    return lml, grad, _profiled_hessian(
        xs_c, hp_i, a, kinv, d_shape, [v for _, v in shape],
        work[m - 1:], held, quad / sf**2, diag), hp


def _profiled_hessian(xs_c, hp_i, a, kinv, d_shape, d_a, work, held, quad, diag):
    """The profiled LML's Hessian in ``PARAMS`` order, for
    ``log_marginal_likelihood``.

    With sigma_f fixed, each pair of log-parameters i, j of C has
    d2 LML = 0.5 tr((a a^T - C^-1) C_ij) - a^T C_i C^-1 C_j a
    + 0.5 tr(C^-1 C_i C^-1 C_j), with a = C^-1 y / sigma_f and C_ij the
    second derivative; log rho's C_i = 2 rho^2 I.  Letting sigma_f follow its
    peak adds p p^T / (2 n), with p_i = a^T C_i a (the Schur complement of
    d2 / d log sigma_f^2 = -2 n); a sigma_f held on its bound adds nothing;
    a sigma_n held on its bound moves log sigma_f by -1 per log rho, which
    adds p_i to the log rho row and 2 p_rho - 2 ``quad`` on its diagonal,
    ``quad`` = y^T C^-1 y / sigma_f^2.  ``d_a`` is each shape derivative
    times a, ``diag`` = a^T a - tr(C^-1), and ``work`` holds one n x n array
    per shape parameter, which receive C^-1 C_i.  ``held`` is the row whose
    bound holds the peak, as ``_peak_on_ray`` names it.
    """
    ns, n, rho2 = len(d_shape), len(a), hp_i.noise_std**2
    # kinv is Fortran-ordered with C^-1 in its lower triangle, as dsymm
    # reads it; writing into each buffer's transpose leaves the buffer
    # holding (C^-1 C_i)^T
    for d, buf in zip(d_shape, work):
        blas.dsymm(1.0, kinv, d.T, c=buf.T, overwrite_c=True, lower=True)
    c_a = blas.dsymv(1.0, kinv, a, lower=True)
    cinv_d_a = [blas.dsymv(1.0, kinv, v, lower=True) for v in d_a]
    # the upper triangle over the shape parameters, then log rho
    h = np.zeros((ns + 1, ns + 1))
    for s in range(ns):
        for t in range(s, ns):
            h[s, t] = (0.5 * np.einsum("ij,ji->", work[s], work[t])
                       - blas.ddot(d_a[s], cinv_d_a[t]))
        # tr(C^-1 C^-1 C_s) = sum(C^-1 * (C^-1 C_s)^T), C^-1 from its lower triangle
        tr = (np.einsum("ij,ij->", kinv, work[s]) + np.einsum("ij,ij->", kinv.T, work[s])
              - np.einsum("ii,ii->", kinv, work[s]))
        h[s, ns] = rho2 * (tr - 2.0 * blas.ddot(a, cinv_d_a[s]))
    frob = 2.0 * np.einsum("ij,ij->", kinv, kinv) - np.einsum("ii,ii->", kinv, kinv)
    h[ns, ns] = 2.0 * rho2 * (diag + rho2 * (frob - 2.0 * blas.ddot(a, c_a)))
    # the second-derivative blocks, now that the products are read
    for s, t, block in log_param_hessian(xs_c, hp_i, d_shape, work[:2]):
        h[s, t] += _half_trace(kinv, a, block)[0]
    h = np.triu(h) + np.triu(h, 1).T
    p = np.array([blas.ddot(a, v) for v in d_a] + [2.0 * rho2 * blas.ddot(a, a)])
    if held is None:
        h += np.outer(p, p) / (2.0 * n)
    elif held == "noise_std":
        h[ns] += p
        h[:, ns] += p
        h[ns, ns] -= 2.0 * quad
    i_f, i_n, i_s = _indices()
    full = np.zeros((len(PARAMS), len(PARAMS)))
    full[np.ix_(i_s + [i_n], i_s + [i_n])] = h
    full[i_f] = -full[i_n]
    full[:, i_f] = -full[:, i_n]
    return full


def _condition(train: TrainingSet, hp: Hyperparams, fit_start: str) -> FittedGP:
    hp_i = _internal_hp(train, hp)
    xs_c = train.xs - train.x_mean
    chol, weights, lml = _factor(train, hp_i, kernel_matrix(xs_c, xs_c, hp_i, "VV"))
    return FittedGP(hp=hp, train=train, chol=chol, weights=weights, lml=lml,
                    fit_start=fit_start)


def _pseudo_residual_noise(train):
    """The noise std that the pseudo-residuals of neighbouring points
    estimate, in natural units (Gasser, Sroka & Jennen-Steinmetz 1986,
    Biometrika 73:625): for each interior point i, with
    a = (x[i+1] - x[i]) / (x[i+1] - x[i-1]) and b = 1 - a,
    e = (a y[i-1] + b y[i+1] - y[i]) / sqrt(a^2 + b^2 + 1), and the estimate
    is sqrt(mean(e^2)).  The weights interpolate linearly, so a straight
    line, evenly spaced or not, estimates 0."""
    xs, ys = train.xs, train.ys
    a = (xs[2:] - xs[1:-1]) / (xs[2:] - xs[:-2])
    b = 1.0 - a
    e = (a * ys[:-2] + b * ys[2:] - ys[1:-1]) / np.sqrt(a * a + b * b + 1.0)
    return float(np.sqrt(np.mean(e * e)))


def default_inits(train: TrainingSet) -> list[Hyperparams]:
    """Multi-start initializations: each parameter's ``PARAMS`` starts times
    its unit's scale (the voltage span, or the sample std of ys), except
    that noise_std's starts are multiples of the pseudo-residual estimate
    (``_pseudo_residual_noise``); its bounds stay multiples of std(ys).  An
    estimate of 0 (noise-free or constant data) is clipped onto noise_std's
    lower bound by the fit."""
    scale = _scales(train)
    start_scale = {p.name: scale[p.unit] for p in PARAMS}
    start_scale["noise_std"] = _pseudo_residual_noise(train)
    starts = np.broadcast_arrays(*(np.multiply(p.starts, start_scale[p.name]) for p in PARAMS))
    return [Hyperparams(*map(float, theta)) for theta in zip(*starts)]


def _trust_region_step(g, eig, vec, radius):
    """The minimizer of g.p + p.B.p / 2 over |p| <= radius, with B = vec
    diag(eig) vec^T in ascending order, and whether it lies on the sphere.

    The Newton step when B is positive definite and it fits; otherwise
    p(lam) = -(B + lam I)^-1 g with lam >= max(0, -eig[0]) the root of
    1 / |p(lam)| = 1 / radius, found by Brent's method; in the hard case, g
    orthogonal to the lowest eigenvector, that eigenvector fills the step up
    to the sphere (Moré & Sorensen 1983).
    """
    c = vec.T @ g
    if eig[0] > 0:
        p = -vec @ (c / eig)
        if np.linalg.norm(p) <= radius:
            return p, False

    def coeffs(lam):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(c == 0.0, 0.0, c / (eig + lam))

    def excess(lam):
        # 1 / |p(lam)| - 1 / radius rises with lam
        with np.errstate(divide="ignore"):
            return 1.0 / np.linalg.norm(coeffs(lam)) - 1.0 / radius

    lam_lo = max(0.0, -eig[0])
    if excess(lam_lo) < 0:
        # there every eig + lam >= 2 |g| / radius, so |p| <= radius / 2
        lam = brentq(excess, lam_lo, lam_lo + 2.0 * np.linalg.norm(g) / radius)
        return -vec @ coeffs(lam), True
    p = -vec @ coeffs(lam_lo)
    return p + np.sqrt(max(radius**2 - p @ p, 0.0)) * vec[:, 0], True


def _trust_region_newton(fun, x0, bounds, maxiter, **_):
    """Minimize ``fun`` inside the box ``bounds`` by trust-region Newton
    steps; a ``method`` for scipy.optimize.minimize, which also passes
    arguments this method has no use for.

    ``fun(x)`` returns (f, gradient, Hessian).  A coordinate on the box
    whose descent direction leaves it is held; each iteration steps the
    others by ``_trust_region_step`` and clips the step into the box.  A
    trial point that lowers f is accepted.  The radius starts at 1, is
    quartered when a step achieves less than a quarter of its predicted
    fall, and doubles when a step on the sphere achieves more than three
    quarters (Nocedal & Wright 2006, alg. 4.1).

    Converged (status 0) at a point where the Hessian over the coordinates
    not held is positive definite and the Newton decrement g^T B^-1 g / 2,
    the fall the full Newton step predicts, is at most LML_TOL; or when a
    step whose predicted fall is at most LML_TOL is rejected, because the
    values then no longer resolve what the model predicts.  Status 1: ``maxiter`` iterations ran
    out; status 2: f at x0 is _PENALTY.
    """
    lo, hi = bounds.lb, bounds.ub
    x = np.asarray(x0, dtype=float)
    f, g, b = fun(x)
    nfev, nit, radius = 1, 0, 1.0
    status = 2 if f >= _PENALTY else None
    while status is None:
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        eig, vec = np.linalg.eigh(b[np.ix_(free, free)])
        c = vec.T @ g[free]
        if free.sum() == 0 or eig[0] > 0 and 0.5 * np.sum(c * c / eig) <= LML_TOL:
            status = 0
            break
        if nit == maxiter:
            status = 1
            break
        nit += 1
        p = np.zeros_like(x)
        p[free], on_sphere = _trust_region_step(g[free], eig, vec, radius)
        x_new = np.clip(x + p, lo, hi)
        step = x_new - x
        predicted = -(g @ step + 0.5 * step @ b @ step)
        if predicted <= 0:
            # the clip cost the step its gain
            radius = 0.25 * np.linalg.norm(p)
            continue
        f_new, g_new, b_new = fun(x_new)
        nfev += 1
        ratio = (f - f_new) / predicted
        if ratio < 0.25:
            radius = 0.25 * np.linalg.norm(step)
        elif ratio > 0.75 and on_sphere:
            radius *= 2.0
        if f_new < f:
            x, f, g, b = x_new, f_new, g_new, b_new
        elif predicted <= LML_TOL:
            status = 0
    return OptimizeResult(x=x, fun=f, nit=nit, nfev=nfev, status=status, success=status == 0)


def fit(train: TrainingSet, start: Hyperparams | None = None) -> FittedGP:
    """Maximize the LML by trust-region Newton steps in log-hyperparameter
    space.

    The ascent runs on the profiled LML (``log_marginal_likelihood`` with
    ``profile``), over the log of every ``PARAMS`` row but sigma_f, with
    log(sigma_n / sigma_f) in sigma_n's place: each point it evaluates takes
    the best sigma_f for the rest, so a start counts only through its
    sigma_n / sigma_f.  Each point of an ascent is evaluated with its exact
    Hessian, and the ascent stops where the Newton step predicts a gain of
    at most LML_TOL nats over the coordinates not held on a bound
    (``_trust_region_newton``).  An ascent that ends with a hyperparameter
    on a bound has so found a constrained maximum (a KKT point; Nocedal &
    Wright 2006, sec. 12.3), and that is the answer as an interior maximum
    is.  With ``start`` (say the previous cycle's optimum), ascends from
    that point.  Without it, or when that ascent fails (no finite LML, or
    the iteration budget runs out), scores the ``default_inits`` by value
    alone and ascends from the best one.  A later start is ascended, best
    first, only when an ascent fails.  Returns the conditioned model at the
    point with the highest LML evaluated, starts included.  ``PARAMS``
    gives each log-hyperparameter's bounds; rho's are the ratios they
    allow.
    """
    if len(train) < 4:
        raise ValueError("fit requires at least 4 training points")
    scale = _scales(train)
    bounds = np.array([np.multiply(p.bounds, scale[p.unit]) for p in PARAMS])
    lo, hi = np.log(bounds).T
    i_f, i_n, _ = _indices()
    # the ascent's coordinates drop sigma_f and put log rho in sigma_n's
    # place; rho spans every ratio that the sigma_n and sigma_f bounds allow
    lo_r, hi_r = lo.copy(), hi.copy()
    lo_r[i_n], hi_r[i_n] = lo[i_n] - hi[i_f], hi[i_n] - lo[i_f]
    box = Bounds(np.delete(lo_r, i_f), np.delete(hi_r, i_f))
    work = _workspace(len(train))
    # (-LML, hyperparameters) of every point evaluated with a finite LML, in
    # the order evaluated
    evaluated = []

    def evaluate(x, order=2):
        """(-LML, -grad, -Hessian) at ascent coordinates ``x``, with
        ``order`` derivatives (None for those not asked for);
        (_PENALTY, None, None) where the LML cannot be evaluated."""
        if not np.all(np.isfinite(x)):
            raise NonFinite("non-finite log-hyperparameters in optimization")
        # sigma_f = 1 puts rho in sigma_n's place
        ray = Hyperparams(*np.exp(np.insert(x, i_f, 0.0)))
        try:
            val, grad, hess, hp = log_marginal_likelihood(
                train, ray, work, profile=True, order=order)
        except FactorizationFailure:
            val = np.nan
        if not np.isfinite(val):
            return _PENALTY, None, None
        evaluated.append((-val, hp))
        # the ascent's sigma_f row and column are dropped
        return (-val,
                None if grad is None else -np.delete(grad, i_f),
                None if hess is None else -np.delete(np.delete(hess, i_f, 0), i_f, 1))

    def to_ascent(hp0):
        """Ascent coordinates of a start, clipped into the bounds; a zero
        noise lands on its lower bound."""
        with np.errstate(divide="ignore"):
            x0 = np.clip(np.log([getattr(hp0, p.name) for p in PARAMS]), lo, hi)
        x0[i_n] -= x0[i_f]
        return np.delete(x0, i_f)

    def ascend(x0):
        """Ascend from x0; True unless the ascent failed."""
        return minimize(evaluate, x0, method=_trust_region_newton, bounds=box,
                        options={"maxiter": MAX_ITER}).success

    warm = start is not None and ascend(to_ascent(start))
    if not warm:
        # stable sort: ties keep default_inits' order, so the fit stays deterministic
        starts = sorted(((evaluate(x0, 0)[0], x0)
                         for x0 in map(to_ascent, default_inits(train))),
                        key=lambda st: st[0])
        for f0, x0 in starts:
            if f0 < _PENALTY and ascend(x0):
                break
    # the closures hold the buffers through their cells; drop them before
    # conditioning allocates its own n x n arrays
    work = None
    if not evaluated:
        raise AllStartsFailed("every optimization start failed")
    # min keeps the first of equal values, so ties go to the earliest point
    _, best_hp = min(evaluated, key=lambda entry: entry[0])
    return _condition(train, best_hp, "warm" if warm else "cold")


def posterior_mean(model: FittedGP, grid):
    """Posterior mean of Q at the given voltages, in natural units."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    ks = kernel_matrix(grid - model.train.x_mean, model.xs_centered, model.hp_internal, "VV")
    return model.train.y_std * (ks @ model.weights) + model.train.y_mean

