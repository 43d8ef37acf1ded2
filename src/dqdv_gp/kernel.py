"""Rational-quadratic kernel and its derivative blocks.

The rational-quadratic (RQ) covariance

    k(x, x') = sigma_f^2 * (1 + d^2 / (2 alpha l^2))^(-alpha),  d = x - x',

is a scale mixture of squared-exponential (SE) kernels over length scales.
Small alpha mixes a wide range of length scales; the mixture narrows onto l
as alpha grows, and SE is the alpha -> infinity limit (Rasmussen & Williams
2006, GPML sec. 4.2.1).

All functions are stationary in the input difference and vectorize over
numpy arrays.  Voltage is in volts, charge in ampere-hours; no unit
conversion happens here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Hyperparams",
    "k",
    "k_cross",
    "k_dd",
    "kernel_matrix",
    "log_param_grads",
    "jitter_for",
]


@dataclass(frozen=True)
class Hyperparams:
    """Kernel hyperparameters in natural units.

    length_scale : V, > 0
    signal_std   : Ah, > 0
    noise_std    : Ah, >= 0
    alpha        : dimensionless RQ shape, > 0
    """

    length_scale: float
    signal_std: float
    noise_std: float
    alpha: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.length_scale) and self.length_scale > 0):
            raise ValueError(f"length_scale must be finite and > 0, got {self.length_scale}")
        if not (np.isfinite(self.signal_std) and self.signal_std > 0):
            raise ValueError(f"signal_std must be finite and > 0, got {self.signal_std}")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")

    def to_dict(self):
        return {
            "length_scale": float(self.length_scale),
            "signal_std": float(self.signal_std),
            "noise_std": float(self.noise_std),
            "alpha": float(self.alpha),
        }


def _diff(x, x_prime):
    return np.asarray(x, dtype=float) - np.asarray(x_prime, dtype=float)


def _rq_u(d, hp: Hyperparams):
    """r - 1, where r = 1 + d^2 / (2 alpha l^2)."""
    return d * d * (0.5 / (hp.alpha * hp.length_scale**2))


def _rq(u, hp: Hyperparams):
    """sigma_f^2 * r^(-alpha) from u = r - 1."""
    return hp.signal_std**2 * np.exp(-hp.alpha * np.log1p(u))


def k(x, x_prime, hp: Hyperparams):
    """Covariance k(x, x') = sigma_f^2 * r^(-alpha), r = 1 + (x-x')^2 / (2 alpha l^2)."""
    return _rq(_rq_u(_diff(x, x_prime), hp), hp)


def k_cross(x, x_star, hp: Hyperparams):
    """Cross-covariance cov(f(x), f'(x*)) = sigma_f^2 * (x - x*) / l^2 * r^(-alpha-1).

    Antisymmetric under argument swap; zero on the diagonal.
    """
    d = _diff(x, x_star)
    u = _rq_u(d, hp)
    return _rq(u, hp) / (u + 1.0) * d / hp.length_scale**2


def k_dd(x_star_i, x_star_j, hp: Hyperparams):
    """Derivative-derivative covariance cov(f'(a), f'(b))
    = sigma_f^2 / l^2 * (r^(-alpha-1) - (alpha+1)/alpha * (a-b)^2 / l^2 * r^(-alpha-2)),
    which is sigma_f^2 / l^2 on the diagonal.
    """
    u = _rq_u(_diff(x_star_i, x_star_j), hp)
    r = u + 1.0
    # factor out r^(-alpha-1): what is left is 1 - (alpha+1)/alpha * d^2/l^2 / r,
    # and (alpha+1)/alpha * d^2/l^2 = 2 (alpha+1) u
    rest = u / r * (-2.0 * (hp.alpha + 1.0)) + 1.0
    return _rq(u, hp) * rest / r / hp.length_scale**2


_BLOCK_FUNCS = {"VV": k, "VD": k_cross, "DD": k_dd}


def kernel_matrix(xs, xs2, hp: Hyperparams, block: str = "VV"):
    """Assemble a kernel block matrix with [i, j] = block_fn(xs[i], xs2[j]).

    block: "VV" (value-value), "VD" (value-derivative, i.e. cov(f(xs), f'(xs2))),
    or "DD" (derivative-derivative).
    """
    try:
        fn = _BLOCK_FUNCS[block]
    except KeyError:
        raise ValueError(f"unknown block {block!r}; expected one of {sorted(_BLOCK_FUNCS)}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    xs2 = np.atleast_1d(np.asarray(xs2, dtype=float))
    return fn(xs[:, None], xs2[None, :], hp)


# log_param_grads runs on every LML evaluation and builds its results in
# place, one factor at a time; the comment on each step names what the array
# then holds.  Written as plain expressions (bit for bit the same results) it
# raised the median LML call when fitting 16 plating cycles of 300 points
# from 5.07-5.16 ms to 5.54-5.89 ms and cut fits/s by 6-13% (3 alternating
# runs per side, 2 cores).
# ``out`` lets a fit pass the same three arrays to every evaluation.  A
# fresh 300 x 300 float64 array is 720 kB, and its pages are faulted in again
# on first write: with fresh outputs (and the fresh Gram copy in gp_core) one
# LML call at n = 300 took 673 minor page faults and 1.2-1.7 ms of system
# time out of 5.5-6.1 ms; with reused arrays it takes at most 1 fault, no
# system time and 3.5-3.6 ms (300 calls at a fitted optimum, 3 repeats, 2
# cores).  The derivative blocks above run once per posterior, so they are
# plain expressions.
def log_param_grads(xs, hp: Hyperparams, out=None):
    """Gram matrix over ``xs`` and its derivatives w.r.t. the shape log-parameters.

    Returns [K, dK/d log l, dK/d log alpha], with dk/d log l = k d^2 / (l^2 r)
    = 2 alpha k q and dk/d log alpha = k alpha (q - log r), q = (r-1)/r, from
    one pass that computes u = r - 1 and log r = log1p(u) once.  K equals
    kernel_matrix(xs, xs, hp, "VV") bit for bit.  (dK/d log sigma_f = 2K
    needs no kernel-specific code.)  ``out``, if given, is three float64
    (n, n) arrays that receive the results in that order and are
    returned; their contents do not affect the results.
    """
    if out is None:
        n = len(xs)
        out = [np.empty((n, n)) for _ in range(3)]
    kv, u, log_r = out
    np.subtract.outer(xs, xs, out=u)
    u *= u
    u *= 0.5 / (hp.alpha * hp.length_scale**2)   # r - 1, as _rq_u
    np.log1p(u, out=log_r)
    np.add(u, 1.0, out=kv)          # r
    u /= kv                         # q
    np.multiply(log_r, -hp.alpha, out=kv)
    np.exp(kv, out=kv)
    kv *= hp.signal_std**2          # k = sigma_f^2 r^(-alpha), as _rq
    np.subtract(u, log_r, out=log_r)
    log_r *= kv
    log_r *= hp.alpha               # k alpha (q - log r)
    u *= kv
    u *= 2.0 * hp.alpha             # k d^2 / (l^2 r)
    return [kv, u, log_r]


def jitter_for(hp: Hyperparams) -> float:
    """Diagonal jitter added to VV Gram matrices before factorization."""
    return max(1e-10, 1e-12 * hp.signal_std**2)
