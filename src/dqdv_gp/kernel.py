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

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PARAMS",
    "Hyperparams",
    "k",
    "k_cross",
    "k_dd",
    "kernel_matrix",
    "log_param_grads",
    "log_param_hessian",
    "jitter_for",
]


class Param(NamedTuple):
    """A ``Hyperparams`` field, its unit ("V" scales with the voltage span,
    "Ah" with std(Q), "" is dimensionless), and in that unit the fit's
    (lower, upper) bounds and default starts (a single start is shared).

    noise_std is the exception: its starts are multiples of the noise that
    the data's pseudo-residuals estimate (Gasser, Sroka & Jennen-Steinmetz
    1986; ``gp_core.default_inits``), and its bounds bound rho = sigma_n /
    sigma_f, which has no unit: the fit ascends over rho, with sigma_f
    profiled out."""

    name: str
    unit: str
    bounds: tuple[float, float]
    starts: tuple[float, ...]


# the fit's log-hyperparameter vector, in Hyperparams field order
PARAMS = (
    Param("length_scale", "V", (1e-4, 10.0), (0.02, 0.05, 0.10, 0.20, 0.40)),
    Param("signal_std", "Ah", (1e-6, 1e3), (1.0,)),
    Param("noise_std", "Ah", (1e-8, 1.0), (1.0,)),
    Param("alpha", "", (1e-2, 1e3), (0.1,)),
)


@dataclass(frozen=True)
class Hyperparams:
    """Kernel hyperparameters in natural units, with alpha the RQ shape;
    ``PARAMS`` gives their units.  noise_std may be 0, the others are > 0."""

    length_scale: float
    signal_std: float
    noise_std: float
    alpha: float = 1.0

    def __post_init__(self):
        for p in PARAMS:
            v, op = getattr(self, p.name), ">=" if p.name == "noise_std" else ">"
            if not (np.isfinite(v) and (v >= 0 if op == ">=" else v > 0)):
                raise ValueError(f"{p.name} must be finite and {op} 0, got {v}")

    def to_dict(self):
        return asdict(self)


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


def _rq_u_into(xs, hp: Hyperparams, out):
    """r - 1 over all pairs of ``xs``, written into ``out`` as _rq_u computes it
    (bit for bit), for the in-place derivative builders below."""
    np.subtract.outer(xs, xs, out=out)
    out *= out
    out *= 0.5 / (hp.alpha * hp.length_scale**2)
    return out


# log_param_grads runs on every LML evaluation and builds its results in
# place, one factor at a time; the comment on each step names what the array
# then holds.  Written as plain expressions (bit for bit the same results) it
# raised the median LML call when fitting 16 plating cycles of 300 points
# from 5.07-5.16 ms to 5.54-5.89 ms and cut fits/s by 6-13% (3 alternating
# runs per side, 2 cores).  The derivative blocks above run once per
# posterior, so they are plain expressions.
# ``out`` lets a fit reuse its arrays; gp_core's ``_workspace`` says why.
def log_param_grads(xs, hp: Hyperparams, out=None):
    """Gram matrix over ``xs`` and its derivatives w.r.t. the shape log-parameters.

    Returns [K, dK/d log l, dK/d log alpha], with dk/d log l = k d^2 / (l^2 r)
    = 2 alpha k q and dk/d log alpha = k alpha (q - log r), q = (r-1)/r, from
    one pass that computes u = r - 1 and log r = log1p(u) once.  K equals
    kernel_matrix(xs, xs, hp, "VV") bit for bit.  ``out``, if given, is
    three float64 (n, n) arrays that receive the results in that order and
    are returned; their contents do not affect the results.
    """
    kv, u, log_r = np.empty((3, len(xs), len(xs))) if out is None else out
    _rq_u_into(xs, hp, u)           # r - 1, as _rq_u
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


def log_param_hessian(xs, hp: Hyperparams, grads, out):
    """Second derivatives of the Gram matrix over ``xs`` w.r.t. the shape
    log-parameters, one block at a time.

    ``grads`` is the shape derivatives [dK/d log l, dK/d log alpha] that
    log_param_grads returned for the same xs and hp, and ``out`` two float64
    (n, n) arrays to compute in.  Yields (i, j, block) for each i <= j whose
    block is not identically zero, with i and j indices into ``grads``.
    Each block lives in ``out`` and the next one overwrites it, so a caller
    reads a block before it advances.  With q = (r-1)/r and k_l, k_a the
    first derivatives,

        d2k / d log l^2 = 2 k_l ((alpha + 1) q - 1),
        d2k / d log l d log alpha = q (k_l + 2 alpha k_a),
        d2k / d log alpha^2 = k_a (1 + alpha (q - log r)) + k_l q / 2,

    from the derivatives of log k = log sigma_f^2 - alpha log r, with
    d q / d log l = -2 q / r and d q / d log alpha = -q / r.
    """
    k_l, k_a = grads
    q, block = out
    _rq_u_into(xs, hp, q)
    np.add(q, 1.0, out=block)       # r
    q /= block                      # q, as log_param_grads
    np.multiply(q, 2.0 * (hp.alpha + 1.0), out=block)
    block -= 2.0
    block *= k_l
    yield 0, 0, block
    np.multiply(k_a, 2.0 * hp.alpha, out=block)
    block += k_l
    block *= q
    yield 0, 1, block
    np.negative(q, out=block)
    np.log1p(block, out=block)      # log(1 - q) = -log r
    block += q
    block *= hp.alpha
    block += 1.0
    block *= k_a
    q *= k_l
    q *= 0.5                        # k_l q / 2
    block += q
    yield 1, 1, block


def jitter_for(hp: Hyperparams) -> float:
    """Diagonal jitter added to VV Gram matrices before factorization.

    A fixed fraction of the prior variance sigma_f^2: the noisy Gram matrix
    is then sigma_f^2 (shape + jitter fraction) + sigma_n^2 I, so a fit that
    profiles sigma_f out of the LML sees the same jitter as the model it
    conditions at any sigma_f.
    """
    return 1e-10 * hp.signal_std**2
