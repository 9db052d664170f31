"""Damped smoothers for the coupled saddle-point system.

Both smoothers are plain linear iterations built from multiplications by
a fixed positive damped diagonal W and matvecs with the saddle operator
K = [[A, B^T], [B, 0]]; no inner Poisson or Schur solves.  A sweep reads
W as one array of n weights (ScalingOperator.weights) and nothing else
of the scaling.

* normal-equation smoother:
      x <- x + tau * D^-1 K D^-1 (rhs - K x) = x + W K W (rhs - K x)
  with D the diagonal scaling and W = sqrt(tau) D^-1.  K x accumulates
  onto -rhs and is scaled by W, one product with K is made from it into
  zeros and scaled by W, and the result is subtracted from x: a sweep
  costs two products with K and four vector passes, and no division.

* symmetric Uzawa smoother, three substeps per sweep:
      u_half <- u + tau * Du^-1 (f - A u - B^T p)
      p_new  <- p - sigma * Dp^-1 (g - B u_half)
      u_new  <- u + tau * Du^-1 (f - A u - B^T p_new)
  Note the last substep restarts from the original u, not u_half.  The
  sweep equals x <- x + C^-1 (rhs - K x) for the block matrix
      C = [[Du / tau, B^T], [B, tau B Du^-1 B^T - Dp / sigma]].
  Because the third substep starts from the same u, its residual is
      r_u2 = f - A u - B^T p_new = r_u - B^T (p_new - p),
  so a sweep costs one product with the velocity rows [A, B^T] of the
  saddle matrix, one with B and one with B^T.  Each product accumulates
  in place onto an array already holding -f, -g or the velocity residual
  (the system's bound products), so beyond the three kernel calls a sweep
  makes about five passes over a velocity-sized array and no zero fill.
  Its weights are W = diag(tau / Du, sigma / Dp).

A coarse correction starts from zero, and so does its first sweep.  Both
sweeps take x = None for that zero iterate and skip the product with it:
a zero Uzawa sweep makes the products with B and B^T only, a zero
normal-equation sweep one product with the saddle operator instead of two
(it is W K W rhs).  The result is that of the sweep from np.zeros, but
possibly for the sign of zero entries.

The diagonal scaling is taken from the operator itself:
      Du = diag(A),  Dp = diag(B diag(A)^-1 B^T),
so it follows A = K_s + beta M_s across beta without a level weight.

Both sweeps act on a vector or, column by column, on an (n, k) block of
iterates; the weights then scale the block row-wise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_TAU_NORMAL = 0.35
DEFAULT_TAU_UZAWA = 0.8
DEFAULT_SIGMA_UZAWA = 0.8

_KINDS = ("normal_equation", "uzawa")


@dataclass
class ScalingOperator:
    """Positive diagonals for the velocity and pressure blocks, held as
    one array d_full of which d_u and d_p are views."""

    d_u: np.ndarray
    d_p: np.ndarray

    def __post_init__(self):
        self.d_full = np.concatenate([self.d_u, self.d_p])
        self.d_u, self.d_p = np.split(self.d_full, [self.d_u.size])

    def weights(self, config):
        """The damped weights W the sweep of the given SmootherConfig
        multiplies by, as one array of n entries: sqrt(tau) / d_full for
        the normal equation, [tau / d_u, sigma / d_p] for Uzawa."""
        tau, sigma = config.damping
        if config.kind == "normal_equation":
            return np.sqrt(tau) / self.d_full
        # each half written in place, so no n-sized temporary joins d_full
        w = np.empty(self.d_full.size)
        w_u, w_p = np.split(w, [self.d_u.size])
        np.divide(tau, self.d_u, w_u)
        np.divide(sigma, self.d_p, w_p)
        return w


# each smoother's (tau, sigma) where its config gives none; the
# normal-equation smoother has no sigma
_DEFAULT_DAMPING = {
    "normal_equation": (DEFAULT_TAU_NORMAL, None),
    "uzawa": (DEFAULT_TAU_UZAWA, DEFAULT_SIGMA_UZAWA),
}


@dataclass
class SmootherConfig:
    """A smoother and its damping.  tau and sigma hold what was given,
    None for the kind's default, so a config derived with
    dataclasses.replace(config, kind=...) takes the new kind's defaults;
    damping is the (tau, sigma) the smoother runs with."""

    kind: str = "normal_equation"
    tau: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown smoother kind {self.kind!r}")
        if self.kind == "normal_equation" and self.sigma is not None:
            raise ValueError("sigma is the Uzawa smoother's pressure "
                             "damping; the normal-equation smoother has none")
        tau, sigma = self.damping
        if not 0.0 < tau < np.inf:  # written so that NaN fails too
            raise ValueError(f"tau must be positive and finite, got {tau}")
        if self.kind == "uzawa" and not 0.0 < sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma}")

    @property
    def damping(self):
        """(tau, sigma): the given values, the kind's defaults where none
        was given; sigma is None for the normal-equation smoother."""
        tau, sigma = _DEFAULT_DAMPING[self.kind]
        return (tau if self.tau is None else self.tau,
                sigma if self.sigma is None else self.sigma)


def build_scaling(system):
    """Operator-based diagonal scaling: Du = diag(A), Dp = diag(B Du^-1 B^T)."""
    d_u = system.velocity_rows.diagonal()
    if np.any(d_u <= 0.0):
        raise ValueError(
            "velocity diagonal has nonpositive entries; "
            "assembled system is broken"
        )
    # row i of the inexact Schur diagonal: sum_j B_ij^2 / d_u[j]
    d_p = system.B.power(2) @ (1.0 / d_u)
    if np.any(d_p <= 0.0):
        raise ValueError(
            "scaling diagonal has nonpositive entries; assembled system is broken"
        )
    return ScalingOperator(d_u=d_u, d_p=d_p)


def normal_equation_step(system, w, x, rhs):
    """One damped step x + W K W (rhs - K x) with the weights
    w = sqrt(tau) / d_full, written into a new array; x and rhs are left
    untouched, and x None stands for the zero iterate."""
    if rhs.ndim > 1:
        w = w[:, None]
    products = system.products
    if x is None:
        r = np.multiply(w, rhs)                         # W rhs
    else:
        # K x - rhs, accumulated onto -rhs
        r = products.K(x, np.negative(rhs, order="C"))
        np.multiply(w, r, r)
    step = products.K(r, np.zeros(rhs.shape))
    np.multiply(w, step, step)
    if x is not None:
        np.subtract(x, step, step)
    return step


def uzawa_step(system, w, x, rhs):
    """One symmetric Uzawa sweep (three substeps) with the weights
    w = [tau / d_u, sigma / d_p], written into a new array; x and rhs are
    left untouched, and x None stands for the zero iterate."""
    # ufuncs take out positionally: on the small levels, a keyword or an
    # in-place operator costs as much as the arithmetic
    products, n_u = system.products, system.n_u
    s_u, s_p = w[:n_u], w[n_u:]
    if rhs.ndim > 1:
        s_u, s_p = s_u[:, None], s_p[:, None]
    f, g = rhs[:n_u], rhs[n_u:]
    out = np.empty(rhs.shape)
    u_new, p_new = out[:n_u], out[n_u:]
    # q = [A, B^T] x - f = -r_u, accumulated onto -f
    q = np.negative(f, order="C")
    if x is None:
        np.multiply(s_u, f, u_new)                      # u_half
    else:
        u = x[:n_u]
        products.velocity_rows(x, q)
        np.multiply(s_u, q, u_new)
        np.subtract(u, u_new, u_new)                    # u_half
    # dp = p_new - p = sigma Dp^-1 (B u_half - g), accumulated onto -g
    dp = products.B(u_new, np.negative(g, p_new))
    np.multiply(dp, s_p, dp)
    products.Bt(dp, q)                                  # -r_u2 = -r_u + B^T dp
    np.multiply(s_u, q, u_new)
    if x is None:
        np.negative(u_new, u_new)                       # and p_new = dp
    else:
        np.add(dp, x[n_u:], dp)                         # p_new
        np.subtract(u, u_new, u_new)
    return out


def smoother_step(system, w, kind, x, rhs):
    """One sweep of the given kind ("normal_equation" or "uzawa") with
    its weights w (ScalingOperator.weights)."""
    if kind == "normal_equation":
        return normal_equation_step(system, w, x, rhs)
    return uzawa_step(system, w, x, rhs)


def estimate_spectral_radius(system, scaling, tol=1e-3, max_iter=1000):
    """Power-iteration estimate of rho(Dinv A Dinv A), the spectral radius
    of the normal-equation smoother's preconditioned operator.

    It is computed on the symmetrized similar operator
    (D^-1/2 A D^-1 A D^-1/2, which is PSD) so the Rayleigh quotient
    converges monotonically.
    """
    s = 1.0 / np.sqrt(scaling.d_full)
    d = scaling.d_full

    def op(y):
        return s * system.apply(system.apply(s * y) / d)

    v = np.random.default_rng(1234).standard_normal(system.n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = op(v)
        lam_new = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(lam_new - lam) <= tol * abs(lam_new):
            return lam_new
        lam = lam_new
    warnings.warn(
        f"power iteration did not reach tol={tol} in {max_iter} steps; "
        f"returning best estimate {lam}"
    )
    return lam


def damping_margins(system, scaling, config):
    """The damping conditions of the config's smoother on the given level,
    as {name: (value, holds)}.

    Normal equation: tau * rho(D^-1 A D^-1 A), which must stay below 2 for
    the damped iteration to contract (by power iteration).  Uzawa: the
    sufficient (not necessary) inequalities
        Du / tau >= A   and   Dp / sigma >= tau B Du^-1 B^T,
    that is tau * lambda_max(Du^-1 A) <= 1 and
    tau * sigma * lambda_max(Dp^-1 B Du^-1 B^T) <= 1, via dense
    eigenvalues, so meant for small levels.
    """
    tau, sigma = config.damping
    if config.kind == "normal_equation":
        rho = tau * estimate_spectral_radius(system, scaling)
        return {"tau*rho(D^-1 A D^-1 A)": (rho, rho < 2.0)}
    d_u, d_p = scaling.d_u, scaling.d_p
    su = 1.0 / np.sqrt(d_u)
    A_scaled = su[:, None] * system.A.toarray() * su[None, :]
    velocity = tau * float(np.linalg.eigvalsh(A_scaled)[-1])

    Bd = system.B.toarray() * su[None, :]
    S = Bd @ Bd.T
    sp_ = 1.0 / np.sqrt(d_p)
    lam_s = float(np.linalg.eigvalsh(sp_[:, None] * S * sp_[None, :])[-1])
    schur = tau * sigma * lam_s
    return {"tau*lambda_velocity": (velocity, velocity <= 1.0),
            "tau*sigma*lambda_schur": (schur, schur <= 1.0)}
