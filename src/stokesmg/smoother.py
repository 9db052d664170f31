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
  costs two products with K, a zero fill and four vector passes, and no
  division.

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

The diagonal scaling is taken from the operator itself:
      Du = diag(A),  Dp = diag(B diag(A)^-1 B^T),
so it follows A = K_s + beta M_s across beta without a level weight.

Both sweeps act on a vector or, column by column, on an (n, k) block of
iterates; the weights then scale the block row-wise.

A sweep is row-local apart from its products' column reads, so it runs
as row phases of its bound products (sparse.Product.run): a phase's body
gets each part's product as one call, and initializes the part's rows,
makes the product into them, scales them and subtracts them from x, the
worker thread taking the first part of a product large enough to split.
A sweep makes no reduction.  A normal-equation sweep is two phases
over K's rows; an Uzawa sweep is a phase over the velocity rows
[A, B^T], one over B's rows, then the product with B^T, a CSC matrix
that scatters into rows, and the last scaling and updates on this
thread.  The parts sum each entry in the serial order, so a sweep gives
the same bits on one core or two.
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
    untouched."""
    if rhs.ndim > 1:
        w = w[:, None]
    K = system.products.K
    r, step = np.empty(rhs.shape), np.empty(rhs.shape)
    K.run(_scaled_residual_rows, x, r, w, rhs)
    K.run(_normal_step_rows, r, step, w, x)
    return step


def _scaled_residual_rows(product, x, r, w, rhs):
    """W (K x - rhs) on a part's rows, K x accumulated onto -rhs; r, w and
    rhs hold those rows."""
    np.negative(rhs, r)
    product(x, r)
    np.multiply(w, r, r)


def _normal_step_rows(product, r, step, w, x):
    """x - W K r on a part's rows, K r made into zeros; step, w and x
    hold those rows."""
    step.fill(0.0)
    product(r, step)
    np.multiply(w, step, step)
    np.subtract(x, step, step)


def uzawa_step(system, w, x, rhs):
    """One symmetric Uzawa sweep (three substeps) with the weights
    w = [tau / d_u, sigma / d_p], written into a new array; x and rhs are
    left untouched."""
    # ufuncs take out positionally: on the small levels, a keyword or an
    # in-place operator costs as much as the arithmetic
    products, n_u = system.products, system.n_u
    s_u, s_p = w[:n_u], w[n_u:]
    if rhs.ndim > 1:
        s_u, s_p = s_u[:, None], s_p[:, None]
    f, g = rhs[:n_u], rhs[n_u:]
    out, q = np.empty(rhs.shape), np.empty(f.shape)
    u_new, dp = out[:n_u], out[n_u:]
    u = x[:n_u]
    # q = [A, B^T] x - f = -r_u, and u_half
    products.velocity_rows.run(_velocity_rows, x, q, u_new, s_u, f, u)
    # dp = p_new - p = sigma Dp^-1 (B u_half - g), accumulated onto -g
    products.B.run(_pressure_rows, u_new, dp, s_p, g)
    products.Bt(dp, q)                                  # -r_u2 = -r_u + B^T dp
    np.multiply(s_u, q, u_new)
    np.add(dp, x[n_u:], dp)                             # p_new
    np.subtract(u, u_new, u_new)
    return out


def _velocity_rows(product, x, q, u_half, s_u, f, u):
    """q = [A, B^T] x - f, accumulated onto -f, and u_half = u - s_u q,
    on a part's velocity rows; q, u_half, s_u, f and u hold those rows."""
    np.negative(f, q)
    product(x, q)
    np.multiply(s_u, q, u_half)
    np.subtract(u, u_half, u_half)


def _pressure_rows(product, u_half, dp, s_p, g):
    """dp = s_p (B u_half - g), accumulated onto -g, on a part's pressure
    rows; dp, s_p and g hold those rows."""
    np.negative(g, dp)
    product(u_half, dp)
    np.multiply(dp, s_p, dp)


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
    converges monotonically, from below: the estimate is a lower bound,
    and at tol 1e-3 it stops short (0.35 rho reads 1.948 at level 6 and
    beta = 1e10, where Lanczos reads 1.993).
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
    the damped iteration to contract; its power-iteration value is a lower
    bound (estimate_spectral_radius), so holds=True proves nothing.
    Uzawa: the sufficient (not necessary) inequalities
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
