"""Damped smoothers for the coupled saddle-point system.

Both smoothers are plain linear iterations built from divisions by a fixed
positive diagonal and matvecs with the saddle operator; no inner Poisson
or Schur solves.

* normal-equation smoother:
      x <- x + tau * Dinv A Dinv (rhs - A x)
  with A the full symmetric saddle operator and D the diagonal scaling.

* symmetric Uzawa smoother, three substeps per sweep:
      u_half <- u + tau * Du^-1 (f - A u - B^T p)
      p_new  <- p - sigma * Dp^-1 (g - B u_half)
      u_new  <- u + tau * Du^-1 (f - A u - B^T p_new)
  Note the last substep restarts from the original u, not u_half.  The
  sweep equals x <- x + C^-1 (rhs - A x) for the block matrix
      C = [[Du / tau, B^T], [B, tau B Du^-1 B^T - Dp / sigma]].
  Because the third substep starts from the same u, its residual is
      r_u2 = f - A u - B^T p_new = r_u - B^T (p_new - p),
  so a sweep costs one product with the velocity rows [A, B^T] of the
  saddle matrix, one with B and one with B^T.  The damped
  reciprocals tau / Du and sigma / Dp are computed once per scaling and
  damping pair.

The diagonal scaling is taken from the operator itself:
      Du = diag(A),  Dp = diag(B diag(A)^-1 B^T),
so it follows A = K + beta M across beta without a level weight.

Both sweeps act on a vector or, column by column, on an (n, k) block of
iterates; the diagonals then scale the block row-wise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEFAULT_TAU_NORMAL = 0.35
DEFAULT_TAU_UZAWA = 0.8
DEFAULT_SIGMA_UZAWA = 0.8

_KINDS = ("normal_equation", "uzawa")


@dataclass
class ScalingOperator:
    """Positive diagonals for the velocity and pressure blocks."""

    d_u: np.ndarray
    d_p: np.ndarray

    _damped: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @cached_property
    def d_full(self):
        return np.concatenate([self.d_u, self.d_p])

    def damped_reciprocals(self, tau, sigma):
        """(tau / d_u, sigma / d_p), memoized per damping pair."""
        key = (tau, sigma)
        if key not in self._damped:
            self._damped[key] = (tau / self.d_u, sigma / self.d_p)
        return self._damped[key]


@dataclass
class SmootherConfig:
    kind: str = "normal_equation"
    tau: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown smoother kind {self.kind!r}")
        if self.tau is None:
            self.tau = (
                DEFAULT_TAU_NORMAL
                if self.kind == "normal_equation"
                else DEFAULT_TAU_UZAWA
            )
        if self.sigma is None and self.kind == "uzawa":
            self.sigma = DEFAULT_SIGMA_UZAWA
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.kind == "uzawa" and self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


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


def _columns(v, x):
    """v shaped to scale x row-wise: itself for a vector x, a column for an
    (n, k) block."""
    return v.reshape(v.shape + (1,) * (x.ndim - 1))


def normal_equation_step(system, scaling, tau, x, rhs):
    """One damped step preconditioned by Dinv A Dinv."""
    d = _columns(scaling.d_full, x)
    r = system.residual(x, rhs)
    r /= d
    step = system.apply(r)
    step /= d
    step *= tau
    step += x
    return step


def uzawa_step(system, scaling, tau, sigma, x, rhs):
    """One symmetric Uzawa sweep (three substeps), written into a new
    array; x and rhs are left untouched."""
    s_u, s_p = scaling.damped_reciprocals(tau, sigma)
    s_u, s_p = _columns(s_u, x), _columns(s_p, x)
    u, p = system.split(x)
    f, g = system.split(rhs)
    out = np.empty_like(x)
    u_new, p_new = system.split(out)
    r_u = system.velocity_rows @ x
    np.subtract(f, r_u, out=r_u)
    u_half = s_u * r_u
    u_half += u
    # dp = p_new - p = sigma Dp^-1 (B u_half - g)
    dp = system.B @ u_half
    dp -= g
    dp *= s_p
    np.add(p, dp, out=p_new)
    r_u -= system.Bt @ dp
    r_u *= s_u
    np.add(u, r_u, out=u_new)
    return out


def smoother_step(system, scaling, config, x, rhs):
    if config.kind == "normal_equation":
        return normal_equation_step(system, scaling, config.tau, x, rhs)
    return uzawa_step(system, scaling, config.tau, config.sigma, x, rhs)


def _power_seed(n):
    return np.random.default_rng(1234).standard_normal(n)


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

    v = _power_seed(system.n)
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


def check_damping_conditions(system, scaling, tau, sigma):
    """Margins of the Uzawa damping inequalities
        Du / tau >= A   and   Dp / sigma >= tau B Du^-1 B^T
    via dense generalized eigenvalues.  Returns a dict with the largest
    eigenvalues and whether each inequality holds; meant for small levels
    and diagnostic output, not asserted in production.
    """
    d_u, d_p = scaling.d_u, scaling.d_p
    su = 1.0 / np.sqrt(d_u)
    A_scaled = su[:, None] * system.A.toarray() * su[None, :]
    lam_a = float(np.linalg.eigvalsh(A_scaled)[-1])

    Bd = system.B.toarray() * (1.0 / np.sqrt(d_u))[None, :]
    S = Bd @ Bd.T
    sp_ = 1.0 / np.sqrt(d_p)
    lam_s = float(np.linalg.eigvalsh(sp_[:, None] * S * sp_[None, :])[-1])
    return {
        "lambda_velocity": lam_a,
        "lambda_schur": lam_s,
        "velocity_ok": tau * lam_a <= 1.0,
        "schur_ok": tau * sigma * lam_s <= 1.0,
    }
