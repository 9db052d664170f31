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
  so a sweep costs one A, two B^T and one B matvec.  The damped
  reciprocals tau / Du and sigma / Dp are computed once per scaling and
  damping pair.

Two diagonal scalings are supported: the level-scaled mass diagonals
("mass_diag") and the diagonals taken from the operator itself
("natural_diag", the benchmark default):
      Du = diag(A),  Dp = diag(B diag(A)^-1 B^T).
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
_VARIANTS = ("mass_diag", "natural_diag")


@dataclass
class ScalingOperator:
    """Positive diagonals for the velocity and pressure blocks."""

    variant: str
    d_u: np.ndarray
    d_p: np.ndarray
    beta: float
    h: float

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
    scaling: str = "natural_diag"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown smoother kind {self.kind!r}")
        if self.scaling not in _VARIANTS:
            raise ValueError(f"unknown scaling variant {self.scaling!r}")
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


def build_scaling(system, variant):
    """Diagonal scaling of a system, either mass-based or operator-based."""
    if variant == "mass_diag":
        beta, h = system.params.beta, system.h
        hm2 = h ** -2
        d_u = (hm2 + beta) * system.M_U.diagonal()
        d_p = hm2 / (beta + hm2) * system.M_P.diagonal()
    elif variant == "natural_diag":
        d_u = system.A.diagonal()
        if np.any(d_u <= 0.0):
            raise ValueError(
                "velocity diagonal has nonpositive entries; "
                "assembled system is broken"
            )
        # row i of the inexact Schur diagonal: sum_j B_ij^2 / d_u[j]
        d_p = system.B.multiply(system.B) @ (1.0 / d_u)
    else:
        raise ValueError(f"unknown scaling variant {variant!r}")
    if np.any(d_u <= 0.0) or np.any(d_p <= 0.0):
        raise ValueError(
            "scaling diagonal has nonpositive entries; assembled system is broken"
        )
    return ScalingOperator(
        variant=variant, d_u=d_u, d_p=d_p, beta=system.params.beta, h=system.h
    )


def normal_equation_step(system, scaling, tau, x, rhs):
    """One damped step preconditioned by Dinv A Dinv."""
    d = scaling.d_full
    r = system.residual(x, rhs)
    return x + tau * (system.apply(r / d) / d)


def uzawa_step(system, scaling, tau, sigma, x, rhs):
    """One symmetric Uzawa sweep (three substeps), written into a new
    array; x and rhs are left untouched."""
    s_u, s_p = scaling.damped_reciprocals(tau, sigma)
    u, p = system.split(x)
    f, g = system.split(rhs)
    out = np.empty_like(x)
    u_new, p_new = system.split(out)
    r_u = system.A @ u
    r_u += system.Bt @ p
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


def uzawa_block_apply_inverse(system, scaling, tau, sigma, r):
    """Apply the inverse of the Uzawa sweep's block matrix C to a vector;
    equal to the update produced by one sweep from x = 0 with rhs = r."""
    r_u, r_p = system.split(r)
    s_u, s_p = scaling.damped_reciprocals(tau, sigma)
    dp_ = s_p * (system.B @ (s_u * r_u) - r_p)
    du_ = s_u * (r_u - system.Bt @ dp_)
    return system.join(du_, dp_)


def _power_seed(n):
    return np.random.default_rng(1234).standard_normal(n)


def estimate_spectral_radius(system, scaling, kind, tau=None, sigma=None,
                             tol=1e-3, max_iter=1000):
    """Power-iteration estimate of the spectral radius of the smoother's
    preconditioned operator.

    For the normal-equation smoother this is rho(Dinv A Dinv A), computed
    on the symmetrized similar operator (D^-1/2 A D^-1 A D^-1/2, which is
    PSD) so the Rayleigh quotient converges monotonically.  For the Uzawa
    smoother it is rho(C^-1 A) for the sweep's block matrix C; that
    operator is only symmetrizable in an indefinite inner product, so the
    estimate uses the plain dominant-eigenvalue iteration.
    """
    if kind == "normal_equation":
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

    if kind == "uzawa":
        tau = DEFAULT_TAU_UZAWA if tau is None else tau
        sigma = DEFAULT_SIGMA_UZAWA if sigma is None else sigma
        v = _power_seed(system.n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(max_iter):
            w = uzawa_block_apply_inverse(system, scaling, tau, sigma,
                                          system.apply(v))
            lam_new = float(np.linalg.norm(w))
            if lam_new == 0.0:
                return 0.0
            v = w / lam_new
            if abs(lam_new - lam) <= tol * abs(lam_new):
                return lam_new
            lam = lam_new
        warnings.warn(
            f"power iteration did not reach tol={tol} in {max_iter} steps; "
            f"returning best estimate {lam}"
        )
        return lam

    raise ValueError(f"unknown smoother kind {kind!r}")


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
