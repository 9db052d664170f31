"""Coupled multigrid cycles on the saddle-point hierarchy.

One cycle: pre-smoothing, residual restriction, coarse correction
(recursive V/W or exact two-grid), prolongated update, post-smoothing.
Level 0 is always solved exactly through a dense factorization of the
saddle matrix augmented with a Lagrange multiplier that pins the weighted
pressure mean (the pure saddle matrix is singular with the constant
pressure in its kernel).

Convergence of an iteration is measured against the known discrete
solution in a level-scaled L2 norm built from the full mass matrices:

    |||x|||^2 = (h^-2 + beta) <M_U u, u> + h^-2 (beta + h^-2)^-1 <M_P p, p>

independent of whatever diagonal shortcut the smoother uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .smoother import SmootherConfig, build_scaling, smoother_step
from .sparse import DenseFactorization
from .transfer import prolongate, restrict

_CYCLES = ("V", "W", "two_grid")

# Dense factorizations beyond this size are a sign two_grid was requested
# on a level it was never meant for.
_MAX_EXACT_DIM = 12000


@dataclass
class CycleConfig:
    smoother: SmootherConfig = field(default_factory=SmootherConfig)
    cycle: str = "W"
    nu_pre: int = 3
    nu_post: int = 3

    def __post_init__(self):
        if self.cycle not in _CYCLES:
            raise ValueError(f"unknown cycle kind {self.cycle!r}")
        if self.nu_pre < 0 or self.nu_post < 0:
            raise ValueError("smoothing counts must be nonnegative")


@dataclass
class SolveReport:
    n: int
    q: float
    history: list[float]
    converged: bool
    # final iterate; history[-1] is its error norm
    x: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class NormOperator:
    """Weights of the measurement norm on one level."""

    M_U: object
    M_P: object
    h: float
    beta: float

    @property
    def velocity_weight(self):
        return self.h ** -2 + self.beta

    @property
    def pressure_weight(self):
        hm2 = self.h ** -2
        return hm2 / (self.beta + hm2)


def triple_norm(x, op):
    """Level-scaled L2 norm of a stacked (velocity, pressure) vector."""
    nu = op.M_U.shape[0]
    u, p = x[:nu], x[nu:]
    val = op.velocity_weight * (u @ (op.M_U @ u)) + op.pressure_weight * (
        p @ (op.M_P @ p)
    )
    # tiny negative values can appear from roundoff at x ~ 0
    return float(np.sqrt(max(val, 0.0)))


class Multigrid:
    """Cycle driver owning the per-level systems, transfers and scalings.

    systems[k] is the level-k SaddleSystem; transfers[k] maps level k-1 to
    level k (transfers[0] is unused and may be None).  The instance never
    mutates its inputs; solves on the same hierarchy can run concurrently.
    """

    def __init__(self, systems, transfers, config: CycleConfig,
                 project_pressure_mean=True):
        if len(transfers) != len(systems):
            raise ValueError("need one transfer slot per level")
        self.systems = list(systems)
        self.transfers = list(transfers)
        self.config = config
        self.project_pressure_mean = project_pressure_mean
        self.scalings = [
            build_scaling(s, config.smoother.scaling) for s in self.systems
        ]
        self._exact = {}
        # weighted pressure means: w = M_P 1
        self._pressure_weights = [
            s.M_P @ np.ones(s.n_p) for s in self.systems
        ]
        self._norms = [
            NormOperator(M_U=s.M_U, M_P=s.M_P, h=s.h, beta=s.params.beta)
            for s in self.systems
        ]

    # -- exact (augmented) solves -------------------------------------

    def _exact_factorization(self, level):
        if level not in self._exact:
            system = self.systems[level]
            n = system.n
            if n + 1 > _MAX_EXACT_DIM:
                raise ValueError(
                    f"exact solve on level {level} needs a dense "
                    f"factorization of dimension {n + 1}; use V/W cycles "
                    "for levels this large"
                )
            aug = np.zeros((n + 1, n + 1))
            aug[:n, :n] = system.dense()
            c = np.concatenate(
                [np.zeros(system.n_u), self._pressure_weights[level]]
            )
            aug[:n, n] = c
            aug[n, :n] = c
            self._exact[level] = DenseFactorization(aug)
        return self._exact[level]

    def _exact_solve(self, level, rhs):
        fact = self._exact_factorization(level)
        padded = np.concatenate([rhs, [0.0]])
        return fact.solve(padded)[:-1]

    def coarse_solve(self, rhs):
        """Exact level-0 solve with the pressure mean pinned to zero."""
        if rhs.shape[0] != self.systems[0].n:
            raise ValueError(
                f"coarse rhs has length {rhs.shape[0]}, "
                f"expected {self.systems[0].n}"
            )
        return self._exact_solve(0, rhs)

    # -- cycling -------------------------------------------------------

    def project_pressure(self, level, x):
        """Remove the weighted-mean pressure component."""
        system = self.systems[level]
        u, p = system.split(x)
        w = self._pressure_weights[level]
        p = p - (w @ p) / w.sum()
        return system.join(u, p)

    def smooth(self, level, x, rhs, steps):
        system, scaling = self.systems[level], self.scalings[level]
        for _ in range(steps):
            x = smoother_step(system, scaling, self.config.smoother, x, rhs)
        return x

    def _cycle(self, level, x, rhs):
        if level == 0:
            return self._exact_solve(0, rhs)
        cfg = self.config
        x = self.smooth(level, x, rhs, cfg.nu_pre)
        r_coarse = restrict(
            self.transfers[level], self.systems[level].residual(x, rhs)
        )
        if level == 1:
            z = self._exact_solve(0, r_coarse)
        elif cfg.cycle == "two_grid":
            z = self._exact_solve(level - 1, r_coarse)
        else:
            z = np.zeros(self.systems[level - 1].n)
            for _ in range(2 if cfg.cycle == "W" else 1):
                z = self._cycle(level - 1, z, r_coarse)
        x = x + prolongate(self.transfers[level], z)
        return self.smooth(level, x, rhs, cfg.nu_post)

    def mg_cycle(self, level, x, rhs):
        """One multigrid cycle on the given level."""
        if level >= len(self.systems):
            raise ValueError(
                f"level {level} not built (hierarchy has "
                f"{len(self.systems)} levels)"
            )
        if x.shape[0] != self.systems[level].n:
            raise ValueError("iterate length does not match the level")
        x = self._cycle(level, x, rhs)
        if self.project_pressure_mean:
            x = self.project_pressure(level, x)
        return x

    # -- measured iteration ---------------------------------------------

    def norm_operator(self, level):
        return self._norms[level]

    def error_norm(self, level, x, x_star):
        return triple_norm(x - x_star, self._norms[level])

    def solve(self, level, rhs, x_star, x0=None, tol=1e-9, max_iter=200,
              divergence_factor=1e6):
        """Iterate cycles until the error against the known discrete
        solution has dropped by the given factor, and report the iteration
        count, mean per-cycle contraction rate and final iterate."""
        system = self.systems[level]
        x = np.zeros(system.n) if x0 is None else x0.copy()
        err0 = self.error_norm(level, x, x_star)
        history = [err0]
        if err0 == 0.0:
            return SolveReport(n=0, q=0.0, history=history, converged=True,
                               x=x)

        converged = False
        for _ in range(max_iter):
            x = self.mg_cycle(level, x, rhs)
            err = self.error_norm(level, x, x_star)
            history.append(err)
            if not np.isfinite(err) or err > divergence_factor * err0:
                break
            if err <= tol * err0:
                converged = True
                break

        n = len(history) - 1
        last = history[-1]
        q = float((last / err0) ** (1.0 / n)) if n > 0 and last > 0.0 else 0.0
        if not np.isfinite(q):
            q = float("inf")
        return SolveReport(n=n, q=q, history=history, converged=converged,
                           x=x)
