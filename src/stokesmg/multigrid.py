"""Coupled multigrid cycles on the saddle-point hierarchy.

One cycle: pre-smoothing, residual restriction, coarse correction
(recursive V/W or exact two-grid), prolongated update, post-smoothing.
The exact solves run through a dense factorization of the saddle matrix
augmented with a Lagrange multiplier that pins the weighted pressure mean
(the pure saddle matrix is singular with the constant pressure in its
kernel).  Level 0 is solved exactly inside every level-1 visit.

A coarse correction starts from zero, so the one on level 1 (one or two
level-1 cycles, each ending in an exact level-0 solve) is a fixed linear
map G1 of its right-hand side.  A level-2 visit inside a coarser level's
correction applies G1 as one dense product; G1 is built on first use by
running that correction once on the identity block.  The top visit of a
level-2 cycle, two-grid cycles and level-1 visits recurse literally.

Every cycle operation takes a vector or an (n, k) block of them, so
mg_cycle(level, I, 0) gives the cycle's error-propagation matrix.

Convergence of an iteration is measured against the known discrete
solution in a level-scaled L2 norm built from the full mass matrices:

    |||x|||^2 = (h^-2 + beta) <M_U u, u> + h^-2 (beta + h^-2)^-1 <M_P p, p>

independent of whatever diagonal shortcut the smoother uses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .smoother import SmootherConfig, build_scaling, smoother_step
from .sparse import DenseFactorization, matvec_add
from .transfer import prolongate, restrict

_CYCLES = ("V", "W", "two_grid")

# Dense factorizations beyond this size are a sign two_grid was requested
# on a level it was never meant for.
_MAX_EXACT_DIM = 12000

# A solve stops as diverged once its error exceeds err0 by this factor.
_DIVERGENCE_FACTOR = 1e6


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
    # why the solve stopped: "converged", "max_iter", "diverged" or
    # "non_finite"
    stop_reason: str = "converged"


def triple_norm(x, system):
    """Level-scaled L2 norm of a stacked (velocity, pressure) vector on the
    level of the given SaddleSystem."""
    hm2, beta = system.h ** -2, system.params.beta
    u, p = system.split(x)
    # M_U applies the scalar mass M to each velocity component
    uu = sum(c @ matvec_add(system.M, c, np.zeros(c.size))
             for c in u.reshape(2, -1))
    pp = p @ matvec_add(system.M_P, p, np.zeros(p.size))
    val = (hm2 + beta) * uu + hm2 / (beta + hm2) * pp
    # tiny negative values can appear from roundoff at x ~ 0
    return float(np.sqrt(max(val, 0.0)))


class Multigrid:
    """Cycle driver owning the per-level systems, transfers and scalings.

    systems[k] is the level-k SaddleSystem; transfers[k] maps level k-1 to
    level k (transfers[0] is unused and may be None); every level has the
    same beta.  The instance never mutates its inputs; solves on the same
    hierarchy can run concurrently.
    """

    def __init__(self, systems, transfers, config: CycleConfig):
        if len(transfers) != len(systems):
            raise ValueError("need one transfer slot per level")
        for k in range(1, len(systems)):
            t, fine, coarse = transfers[k], systems[k], systems[k - 1]
            if t.n_fine != fine.n or t.n_coarse != coarse.n:
                raise ValueError(
                    f"transfer {k} maps {t.n_coarse} to {t.n_fine} dofs, but "
                    f"levels {k - 1} and {k} have {coarse.n} and {fine.n}"
                )
            if fine.params.beta != systems[0].params.beta:
                raise ValueError(
                    f"level {k} has beta {fine.params.beta:g}, level 0 has "
                    f"{systems[0].params.beta:g}"
                )
        self.systems = list(systems)
        self.transfers = list(transfers)
        self.config = config
        self.scalings = [build_scaling(s) for s in self.systems]
        self._exact = {}
        self._g1 = None
        # cycles that start together build each factorization and G1 once;
        # reentrant, since G1's build runs exact level-0 solves
        self._build_lock = threading.RLock()
        # weighted pressure means: w = M_P 1
        self._pressure_weights = [
            s.M_P @ np.ones(s.n_p) for s in self.systems
        ]

    # -- exact (augmented) solves -------------------------------------

    def _exact_factorization(self, level):
        with self._build_lock:
            if level not in self._exact:
                system = self.systems[level]
                n = system.n
                if n + 1 > _MAX_EXACT_DIM:
                    raise ValueError(
                        f"exact solve on level {level} needs a dense "
                        f"factorization of dimension {n + 1}; use V/W "
                        "cycles for levels this large"
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
        padded = np.concatenate([rhs, np.zeros((1,) + rhs.shape[1:])])
        return fact.solve(padded)[:-1]

    # -- cycling -------------------------------------------------------

    def project_pressure(self, level, x):
        """Remove the weighted-mean pressure component."""
        x = x.copy()
        p = x[self.systems[level].n_u:]
        w = self._pressure_weights[level]
        p -= (w @ p) / w.sum()
        return x

    def smooth(self, level, x, rhs, steps):
        system, scaling = self.systems[level], self.scalings[level]
        for _ in range(steps):
            x = smoother_step(system, scaling, self.config.smoother, x, rhs)
        return x

    def _correction(self, level, rhs):
        """Coarse correction on the given level: one V or two W cycles
        from zero."""
        z = np.zeros((self.systems[level].n,) + rhs.shape[1:])
        for _ in range(2 if self.config.cycle == "W" else 1):
            z = self._cycle(level, z, rhs)
        return z

    def _level1_map(self):
        """G1, the level-1 correction as a dense matrix (built once)."""
        with self._build_lock:
            if self._g1 is None:
                self._g1 = self._correction(1, np.eye(self.systems[1].n))
            return self._g1

    def _cycle(self, level, x, rhs, top=False):
        if level == 0:
            return self._exact_solve(0, rhs)
        cfg = self.config
        x = self.smooth(level, x, rhs, cfg.nu_pre)
        r_coarse = restrict(
            self.transfers[level], self.systems[level].residual(x, rhs)
        )
        if level == 1 or cfg.cycle == "two_grid":
            z = self._exact_solve(level - 1, r_coarse)
        elif level == 2 and not top:
            z = self._level1_map() @ r_coarse
        else:
            z = self._correction(level - 1, r_coarse)
        x = x + prolongate(self.transfers[level], z)
        return self.smooth(level, x, rhs, cfg.nu_post)

    def mg_cycle(self, level, x, rhs):
        """One multigrid cycle on the given level, for an iterate vector or
        an (n, k) block of iterates with matching right-hand sides."""
        system = self._system(level)
        # the sweeps write into float64 arrays
        x = np.ascontiguousarray(x, dtype=float)
        rhs = np.ascontiguousarray(rhs, dtype=float)
        if x.shape[0] != system.n:
            raise ValueError("iterate length does not match the level")
        return self.project_pressure(level, self._cycle(level, x, rhs,
                                                         top=True))

    def _system(self, level):
        if not 0 <= level < len(self.systems):
            raise ValueError(
                f"level {level} not built (hierarchy has levels 0 to "
                f"{len(self.systems) - 1})"
            )
        return self.systems[level]

    # -- measured iteration ---------------------------------------------

    def error_norm(self, level, x, x_star):
        return triple_norm(x - x_star, self.systems[level])

    def solve(self, level, rhs, x_star, x0=None, tol=1e-9, max_iter=200):
        """Iterate cycles until the error against the known discrete
        solution has dropped by the given factor, and report the iteration
        count, mean per-cycle contraction rate, final iterate and why it
        stopped.  A non-finite error, at the start or after a cycle, ends
        the solve as failed with q = inf and stop_reason "non_finite"; an
        error above _DIVERGENCE_FACTOR * err0 ends it as "diverged"."""
        system = self._system(level)
        if max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {max_iter}")
        x = np.zeros(system.n) if x0 is None else np.array(x0, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        err0 = self.error_norm(level, x, x_star)
        history = [err0]
        if not np.isfinite(err0):
            return SolveReport(n=0, q=float("inf"), history=history,
                               converged=False, x=x, stop_reason="non_finite")
        if err0 == 0.0:
            return SolveReport(n=0, q=0.0, history=history, converged=True,
                               x=x, stop_reason="converged")

        stop_reason = "max_iter"
        for _ in range(max_iter):
            x = self.mg_cycle(level, x, rhs)
            err = self.error_norm(level, x, x_star)
            history.append(err)
            if not np.isfinite(err):
                stop_reason = "non_finite"
                break
            if err > _DIVERGENCE_FACTOR * err0:
                stop_reason = "diverged"
                break
            if err <= tol * err0:
                stop_reason = "converged"
                break

        n = len(history) - 1
        last = history[-1]
        q = float((last / err0) ** (1.0 / n)) if last > 0.0 else 0.0
        if not np.isfinite(last):
            q = float("inf")
        return SolveReport(n=n, q=q, history=history,
                           converged=stop_reason == "converged", x=x,
                           stop_reason=stop_reason)
