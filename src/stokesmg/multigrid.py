"""Coupled multigrid cycles on the saddle-point level stack (Hierarchy).

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

import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from .assembly import ProblemParams, TaylorHoodSpace, build_systems
from .mesh import build_hierarchy
from .smoother import SmootherConfig, build_scaling, smoother_step
from .sparse import DenseFactorization, dot
from .transfer import build_prolongation, prolongate, restrict

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
        try:  # Python or numpy integers: 2.5 fails here, not in a sweep
            self.nu_pre, self.nu_post = map(operator.index,
                                            (self.nu_pre, self.nu_post))
        except TypeError:
            raise ValueError("smoothing counts must be integers") from None
        if self.nu_pre < 0 or self.nu_post < 0:
            raise ValueError("smoothing counts must be nonnegative")


@dataclass
class SolveReport:
    history: list[float]
    converged: bool
    # final iterate; history[-1] is its error norm
    x: np.ndarray | None = field(default=None, repr=False, compare=False)
    # why the solve stopped: "converged", "max_iter", "diverged" or
    # "non_finite"
    stop_reason: str = "converged"

    @property
    def n(self):
        """The number of cycles run."""
        return len(self.history) - 1

    @property
    def q(self):
        """The mean per-cycle contraction rate: inf for a non-finite last
        error, 0 for a zero one."""
        first, last = self.history[0], self.history[-1]
        if not np.isfinite(last):
            return float("inf")
        return float((last / first) ** (1.0 / self.n)) if last > 0.0 else 0.0


def _check_level(level, n_levels):
    """Raise ValueError unless level is an integer (a Python or numpy one:
    1.0 fails too) among 0..n_levels - 1."""
    try:
        index = operator.index(level)
    except TypeError:
        index = None
    if index not in range(n_levels):
        raise ValueError(f"level {level} not built (hierarchy has levels 0 "
                         f"to {n_levels - 1})")


def triple_norm(x, system):
    """Level-scaled L2 norm of a stacked (velocity, pressure) vector on the
    level of the given SaddleSystem, whose space owns h and the scalar
    velocity mass M (built by set-up on solved levels, on first use
    elsewhere; ValueError without a space).  One product with
    diag(M, M, M_P), into zeros, gives M u_x, M u_y and M_P p, split over
    two threads from level 5 up; then the dots of u_x, u_y and p with them
    are summed on the caller, in that order."""
    hm2, beta = system.h ** -2, system.params.beta
    mx = system.mass_product(x, np.zeros(x.size))
    n_v, n_u = system.n_u // 2, system.n_u
    uu = dot(x[:n_v], mx[:n_v]) + dot(x[n_v:n_u], mx[n_v:n_u])
    pp = dot(x[n_u:], mx[n_u:])
    val = (hm2 + beta) * uu + hm2 / (beta + hm2) * pp
    # tiny negative values can appear from roundoff at x ~ 0
    return float(np.sqrt(max(val, 0.0)))


class Hierarchy:
    """The unit square's levels 0..max_level as Multigrid takes them:
    spaces and transfers (transfers[0] is None), and systems per beta.

    The systems of every beta asked for together are built level by
    level, each level's in one pass (build_systems), so they share its
    saddle patterns, and the blocks only set-up reads are assembled once
    per level and dropped before the next level's.  A beta asked for
    later builds them again.  The masses and h are the spaces', the
    velocity mass built on solved levels and elsewhere on first use.
    """

    def __init__(self, max_level):
        self.spaces = [TaylorHoodSpace(mesh)
                       for mesh in build_hierarchy(max_level)]
        self.transfers = [None] + [
            build_prolongation(self.spaces[k - 1], self.spaces[k])
            for k in range(1, len(self.spaces))
        ]
        self._systems = {}

    def build(self, tops, solved=None):
        """Build the systems of each beta in tops up to its level there,
        from the finest level down, all of a level's in one pass: the pass
        then peaks while only the finer levels' systems are held, the
        coarser ones not yet built.  The masses and h are the spaces':
        given the levels solved on, the passes build the velocity mass
        there alone, and a space elsewhere on first use.  A bad beta or
        level, solved level or an empty tops raises ValueError before
        anything is built."""
        if not tops:
            raise ValueError(f"no beta to build systems for: tops is {tops}")
        for beta, top in tops.items():
            ProblemParams(beta=beta)
            _check_level(top, len(self.spaces))
        for level in () if solved is None else solved:
            _check_level(level, len(self.spaces))
        for level in range(max(tops.values()), -1, -1):
            missing = [beta for beta, top in tops.items() if top >= level
                       and level not in self._systems.get(beta, {})]
            if missing:
                for beta, system in zip(missing, build_systems(
                        self.spaces[level], missing,
                        solved is None or level in solved)):
                    self._systems.setdefault(beta, {})[level] = system

    def systems(self, beta, up_to_level):
        """The systems of beta on levels 0..up_to_level, built on first
        use."""
        self.build({beta: up_to_level})
        return [self._systems[beta][k] for k in range(up_to_level + 1)]


class Multigrid:
    """Cycle driver owning the per-level systems, transfers and sweep
    weights.

    systems[k] is the level-k SaddleSystem; transfers[k] maps level k-1 to
    level k (transfers[0] is unused and may be None); every level has the
    same beta; weights[k] is the one array of damped weights the
    configured sweep multiplies by on level k (ScalingOperator.weights).
    The instance never mutates its inputs; solves on the same hierarchy
    can run concurrently.
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
        self.weights = [build_scaling(s).weights(config.smoother)
                        for s in self.systems]
        self._exact = {}
        self._g1 = None
        # cycles that start together build each factorization and G1 once;
        # reentrant, since G1's build runs exact level-0 solves
        self._build_lock = threading.RLock()

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
                    [np.zeros(system.n_u), system.space.pressure_weights]
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
        """Remove the weighted-mean pressure component from x itself, a
        vector or an (n, k) block on the given level, and return x."""
        system = self._system(level)
        system.space.remove_pressure_mean(x[system.n_u:])
        return x

    def _correction(self, level, rhs):
        """Coarse correction on the given level: one V or two W cycles
        from zeros."""
        z = np.zeros((self.systems[level].n,) + rhs.shape[1:])
        for _ in range(2 if self.config.cycle == "W" else 1):
            z = self._cycle(level, z, rhs)
        return z

    def _level1_map(self):
        """G1, the level-1 correction as a dense matrix (built once)."""
        # read without the lock once built: a level-2 visit asks every time
        if self._g1 is None:
            with self._build_lock:
                if self._g1 is None:
                    self._g1 = self._correction(1, np.eye(self.systems[1].n))
        return self._g1

    def _cycle(self, level, x, rhs, top=False):
        """One cycle on the given level from the iterate x.  The restricted
        residual and the coarse correction are dropped before
        post-smoothing, and each post-sweep's input is named here alone,
        so it is freed as the next sweep starts."""
        if level == 0:
            return self._exact_solve(0, rhs)
        cfg = self.config
        system, w = self.systems[level], self.weights[level]
        kind = cfg.smoother.kind
        for _ in range(cfg.nu_pre):
            x = smoother_step(system, w, kind, x, rhs)
        r_coarse = restrict(self.transfers[level], system.residual(x, rhs))
        if level == 1 or cfg.cycle == "two_grid":
            z = self._exact_solve(level - 1, r_coarse)
        elif level == 2 and not top:
            z = self._level1_map() @ r_coarse
        else:
            z = self._correction(level - 1, r_coarse)
        correction = prolongate(self.transfers[level], z)
        del r_coarse, z
        # the sum is written into the correction, and only x names it
        x = np.add(correction, x, correction)
        del correction
        for _ in range(cfg.nu_post):
            x = smoother_step(system, w, kind, x, rhs)
        return x

    def mg_cycle(self, level, x, rhs):
        """One multigrid cycle on the given level, for an iterate vector or
        an (n, k) block of iterates with matching right-hand sides."""
        self._system(level)
        # the sweeps write into float64 arrays
        x = np.ascontiguousarray(x, dtype=float)
        rhs = np.ascontiguousarray(rhs, dtype=float)
        self._check_shapes(level, x, rhs=rhs.shape)
        # _cycle's result is always a new array (the last sweep's output,
        # the prolongated correction or the level-0 solve), so the mean is
        # removed in place
        return self.project_pressure(
            level, self._cycle(level, x, rhs, top=True))

    def _system(self, level):
        _check_level(level, len(self.systems))
        return self.systems[level]

    def _check_shapes(self, level, x, **shapes):
        """Raise ValueError unless the iterate x is a vector or an (n, k)
        block for the level's n dofs and each named shape is x's.  The
        sweeps slice their input by the level's block sizes, so bad input
        stops here, before any sweep, rather than in a broadcast."""
        n = self.systems[level].n
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ValueError(f"level {level}: the iterate has shape "
                             f"{x.shape}, the level's vectors ({n},)")
        for name, shape in shapes.items():
            if shape != x.shape:
                raise ValueError(f"level {level}: {name} has shape {shape}, "
                                 f"the iterate {x.shape}")

    # -- measured iteration ---------------------------------------------

    def error_norm(self, level, x, x_star):
        return triple_norm(x - x_star, self._system(level))

    def solve(self, level, rhs, x_star, x0=None, tol=1e-9, max_iter=200):
        """Iterate cycles until the error against the known discrete
        solution has dropped by the given factor, and report the iteration
        count, mean per-cycle contraction rate, final iterate and why it
        stopped.  A non-finite error, at the start or after a cycle, ends
        the solve as failed with q = inf and stop_reason "non_finite"; an
        error above _DIVERGENCE_FACTOR * err0 ends it as "diverged"."""
        system = self._system(level)
        try:  # Python or numpy integers: 2.5 and NaN fail before any norm
            valid = operator.index(max_iter) >= 1
        except TypeError:
            valid = False
        if not valid:
            raise ValueError("max_iter must be an integer at least 1, got "
                             f"{max_iter}")
        if not 0.0 < tol < np.inf:  # written so that NaN fails too
            raise ValueError(f"tol must be positive and finite, got {tol}")
        x = np.zeros(system.n) if x0 is None else np.array(x0, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        self._check_shapes(level, x, rhs=rhs.shape,
                           x_star=np.shape(x_star))
        err0 = self.error_norm(level, x, x_star)
        history = [err0]
        # a zero or non-finite start runs no cycle
        stop_reason = "converged" if err0 == 0.0 else "non_finite"
        if 0.0 < err0 < np.inf:
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
        return SolveReport(history=history,
                           converged=stop_reason == "converged", x=x,
                           stop_reason=stop_reason)
