"""Checks of solver output against computations made apart from the solver.

The saddle operator is rebuilt here with `scipy.sparse.bmat` from the
system's blocks (transposing B here, not using `SaddleSystem.Bt` or
`SaddleSystem.apply`), and the level-scaled error norm is recomputed from
M_U and M_P rather than taken from `stokesmg.multigrid.triple_norm`.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

TOL = 1e-9  # the error reduction every solve must reach
ROUNDOFF = 1e-10  # relative slack for identities that hold exactly
# Largest accepted dual-norm residual reduction of a converged iterate.
# Converged cells read 2e-10 to 3e-8 at levels 4-6, growing about 4x per
# level; an iterate off by 1e-5 of the initial error reads 1e-5 or more.
RESIDUAL_TOL = 1e-6
# Acceptance criterion 3 of the repository: max/min cycles over beta.
BETA_RATIO_MAX = 4.0


class Operator:
    """Saddle matrix and norm weights of one level, built from its blocks."""

    def __init__(self, system):
        A, B = system.A, system.B
        self.n_u = A.shape[0]
        self.K = sp.bmat([[A, B.T], [B, None]], format="csr")
        self.abs_K = abs(self.K)
        self.B = B
        self.M_U, self.M_P = system.M_U, system.M_P
        hm2, beta = system.h ** -2, system.params.beta
        self.w_u = hm2 + beta
        self.w_p = hm2 / (beta + hm2)
        # lumped inverse weights of the norm dual to the error norm
        self.dual = 1.0 / np.concatenate(
            [self.w_u * self.M_U.diagonal(), self.w_p * self.M_P.diagonal()]
        )

    def error_norm(self, e):
        u, p = e[: self.n_u], e[self.n_u:]
        val = self.w_u * (u @ (self.M_U @ u)) + self.w_p * (p @ (self.M_P @ p))
        return float(np.sqrt(max(val, 0.0)))

    def dual_norm(self, r):
        return float(np.sqrt(r @ (self.dual * r)))


def check_rhs(op, rhs, x_star):
    """The right-hand side is the saddle operator applied to x_star, to
    roundoff of each entry's own sum."""
    ref = op.K @ x_star
    bound = 1e-12 * (op.abs_K @ np.abs(x_star)) + 1e-300
    worst = float(np.max(np.abs(rhs - ref) / bound))
    if not worst <= 1.0:
        return [f"rhs differs from K x_star by {worst:.2e} x roundoff bound"]
    return []


def check_iterate(op, x_star, x, history, tol=TOL):
    """The final iterate reaches the error reduction, in the level-scaled
    norm recomputed here, and its residual against K x_star is small."""
    failures = []
    err0 = op.error_norm(x_star)
    err = op.error_norm(x - x_star)
    if not err <= tol * err0 * (1.0 + 1e-6):
        failures.append(f"error reduction {err / err0:.2e} > {tol:.0e}")
    if not abs(history[-1] - err) <= 1e-6 * err + 1e-15 * err0:
        failures.append(
            f"reported final error {history[-1]:.6e} != recomputed {err:.6e}"
        )
    ref = op.K @ x_star
    ratio = op.dual_norm(ref - op.K @ x) / op.dual_norm(ref)
    if not ratio <= RESIDUAL_TOL:
        failures.append(
            f"dual residual reduction {ratio:.2e} > {RESIDUAL_TOL:.0e}"
        )
    return failures


def check_properties(op, x, report):
    """Properties the method must have on every converged cell."""
    failures = []
    ones = np.ones(op.M_P.shape[0])
    w = op.M_P @ ones
    p = x[op.n_u:]
    mean = abs(w @ p) / max(np.abs(w) @ np.abs(p), 1e-300)
    if not mean <= ROUNDOFF:
        failures.append(f"weighted pressure mean {mean:.2e} != 0")
    bt1 = float(np.max(np.abs(op.B.T @ ones)))
    scale = float(np.max(abs(op.B).T @ ones))
    if not bt1 <= ROUNDOFF * scale:
        failures.append(f"B^T 1 = {bt1:.2e} != 0")
    area = float(ones @ w)
    if not abs(area - 1.0) <= ROUNDOFF:
        failures.append(f"1^T M_P 1 = {area!r} != 1")
    if not (report.converged and 0.0 <= report.q < 1.0):
        failures.append(
            f"not converged (converged={report.converged}, q={report.q})"
        )
    if report.n != len(report.history) - 1:
        failures.append("reported n does not match the error history")
    return failures


def check_beta_robustness(cycles_by_level):
    """Cycles bounded over beta within each level: max/min <= 4."""
    failures = []
    for level, ns in sorted(cycles_by_level.items()):
        if len(ns) > 1 and not max(ns) <= BETA_RATIO_MAX * min(ns):
            failures.append(
                f"level {level}: cycles {ns} exceed max/min {BETA_RATIO_MAX}"
            )
    return failures


def check_cell(op, rhs, x_star, x, report):
    """Every check of one solved cell; `op` is the cell's `Operator`."""
    return (
        check_rhs(op, rhs, x_star)
        + check_iterate(op, x_star, x, report.history)
        + check_properties(op, x, report)
    )
