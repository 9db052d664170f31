"""Acceptance gate: the quantitative reproduction targets and the exact
structural identities, each printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Reference iteration counts are sensitive to small
implementation choices, so the quantitative gates use the agreed
tolerance bands rather than exact table values.
"""

import time

import numpy as np
import pytest

from stokesmg.assembly import l2_project, manufactured_rhs
from stokesmg.bench import BETA_TABLE, exact_pressure, exact_velocity
from stokesmg.multigrid import CycleConfig, Hierarchy, Multigrid, triple_norm
from stokesmg.smoother import (
    SmootherConfig,
    build_scaling,
    estimate_spectral_radius,
    normal_equation_step,
    smoother_step,
    uzawa_step,
)

from conftest import prolongation, transfer_blocks, velocity_pressure


class Runner:
    """Shared hierarchy plus memoized targets and measured solves."""

    def __init__(self, max_level=6):
        self.hierarchy = Hierarchy(max_level)
        self._targets = {}
        self._solves = {}

    def target(self, level):
        """(u*, p*): the L2 projection of the reference solution."""
        if level not in self._targets:
            self._targets[level] = l2_project(
                self.hierarchy.spaces[level], exact_velocity, exact_pressure)
        return self._targets[level]

    def solve(self, level, beta, kind, nu, cycle="W", max_iter=200):
        key = (level, beta, kind, nu, cycle)
        if key not in self._solves:
            systems = self.hierarchy.systems(beta, level)
            u_star, p_star = self.target(level)
            x_star = systems[level].join(u_star, p_star)
            rhs = manufactured_rhs(systems[level], (u_star, p_star))
            cfg = CycleConfig(smoother=SmootherConfig(kind=kind),
                              cycle=cycle, nu_pre=nu, nu_post=nu)
            mg = Multigrid(systems, self.hierarchy.transfers[: level + 1], cfg)
            start = time.perf_counter()
            report = mg.solve(level, rhs, x_star, max_iter=max_iter)
            self._solves[key] = (report, time.perf_counter() - start)
        return self._solves[key]


@pytest.fixture(scope="module")
def runner():
    return Runner(max_level=6)


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_normal_smoother_reference_cell(runner):
    rep, secs = runner.solve(4, 1.0, "normal_equation", 3)
    ok = rep.converged and 24 <= rep.n <= 38 and 0.40 <= rep.q <= 0.60 and secs < 30
    report(1, ok,
           f"normal W-cycle k=4 beta=1 nu=3+3: n={rep.n} (accept 24..38), "
           f"q={rep.q:.3f} (accept 0.40..0.60), {secs:.1f}s (<30s); "
           f"reference n=30 q=0.496")


def test_criterion_2_uzawa_smoother_reference_cell(runner):
    rep, secs = runner.solve(4, 0.0, "uzawa", 3)
    ok = rep.converged and 10 <= rep.n <= 20 and 0.12 <= rep.q <= 0.32 and secs < 30
    report(2, ok,
           f"uzawa k=4 beta=0 nu=3+3: n={rep.n} (accept 10..20), "
           f"q={rep.q:.3f} (accept 0.12..0.32), {secs:.1f}s (<30s); "
           f"reference n=14 q=0.212")


def test_criterion_3_beta_robustness(runner):
    start = time.perf_counter()
    details = []
    ok = True
    for kind in ("normal_equation", "uzawa"):
        for level in (4, 5):
            ns = [runner.solve(level, b, kind, 3)[0].n for b in BETA_TABLE]
            ratio = max(ns) / min(ns)
            ok = ok and all(
                runner.solve(level, b, kind, 3)[0].converged for b in BETA_TABLE
            ) and ratio <= 4.0
            details.append(f"{kind} k={level}: n={ns} ratio={ratio:.2f}")
    secs = time.perf_counter() - start
    ok = ok and secs < 300
    report(3, ok, "max/min iteration ratio over beta <= 4 "
           f"({'; '.join(details)}; {secs:.0f}s < 300s)")


def test_criterion_4_h_robustness(runner):
    ns = [runner.solve(k, 0.0, "normal_equation", 3)[0].n for k in (4, 5, 6)]
    center = sorted(ns)[1]
    spread = max(abs(n - center) for n in ns)
    ok = spread <= 3
    report(4, ok,
           f"normal beta=0 k=4,5,6: n={ns}, max deviation from median "
           f"{spread} (accept <= 3); reference 30, 29, 29")


def test_criterion_5_nu_sweep_trend(runner):
    qs = [runner.solve(4, 1.0, "normal_equation", nu)[0].q
          for nu in (1, 2, 3, 4, 8, 16)]
    strictly_decreasing = all(a > b for a, b in zip(qs, qs[1:]))
    uz, _ = runner.solve(4, 1.0, "uzawa", 1)
    ok = strictly_decreasing and qs[-1] <= 0.25 and not uz.converged
    report(5, ok,
           f"normal k=4 beta=1 q over nu=1..16: "
           f"{[f'{q:.3f}' for q in qs]} strictly decreasing, "
           f"q(16+16)={qs[-1]:.3f} <= 0.25 (reference 0.148); "
           f"uzawa nu=1+1 non-convergent within 200 iterations "
           f"(reported n={uz.n}, converged={uz.converged})")


def test_criterion_6_galerkin_identity(runner):
    worst = 0.0
    for beta in (1.0,):
        systems = runner.hierarchy.systems(beta, 3)
        for k in (1, 2, 3):
            T = runner.hierarchy.transfers[k]
            fine, coarse = systems[k], systems[k - 1]
            P_u, P_p = transfer_blocks(T, fine.n_u, coarse.n_u)
            for row_p, col_p, mat_f, mat_c in [
                (P_u, P_u, fine.A, coarse.A),
                (P_p, P_u, fine.B, coarse.B),
                (P_u, P_u, fine.M_U, coarse.M_U),
                (P_p, P_p, fine.M_P, coarse.M_P),
            ]:
                got = row_p.T @ mat_f @ col_p
                err = np.abs((got - mat_c).toarray()).max()
                worst = max(worst, err / np.abs(mat_f.toarray()).max())
    ok = worst <= 1e-10
    report(6, ok, f"Galerkin identity, all blocks, k=1..3: worst "
           f"relative defect {worst:.2e} <= 1e-10")


def test_criterion_7_uzawa_compact_equivalence(runner):
    rng = np.random.default_rng(11)
    worst = 0.0
    systems = runner.hierarchy.systems(1.0, 3)
    for k in (1, 2, 3):
        system = systems[k]
        sc = build_scaling(system)
        w = sc.weights(SmootherConfig(kind="uzawa", tau=0.8, sigma=0.8))
        B = system.B.toarray()
        C = np.block([
            [np.diag(sc.d_u / 0.8), B.T],
            [B, 0.8 * B @ np.diag(1.0 / sc.d_u) @ B.T
             - np.diag(sc.d_p / 0.8)],
        ])
        for _ in range(3):
            x = rng.standard_normal(system.n)
            rhs = rng.standard_normal(system.n)
            got = uzawa_step(system, w, x, rhs)
            oracle = x + np.linalg.solve(C, rhs - system.dense() @ x)
            worst = max(worst,
                        np.abs(got - oracle).max() / np.abs(oracle).max())
    ok = worst <= 1e-11
    report(7, ok, f"uzawa substeps vs compact block form, k<=3: worst "
           f"relative error {worst:.2e} <= 1e-11")


def test_criterion_8_structural_identities(runner):
    systems = runner.hierarchy.systems(1.0, 2)
    checks = []
    for k in (1, 2):
        s = systems[k]
        ones = np.ones(s.n_p)
        checks.append(np.abs(s.Bt @ ones).max() <= 1e-12)
        checks.append(abs(ones @ (s.M_P @ ones) - 1.0) <= 1e-12)
        asym = np.abs((s.A - s.A.T).toarray()).max()
        checks.append(asym <= 1e-13 * np.abs(s.A.toarray()).max())
        checks.append(np.linalg.eigvalsh(s.M_U.toarray()).min() > 0)
        checks.append(np.linalg.eigvalsh(s.M_P.toarray()).min() > 0)
    ok = all(checks)
    report(8, ok, "B^T 1 = 0 (1e-12), 1^T M_P 1 = 1 (1e-12), A symmetric "
           "(1e-13 rel), mass matrices positive definite on k<=2")


def test_criterion_9_linearity_and_fixed_point(runner):
    rng = np.random.default_rng(13)
    systems = runner.hierarchy.systems(1.0, 3)
    system = systems[3]
    sc = build_scaling(system)
    worst = 0.0
    for kind in ("normal_equation", "uzawa"):
        w = sc.weights(SmootherConfig(kind=kind))
        x = rng.standard_normal(system.n)
        y = rng.standard_normal(system.n)
        rhs = rng.standard_normal(system.n)
        diff = (smoother_step(system, w, kind, x, rhs)
                - smoother_step(system, w, kind, y, rhs)
                - smoother_step(system, w, kind, x - y, np.zeros(system.n)))
        worst = max(worst, np.abs(diff).max())
    cfg = CycleConfig(smoother=SmootherConfig(), cycle="W", nu_pre=2, nu_post=2)
    mg = Multigrid(systems, runner.hierarchy.transfers[:4], cfg)
    x = rng.standard_normal(system.n)
    y = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    diff = (mg.mg_cycle(3, x, rhs) - mg.mg_cycle(3, y, rhs)
            - mg.mg_cycle(3, x - y, np.zeros(system.n)))
    worst = max(worst, np.abs(diff).max())

    u_star, p_star = runner.target(3)
    x_star = system.join(u_star, p_star)
    rhs_star = manufactured_rhs(system, (u_star, p_star))
    out = mg.mg_cycle(3, x_star.copy(), rhs_star)
    fp_err = triple_norm(out - x_star, system) / triple_norm(x_star, system)
    ok = worst <= 1e-11 and fp_err <= 1e-10
    report(9, ok, f"smoother and cycle linearity defect {worst:.2e} <= 1e-11; "
           f"manufactured solution fixed-point error {fp_err:.2e}")


def test_criterion_10_two_grid_dense_realization(runner):
    rng = np.random.default_rng(17)
    systems = runner.hierarchy.systems(1.0, 1)
    s1, s0 = systems[1], systems[0]
    T = runner.hierarchy.transfers[1]
    cfg = CycleConfig(smoother=SmootherConfig(), cycle="two_grid",
                      nu_pre=3, nu_post=0)
    mg = Multigrid(systems, runner.hierarchy.transfers[:2], cfg)
    x0 = rng.standard_normal(s1.n)
    rhs = rng.standard_normal(s1.n)
    got = mg.mg_cycle(1, x0, rhs)

    w = build_scaling(s1).weights(SmootherConfig(tau=0.35))
    dense1 = s1.dense()
    x = x0.copy()
    for _ in range(3):
        x = normal_equation_step(s1, w, x, rhs)
    P = prolongation(T).toarray()
    rc = P.T @ (rhs - dense1 @ x)
    n0 = s0.n
    aug = np.zeros((n0 + 1, n0 + 1))
    aug[:n0, :n0] = s0.dense()
    c = np.concatenate([np.zeros(s0.n_u), s0.M_P @ np.ones(s0.n_p)])
    aug[:n0, n0] = c
    aug[n0, :n0] = c
    z = np.linalg.solve(aug, np.concatenate([rc, [0.0]]))[:n0]
    x = x + P @ z
    w = s1.M_P @ np.ones(s1.n_p)
    u_, p_ = velocity_pressure(s1, x)
    oracle = s1.join(u_, p_ - (w @ p_) / w.sum())
    err = np.abs(got - oracle).max() / max(1.0, np.abs(oracle).max())
    ok = err <= 1e-10
    report(10, ok, f"two-grid correction at level 1 vs dense realization: "
           f"relative error {err:.2e} <= 1e-10")


def test_criterion_11_spectral_safety(runner):
    worst = 0.0
    worst_at = None
    for beta in (0.0, 1.0, 1e4, 1e10):
        systems = runner.hierarchy.systems(beta, 4)
        for k in (1, 2, 3, 4):
            sc = build_scaling(systems[k])
            val = 0.35 * estimate_spectral_radius(
                systems[k], sc, tol=1e-3, max_iter=1000
            )
            if val > worst:
                worst, worst_at = val, (k, beta)
    ok = worst <= 1.95
    report(11, ok, f"tau * rho(Dinv A Dinv A) over k=1..4, beta in "
           f"{{0,1,1e4,1e10}}: max {worst:.3f} at k={worst_at[0]} "
           f"beta={worst_at[1]:g} (accept <= 1.95, power iteration tol 1e-3)")


def test_criterion_12_iteration_matrix_spectral_radius(runner):
    # one W(3,3) cycle applied to the identity block with a zero right-hand
    # side is the cycle's full error-propagation matrix, so its spectral
    # radius bounds the contraction for every right-hand side; level 3
    # (n = 2211) runs only the cell of each smoother with the largest
    # radius measured over the four beta
    cells = [(2, beta, kind) for beta in (0.0, 1.0, 1e4, 1e10)
             for kind in ("uzawa", "normal_equation")]
    cells += [(3, 0.0, "uzawa"), (3, 1e10, "normal_equation")]
    bound = {"uzawa": 0.3, "normal_equation": 0.9}
    worst = dict.fromkeys(bound, (0.0, None))
    for level, beta, kind in cells:
        systems = runner.hierarchy.systems(beta, level)
        cfg = CycleConfig(smoother=SmootherConfig(kind=kind), cycle="W",
                          nu_pre=3, nu_post=3)
        mg = Multigrid(systems, runner.hierarchy.transfers[: level + 1], cfg)
        n = systems[level].n
        error_map = mg.mg_cycle(level, np.eye(n), np.zeros((n, n)))
        rho = float(np.abs(np.linalg.eigvals(error_map)).max())
        if rho > worst[kind][0]:
            worst[kind] = (rho, (level, beta))
    ok = all(worst[k][0] <= bound[k] for k in bound)
    report(12, ok, "; ".join(
        f"{k} W(3,3) iteration-matrix spectral radius max {r:.3f} at "
        f"k={at[0]} beta={at[1]:g} (accept <= {bound[k]})"
        for k, (r, at) in worst.items()
    ))
