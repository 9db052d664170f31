import dataclasses
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stokesmg import sparse
from stokesmg.assembly import ProblemParams, build_system, manufactured_rhs
from stokesmg.bench import _HierarchyCache
from stokesmg.multigrid import CycleConfig, Multigrid, triple_norm
from stokesmg.smoother import ScalingOperator, SmootherConfig, build_scaling
from stokesmg.transfer import prolongate, restrict

from conftest import (eval_p2_function, force_split_products, p2_coords,
                      p2_on_boundary)


def make_mg(systems, transfers, level, config=None):
    cfg = config or CycleConfig(
        smoother=SmootherConfig(), cycle="W", nu_pre=3, nu_post=3
    )
    return Multigrid(systems[: level + 1], transfers[: level + 1], cfg)


@pytest.fixture(scope="module")
def manufactured2(spaces3_module, systems3_module):
    from stokesmg.assembly import l2_project
    from stokesmg.bench import exact_pressure, exact_velocity

    u_star, p_star = l2_project(spaces3_module[2], exact_velocity, exact_pressure)
    system = systems3_module[2]
    x_star = system.join(u_star, p_star)
    rhs = manufactured_rhs(system, (u_star, p_star))
    return x_star, rhs


@pytest.fixture(scope="module")
def spaces3_module(spaces3):
    return spaces3


@pytest.fixture(scope="module")
def systems3_module(systems3_beta1):
    return systems3_beta1


def test_config_validation():
    with pytest.raises(ValueError):
        CycleConfig(cycle="F")
    with pytest.raises(ValueError):
        CycleConfig(nu_pre=-1)


def test_config_takes_integer_smoothing_counts_only():
    # a count range() cannot take must fail here, not in a solve's first
    # sweep loop after the whole hierarchy is built
    for counts in ({"nu_pre": 2.5}, {"nu_post": 2.5}, {"nu_pre": "3"}):
        with pytest.raises(ValueError, match="must be integers"):
            CycleConfig(**counts)
    config = CycleConfig(nu_pre=np.int64(3), nu_post=np.int64(2))
    assert (config.nu_pre, config.nu_post) == (3, 2)
    assert type(config.nu_pre) is type(config.nu_post) is int


def test_rejects_mismatched_transfers(systems3_beta1, transfers3):
    cfg = CycleConfig()
    with pytest.raises(ValueError, match="transfer 1 .* levels 0 and 1"):
        Multigrid(systems3_beta1[:3], transfers3[1:4], cfg)


def test_rejects_mixed_beta(spaces3, systems3_beta1, transfers3):
    mixed = systems3_beta1[:2] + [
        build_system(spaces3[2], ProblemParams(beta=0.0))
    ]
    with pytest.raises(ValueError, match="level 2 has beta 0"):
        Multigrid(mixed, transfers3[:3], CycleConfig())


def test_cycle_on_unbuilt_level(systems3_beta1, transfers3):
    mg = make_mg(systems3_beta1, transfers3, 2)
    with pytest.raises(ValueError):
        mg.mg_cycle(3, np.zeros(1), np.zeros(1))


@pytest.mark.parametrize("level", [-1, 3])
def test_cycle_and_solve_reject_a_level_outside_the_stack(
    systems3_beta1, transfers3, level
):
    mg = make_mg(systems3_beta1, transfers3, 2)
    with pytest.raises(ValueError, match="not built"):
        mg.mg_cycle(level, np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match="not built"):
        mg.solve(level, np.zeros(1), np.zeros(1))


def count_sweeps(monkeypatch):
    """The number of smoother_step calls the cycles make, as a list that
    grows by one entry per sweep."""
    from stokesmg import multigrid

    sweeps, step = [], multigrid.smoother_step

    def counting(*args):
        sweeps.append(args[0].n)
        return step(*args)

    monkeypatch.setattr(multigrid, "smoother_step", counting)
    return sweeps


def shape_message(level, *shapes):
    """A pattern for a shape error naming the level and the given shapes."""
    return f"level {level}: .*" + ".*".join(
        re.escape(str(shape)) for shape in shapes)


@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("name", ["x", "rhs"])
def test_cycle_rejects_input_of_the_wrong_length(systems3_beta1, transfers3,
                                                 monkeypatch, name, change):
    # a level-3 rhs one entry short used to fail inside the Uzawa sweep
    # with a broadcast error; it now stops before any sweep
    cfg = CycleConfig(smoother=SmootherConfig(kind="uzawa"), cycle="W")
    mg = make_mg(systems3_beta1, transfers3, 3, config=cfg)
    sweeps = count_sweeps(monkeypatch)
    n = systems3_beta1[3].n
    args = {"x": np.zeros(n), "rhs": np.ones(n)}
    args[name] = np.ones(n + change)
    with pytest.raises(ValueError,
                       match=shape_message(3, (n + change,), (n,))):
        mg.mg_cycle(3, args["x"], args["rhs"])
    assert sweeps == []


@pytest.mark.parametrize("width", [2, 4])
def test_cycle_rejects_a_block_rhs_of_another_width(systems3_beta1,
                                                    transfers3, monkeypatch,
                                                    width):
    mg = make_mg(systems3_beta1, transfers3, 3)
    sweeps = count_sweeps(monkeypatch)
    n = systems3_beta1[3].n
    with pytest.raises(ValueError,
                       match=shape_message(3, (n, width), (n, 3))):
        mg.mg_cycle(3, np.zeros((n, 3)), np.ones((n, width)))
    assert sweeps == []


@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("name", ["rhs", "x_star", "x0"])
def test_solve_rejects_input_of_the_wrong_length(systems3_beta1, transfers3,
                                                 monkeypatch, name, change):
    # a short x_star used to fail with a broadcast error in the error norm
    cfg = CycleConfig(smoother=SmootherConfig(kind="uzawa"), cycle="W")
    mg = make_mg(systems3_beta1, transfers3, 3, config=cfg)
    sweeps = count_sweeps(monkeypatch)
    n = systems3_beta1[3].n
    args = {"rhs": np.ones(n), "x_star": np.ones(n), "x0": np.zeros(n)}
    args[name] = np.ones(n + change)
    with pytest.raises(ValueError,
                       match=shape_message(3, (n + change,), (n,))):
        mg.solve(3, args["rhs"], args["x_star"], x0=args["x0"])
    assert sweeps == []


@pytest.mark.parametrize("max_iter", [0, -1])
def test_solve_rejects_max_iter_below_one(systems3_module, transfers3,
                                          manufactured2, max_iter):
    # a solve that ran no cycle has no rate to report
    x_star, rhs = manufactured2
    mg = make_mg(systems3_module, transfers3, 2)
    with pytest.raises(ValueError, match="max_iter"):
        mg.solve(2, rhs, x_star, max_iter=max_iter)


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
def test_solve_rejects_a_tol_that_is_not_positive_and_finite(
        systems3_module, transfers3, manufactured2, monkeypatch, tol):
    # such a tol stops no solve: a level-2 solve ran all 200 cycles and
    # reported max_iter
    x_star, rhs = manufactured2
    mg = make_mg(systems3_module, transfers3, 2)
    sweeps = count_sweeps(monkeypatch)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        mg.solve(2, rhs, x_star, tol=tol)
    assert sweeps == []


def test_zero_residual_cycle_without_smoothing(systems3_beta1, transfers3):
    rng = np.random.default_rng(0)
    system = systems3_beta1[2]
    cfg = CycleConfig(smoother=SmootherConfig(), cycle="W", nu_pre=0, nu_post=0)
    mg = make_mg(systems3_beta1, transfers3, 2, config=cfg)
    x = rng.standard_normal(system.n)
    rhs = system.apply(x)
    out = mg.mg_cycle(2, x, rhs)
    projected = mg.project_pressure(2, x)
    assert np.abs(out - projected).max() <= 1e-9 * np.abs(x).max()


def test_project_pressure_returns_projected_copy(systems3_beta1,
                                                 transfers3):
    rng = np.random.default_rng(7)
    mg = make_mg(systems3_beta1, transfers3, 2)
    system = systems3_beta1[2]
    x = rng.standard_normal(system.n)
    x_before = x.copy()
    out = mg.project_pressure(2, x)
    assert np.array_equal(x, x_before) and not np.shares_memory(out, x)
    u, p = system.split(out)
    w = system.space.pressure_weights
    assert np.array_equal(u, x[: system.n_u])
    assert abs(w @ p) <= 1e-14 * (np.abs(w) @ np.abs(p))


def test_cycle_removes_the_pressure_mean_from_its_own_result(
        systems3_beta1, transfers3):
    # mg_cycle projects the new array _cycle returns in place, with the
    # bits of the public projection, which copies
    rng = np.random.default_rng(8)
    mg = make_mg(systems3_beta1, transfers3, 3)
    x, rhs = rng.standard_normal((2, systems3_beta1[3].n))
    want = mg.project_pressure(3, mg._cycle(3, x, rhs, top=True))
    assert mg.mg_cycle(3, x, rhs).tobytes() == want.tobytes()
    y = rng.standard_normal(systems3_beta1[3].n)
    assert mg.project_pressure(3, y, copy=False) is y


@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_multigrid_keeps_only_what_its_sweep_reads(systems3_beta1,
                                                   transfers3, kind):
    # one float64 array of n damped weights per level, bitwise
    # sqrt(tau) / d_full for the normal equation and [tau / d_u,
    # sigma / d_p] for Uzawa, and no scaling or diagonal beside it
    smoother = SmootherConfig(kind=kind, tau=0.7)
    tau, sigma = smoother.damping
    mg = Multigrid(systems3_beta1, transfers3, CycleConfig(smoother=smoother))
    assert len(mg.weights) == len(systems3_beta1)
    for system, w in zip(systems3_beta1, mg.weights):
        full = build_scaling(system)
        if kind == "normal_equation":
            want = np.sqrt(tau) / full.d_full
        else:
            want = np.concatenate([tau / full.d_u, sigma / full.d_p])
        assert type(w) is np.ndarray and w.dtype == np.float64
        assert w.shape == (system.n,) and w.base is None
        assert w.tobytes() == want.tobytes()
    held = [v for value in vars(mg).values()
            for v in (value if isinstance(value, list) else [value])
            if isinstance(v, (np.ndarray, ScalingOperator))]
    assert len(held) == len(mg.weights)
    assert all(a is w for a, w in zip(held, mg.weights))


@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_solve_never_builds_A_or_M_U(monkeypatch, spaces3, transfers3, kind):
    # the solver applies the saddle matrix and the scalar mass; the blocks
    # A and M_U exist only for diagnostics, tests and oracles
    from stokesmg.assembly import SaddleSystem, l2_project
    from stokesmg.bench import exact_pressure, exact_velocity

    def forbidden(system):
        raise AssertionError("solve built a velocity block")

    monkeypatch.setattr(SaddleSystem, "A", property(forbidden))
    monkeypatch.setattr(SaddleSystem, "M_U", property(forbidden))
    systems = [build_system(s, ProblemParams(beta=1.0)) for s in spaces3]
    u_star, p_star = l2_project(spaces3[3], exact_velocity, exact_pressure)
    rhs = manufactured_rhs(systems[3], (u_star, p_star))
    cfg = CycleConfig(smoother=SmootherConfig(kind=kind), cycle="W")
    report = Multigrid(systems, transfers3, cfg).solve(
        3, rhs, systems[3].join(u_star, p_star), max_iter=2
    )
    assert report.n == 2


def test_coarse_solve_contracts(systems3_beta1, transfers3):
    rng = np.random.default_rng(1)
    mg = make_mg(systems3_beta1, transfers3, 1)
    s0 = systems3_beta1[0]
    # consistency on a mean-zero-pressure solution
    x = rng.standard_normal(s0.n)
    x = mg.project_pressure(0, x)
    z = mg._exact_solve(0, s0.apply(x))
    assert np.abs(z - x).max() <= 1e-10 * max(1.0, np.abs(x).max())
    # zero maps to zero
    assert np.abs(mg._exact_solve(0, np.zeros(s0.n))).max() == 0.0
    # compatible random right-hand side: residual at solver precision
    rhs = rng.standard_normal(s0.n)
    g = rhs[s0.n_u:]
    rhs[s0.n_u:] = g - g.mean()
    z = mg._exact_solve(0, rhs)
    res = rhs - s0.apply(z)
    assert np.abs(res).max() <= 1e-11 * max(1.0, np.abs(rhs).max())
    with pytest.raises(ValueError):
        mg._exact_solve(0, np.zeros(3))


def test_two_grid_matches_dense_oracle(systems3_beta1, transfers3):
    rng = np.random.default_rng(2)
    s1, s0 = systems3_beta1[1], systems3_beta1[0]
    T = transfers3[1]
    cfg = CycleConfig(
        smoother=SmootherConfig(), cycle="two_grid", nu_pre=2, nu_post=0
    )
    mg = make_mg(systems3_beta1, transfers3, 1, config=cfg)
    x0 = rng.standard_normal(s1.n)
    rhs = rng.standard_normal(s1.n)
    got = mg.mg_cycle(1, x0, rhs)

    sc = build_scaling(s1)
    d = np.concatenate([sc.d_u, sc.d_p])
    dense1 = s1.dense()
    x = x0.copy()
    for _ in range(2):
        r = rhs - dense1 @ x
        x = x + 0.35 * (dense1 @ (r / d)) / d
    P = T.P.toarray()
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
    u_, p_ = s1.split(x)
    oracle = s1.join(u_, p_ - (w @ p_) / w.sum())
    assert np.abs(got - oracle).max() <= 1e-10 * max(1.0, np.abs(oracle).max())


@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_cycle_is_affine_linear(systems3_beta1, transfers3, kind):
    rng = np.random.default_rng(3)
    system = systems3_beta1[2]
    cfg = CycleConfig(smoother=SmootherConfig(kind=kind), cycle="W",
                      nu_pre=2, nu_post=2)
    mg = make_mg(systems3_beta1, transfers3, 2, config=cfg)
    x = rng.standard_normal(system.n)
    y = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    lhs = mg.mg_cycle(2, x, rhs) - mg.mg_cycle(2, y, rhs)
    zero_rhs = mg.mg_cycle(2, x - y, np.zeros(system.n))
    assert np.abs(lhs - zero_rhs).max() <= 1e-11 * max(1.0, np.abs(lhs).max())


def test_exact_solution_is_cycle_fixed_point(
    systems3_module, transfers3, manufactured2
):
    x_star, rhs = manufactured2
    mg = make_mg(systems3_module, transfers3, 2)
    out = mg.mg_cycle(2, x_star.copy(), rhs)
    system = systems3_module[2]
    err = triple_norm(out - x_star, system)
    assert err <= 1e-10 * triple_norm(x_star, system)


def test_solve_at_exact_solution_reports_zero(
    systems3_module, transfers3, manufactured2
):
    x_star, rhs = manufactured2
    mg = make_mg(systems3_module, transfers3, 2)
    report = mg.solve(2, rhs, x_star, x0=x_star.copy())
    assert report.n == 0
    assert report.q == 0.0
    assert report.converged
    assert report.stop_reason == "converged"


def test_solve_converges_and_reports_rate(
    systems3_module, transfers3, manufactured2
):
    x_star, rhs = manufactured2
    mg = make_mg(systems3_module, transfers3, 2)
    report = mg.solve(2, rhs, x_star)
    assert report.converged
    assert report.n == len(report.history) - 1
    err0, errn = report.history[0], report.history[-1]
    assert errn <= 1e-9 * err0
    assert report.q == pytest.approx((errn / err0) ** (1.0 / report.n), rel=1e-12)


def test_vcycle_converges(systems3_module, transfers3, manufactured2):
    x_star, rhs = manufactured2
    cfg = CycleConfig(smoother=SmootherConfig(), cycle="V", nu_pre=3, nu_post=3)
    mg = make_mg(systems3_module, transfers3, 2, config=cfg)
    report = mg.solve(2, rhs, x_star)
    assert report.converged


def test_divergence_is_reported_not_raised(
    systems3_module, transfers3, manufactured2
):
    x_star, rhs = manufactured2
    cfg = CycleConfig(smoother=SmootherConfig(kind="uzawa"), cycle="W",
                      nu_pre=1, nu_post=1)
    mg = make_mg(systems3_module, transfers3, 2, config=cfg)
    report = mg.solve(2, rhs, x_star)
    assert not report.converged
    assert report.n <= 200


@pytest.mark.parametrize("exit_path", ["converged", "max_iter", "diverged"])
def test_solve_returns_final_iterate(systems3_module, transfers3,
                                     manufactured2, exit_path):
    x_star, rhs = manufactured2
    nu = 1 if exit_path == "diverged" else 3
    cfg = CycleConfig(smoother=SmootherConfig(kind="uzawa"), cycle="W",
                      nu_pre=nu, nu_post=nu)
    mg = make_mg(systems3_module, transfers3, 2, config=cfg)
    x0 = np.zeros_like(x_star)
    report = mg.solve(2, rhs, x_star, x0=x0,
                      max_iter=2 if exit_path == "max_iter" else 200)
    assert report.converged == (exit_path == "converged")
    assert report.stop_reason == exit_path
    if exit_path == "max_iter":
        assert report.n == 2
    if exit_path == "diverged":
        assert report.history[-1] > 1e6 * report.history[0]
    assert report.x.shape == x_star.shape and report.x is not x0
    assert not np.any(x0)
    assert mg.error_norm(2, report.x, x_star) == report.history[-1]


@pytest.mark.parametrize("bad", ["nan_rhs", "inf_x_star"])
def test_non_finite_solve_is_reported_failed(systems3_module, transfers3,
                                             manufactured2, bad):
    x_star, rhs = manufactured2
    x_star, rhs = x_star.copy(), rhs.copy()
    if bad == "nan_rhs":
        rhs[5] = np.nan
    else:
        x_star[5] = np.inf
    mg = make_mg(systems3_module, transfers3, 2)
    with np.errstate(all="ignore"):
        report = mg.solve(2, rhs, x_star)
    assert not report.converged
    assert report.stop_reason == "non_finite"
    assert report.q == float("inf")
    assert report.x is not None and report.x.shape == x_star.shape
    if bad == "inf_x_star":
        # nothing to measure against: no cycle is run
        assert report.n == 0 and not np.any(report.x)


@pytest.mark.parametrize("case, stop_reason", [
    ("converged", "converged"), ("max_iter", "max_iter"),
    ("diverged", "diverged"), ("nan_rhs", "non_finite"),
    ("zero_start", "converged"), ("inf_x_star", "non_finite"),
])
def test_report_count_and_rate_follow_the_history(
    systems3_module, transfers3, manufactured2, case, stop_reason
):
    # n and q are read off the history, whatever ended the solve
    x_star, rhs = manufactured2
    x_star, rhs = x_star.copy(), rhs.copy()
    nu = 1 if case == "diverged" else 3
    cfg = CycleConfig(smoother=SmootherConfig(kind="uzawa"), cycle="W",
                      nu_pre=nu, nu_post=nu)
    mg = make_mg(systems3_module, transfers3, 2, config=cfg)
    x0 = x_star.copy() if case == "zero_start" else None
    if case == "nan_rhs":
        rhs[5] = np.nan
    if case == "inf_x_star":
        x_star[5] = np.inf
    with np.errstate(all="ignore"):
        report = mg.solve(2, rhs, x_star, x0=x0,
                          max_iter=2 if case == "max_iter" else 200)
    assert report.stop_reason == stop_reason
    history = report.history
    assert report.n == len(history) - 1
    if case in ("zero_start", "inf_x_star"):
        assert report.n == 0
    first, last = history[0], history[-1]
    if not np.isfinite(last):
        assert report.q == float("inf")
    elif last == 0.0:
        assert report.q == 0.0
    else:
        assert report.q == (last / first) ** (1.0 / report.n)
    # neither is stored: a replaced report reads them off its history too
    assert not {"n", "q"} & {f.name for f in dataclasses.fields(report)}
    failed = dataclasses.replace(report, converged=False)
    assert (failed.n, failed.q) == (report.n, report.q)


def test_solve_at_exact_solution_returns_start_copy(
    systems3_module, transfers3, manufactured2
):
    x_star, rhs = manufactured2
    mg = make_mg(systems3_module, transfers3, 2)
    x0 = x_star.copy()
    report = mg.solve(2, rhs, x_star, x0=x0)
    assert report.n == 0 and report.x is not x0
    assert np.array_equal(report.x, x_star)


@pytest.mark.parametrize("cycle,expected_coarse_solves",
                         [("V", 1), ("W", 2), ("two_grid", 1)])
def test_cycle_recursion_counts(systems3_beta1, transfers3, cycle,
                                expected_coarse_solves):
    # at level 2 every recursive visit of level 1 triggers exactly one
    # exact level-0 solve, so counting them counts the corrections; a
    # two-grid cycle instead solves exactly on level 1, once
    cfg = CycleConfig(smoother=SmootherConfig(), cycle=cycle,
                      nu_pre=1, nu_post=1)
    mg = make_mg(systems3_beta1, transfers3, 2, config=cfg)
    calls = []
    original = mg._exact_solve

    def counting(level, rhs):
        calls.append(level)
        return original(level, rhs)

    mg._exact_solve = counting
    rng = np.random.default_rng(6)
    system = systems3_beta1[2]
    mg.mg_cycle(2, rng.standard_normal(system.n), rng.standard_normal(system.n))
    exact_level = 1 if cycle == "two_grid" else 0
    assert calls == [exact_level] * expected_coarse_solves


@pytest.fixture(scope="module")
def hierarchy4_beta1():
    cache = _HierarchyCache(4)
    return cache.systems(1.0, 4), cache.transfers


def literal_cycle(mg, level, x, rhs):
    """Oracle: the cycle recursing down to the level-0 solve on every
    visit, with no precomputed coarse map."""
    cfg = mg.config
    x = mg.smooth(level, x, rhs, cfg.nu_pre)
    r = restrict(mg.transfers[level], mg.systems[level].residual(x, rhs))
    if level == 1:
        z = mg._exact_solve(0, r)
    else:
        z = np.zeros(mg.systems[level - 1].n)
        for _ in range(2 if cfg.cycle == "W" else 1):
            z = literal_cycle(mg, level - 1, z, r)
    x = x + prolongate(mg.transfers[level], z)
    return mg.smooth(level, x, rhs, cfg.nu_post)


@pytest.mark.parametrize("beta", [0.0, 1.0, 1e10])
@pytest.mark.parametrize("cycle", ["V", "W"])
@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_corrections_from_no_iterate_match_corrections_from_zeros(
    systems3_by_beta, transfers3, kind, cycle, beta
):
    # a level-2 cycle recurses literally; its level-1 corrections start
    # from None, skipping the first sweep's product with the zero iterate,
    # where the oracle's start from np.zeros: equal up to the sign of zero
    systems = systems3_by_beta[beta]
    cfg = CycleConfig(smoother=SmootherConfig(kind=kind), cycle=cycle)
    mg = make_mg(systems, transfers3, 2, config=cfg)
    rng = np.random.default_rng(44)
    x = rng.standard_normal(systems[2].n)
    rhs = rng.standard_normal(systems[2].n)
    for _ in range(2):
        got = mg.mg_cycle(2, x, rhs)
        oracle = mg.project_pressure(2, literal_cycle(mg, 2, x, rhs))
        assert np.array_equal(got, oracle)
        x = got


@pytest.mark.parametrize("level", [1, 2, 3])
def test_exact_solve_on_a_block_matches_column_solves(systems3_beta1,
                                                      transfers3, level):
    # triangular solves with four right-hand sides round differently from
    # four one-column solves; a row scaling applied along the wrong axis
    # would be wrong at O(1)
    rng = np.random.default_rng(30 + level)
    mg = make_mg(systems3_beta1, transfers3, level)
    fact = mg._exact_factorization(level)
    n = systems3_beta1[level].n
    for solve, b in ((fact.solve, rng.standard_normal((n + 1, 4))),
                     (lambda b: mg._exact_solve(level, b),
                      rng.standard_normal((n, 4)))):
        block = solve(b)
        columns = np.column_stack([solve(b[:, j]) for j in range(4)])
        assert block.shape == b.shape
        assert (np.linalg.norm(block - columns)
                <= 1e-13 * np.linalg.norm(columns))


@pytest.mark.parametrize("beta", [0.0, 1e10])
@pytest.mark.parametrize("cycle", ["W", "V"])
@pytest.mark.parametrize("kind", ["uzawa", "normal_equation"])
def test_level1_map_matches_column_recursion(systems3_by_beta, transfers3,
                                             beta, cycle, kind):
    cfg = CycleConfig(smoother=SmootherConfig(kind=kind), cycle=cycle)
    mg = make_mg(systems3_by_beta[beta], transfers3, 2, config=cfg)
    n = systems3_by_beta[beta][1].n
    columns = np.column_stack(
        [mg._correction(1, e) for e in np.eye(n)]
    )
    g1 = mg._level1_map()
    assert g1.shape == (n, n)
    assert mg._level1_map() is g1
    assert np.abs(g1 - columns).max() <= 1e-15 * np.abs(columns).max()


@pytest.mark.parametrize("cycle,kind", [("W", "uzawa"),
                                        ("V", "normal_equation")])
@pytest.mark.parametrize("level", [3, 4])
def test_cycle_matches_literal_recursion(systems3_beta1, transfers3,
                                         hierarchy4_beta1, level, cycle, kind):
    systems, transfers = (
        (systems3_beta1, transfers3) if level == 3 else hierarchy4_beta1
    )
    cfg = CycleConfig(smoother=SmootherConfig(kind=kind), cycle=cycle)
    mg = make_mg(systems, transfers, level, config=cfg)
    rng = np.random.default_rng(40 + level)
    x = rng.standard_normal(systems[level].n)
    rhs = rng.standard_normal(systems[level].n)
    for _ in range(2):
        got = mg.mg_cycle(level, x, rhs)
        oracle = mg.project_pressure(level, literal_cycle(mg, level, x, rhs))
        assert np.abs(got - oracle).max() <= 1e-14 * np.abs(oracle).max()
        x = got


def test_coarse_visits_apply_the_level1_map(systems3_beta1, transfers3):
    # a level-3 W-cycle visits level 2 twice, each time inside level 3's
    # correction; both apply G1, which the first cycle builds by two
    # level-1 cycles on the identity block, so level 1 is smoothed and
    # level 0 solved only then
    mg = make_mg(systems3_beta1, transfers3, 3)
    smoothed, solved = [], []
    smooth, exact_solve = mg.smooth, mg._exact_solve

    def counting_smooth(level, x, rhs, steps):
        # x is None on a correction's first visit: rhs has its shape
        smoothed.append((level, rhs.ndim))
        return smooth(level, x, rhs, steps)

    def counting_solve(level, rhs):
        solved.append((level, rhs.shape))
        return exact_solve(level, rhs)

    mg.smooth, mg._exact_solve = counting_smooth, counting_solve
    rng = np.random.default_rng(7)
    n, n1 = systems3_beta1[3].n, systems3_beta1[1].n
    x, rhs = rng.standard_normal(n), rng.standard_normal(n)
    x = mg.mg_cycle(3, x, rhs)
    identity_block = (systems3_beta1[0].n, n1)
    assert solved == [(0, identity_block)] * 2
    assert sorted(smoothed) == sorted(
        [(1, 2)] * 4 + [(2, 1)] * 4 + [(3, 1)] * 2
    )
    smoothed.clear()
    solved.clear()
    mg.mg_cycle(3, x, rhs)
    assert solved == []
    assert sorted(smoothed) == [(2, 1)] * 4 + [(3, 1)] * 2


@pytest.fixture(scope="module")
def manufactured3(spaces3, systems3_beta1):
    from stokesmg.assembly import l2_project
    from stokesmg.bench import exact_pressure, exact_velocity

    u_star, p_star = l2_project(spaces3[3], exact_velocity, exact_pressure)
    system = systems3_beta1[3]
    return (system.join(u_star, p_star),
            manufactured_rhs(system, (u_star, p_star)))


@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_integer_iterate_is_taken_as_float(systems3_beta1, transfers3,
                                           manufactured3, kind):
    x_star, rhs = manufactured3
    cfg = CycleConfig(smoother=SmootherConfig(kind=kind), cycle="W")
    mg = Multigrid(systems3_beta1, transfers3, cfg)
    n = x_star.size
    report = mg.solve(3, rhs, x_star, x0=np.zeros(n, dtype=int))
    want = mg.solve(3, rhs, x_star)
    assert report.converged and report.history == want.history
    assert np.array_equal(report.x, want.x)
    x, b = np.arange(n) % 3 - 1, np.arange(n) % 5 - 2
    assert np.array_equal(mg.mg_cycle(3, x, b),
                          mg.mg_cycle(3, x.astype(float), b.astype(float)))


def check_concurrent_cycles(systems, transfers, kind, monkeypatch=None):
    """Two threads' level-3 W-cycles on one Multigrid equal sequential ones
    bitwise; given monkeypatch, the threads run with every product split."""
    cfg = CycleConfig(smoother=SmootherConfig(kind=kind), cycle="W")
    mg = Multigrid(systems, transfers, cfg)
    mg._level1_map()
    n = systems[3].n
    rng = np.random.default_rng(22)
    starts = [rng.standard_normal(n) for _ in range(2)]
    rhss = [rng.standard_normal(n) for _ in range(2)]
    barrier = threading.Barrier(2)

    def five_cycles(x, rhs, wait=False):
        if wait:
            barrier.wait(timeout=60)
        for _ in range(5):
            x = mg.mg_cycle(3, x, rhs)
        return x

    want = [five_cycles(x, b) for x, b in zip(starts, rhss)]
    if monkeypatch is not None:
        force_split_products(monkeypatch)
    # switch threads often, so that the two solves interleave finely, and
    # run them together several times
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(10):
                got = list(pool.map(five_cycles, starts, rhss, [True] * 2,
                                    timeout=60))
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_concurrent_cycles_on_one_hierarchy(systems3_beta1, transfers3,
                                            kind):
    # README promises solves on one hierarchy may run concurrently: no
    # cycle operation may keep scratch arrays on a shared object
    check_concurrent_cycles(systems3_beta1, transfers3, kind)


@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_concurrent_cycles_with_split_products(systems3_beta1, transfers3,
                                               kind, monkeypatch):
    # both solves hand the first halves of their products to the one
    # worker thread, which must keep each half with its own product
    check_concurrent_cycles(systems3_beta1, transfers3, kind, monkeypatch)
    assert sparse._worker is not None


def test_concurrent_first_cycles_build_once(systems3_beta1, transfers3,
                                            monkeypatch):
    # two threads start level-3 W-cycles together on a fresh Multigrid:
    # the level-0 factorization and G1 (the only level-1 corrections of a
    # level-3 cycle) are each built once, and the cycles match sequential
    # ones exactly
    from stokesmg import multigrid

    factorizations = []
    original = multigrid.DenseFactorization

    def counted(matrix):
        factorizations.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(multigrid, "DenseFactorization", counted)
    n = systems3_beta1[3].n
    rng = np.random.default_rng(23)
    starts = [rng.standard_normal(n) for _ in range(2)]
    rhss = [rng.standard_normal(n) for _ in range(2)]
    sequential = make_mg(systems3_beta1, transfers3, 3)
    want = [sequential.mg_cycle(3, x, b) for x, b in zip(starts, rhss)]
    barrier = threading.Barrier(2)

    def first_cycle(mg, x, rhs):
        barrier.wait(timeout=60)
        return mg.mg_cycle(3, x, rhs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(10):
                mg = make_mg(systems3_beta1, transfers3, 3)
                level1_corrections = []

                def counted_correction(level, rhs, _inner=mg._correction):
                    if level == 1:
                        level1_corrections.append(rhs.shape)
                    return _inner(level, rhs)

                mg._correction = counted_correction
                factorizations.clear()
                got = list(pool.map(first_cycle, [mg] * 2, starts, rhss,
                                    timeout=60))
                assert level1_corrections == [(systems3_beta1[1].n,) * 2]
                assert factorizations == [(systems3_beta1[0].n + 1,) * 2]
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
    finally:
        sys.setswitchinterval(interval)


def test_triple_norm_properties(systems3_beta1):
    system = systems3_beta1[1]
    assert triple_norm(np.zeros(system.n), system) == 0.0
    rng = np.random.default_rng(5)
    x = rng.standard_normal(system.n)
    assert triple_norm(3.5 * x, system) == pytest.approx(
        3.5 * triple_norm(x, system), rel=1e-13
    )


@pytest.mark.parametrize("split", [False, True])
def test_triple_norm_sums_the_three_mass_products_bitwise(
        monkeypatch, systems3_beta1, split):
    # the one product with diag(M, M, M_P), split over two threads or not,
    # gives the dots of M u_x, M u_y and M_P p summed in their order
    if split:
        force_split_products(monkeypatch)
    system = systems3_beta1[3]
    x = np.random.default_rng(6).standard_normal(system.n)
    u, p = system.split(x)
    hm2, beta = system.h ** -2, system.params.beta
    uu = sum(sparse.dot(c, system.M @ c) for c in u.reshape(2, -1))
    pp = sparse.dot(p, system.M_P @ p)
    want = np.sqrt((hm2 + beta) * uu + hm2 / (beta + hm2) * pp)
    assert triple_norm(x, system) == want


def test_triple_norm_beta_zero_velocity_matches_quadrature(spaces3):
    # with beta = 0 and no pressure the norm is h^-1 times the L2 norm of
    # the velocity field; cross-check against exact integration of an
    # interpolated quadratic polynomial on level 1
    import sympy

    space = spaces3[1]
    system = build_system(space, ProblemParams(beta=0.0))
    X, Y = sympy.symbols("x y")
    f = X * (1 - X) * 2 + X * Y  # quadratic, interpolated exactly
    f_np = sympy.lambdify((X, Y), f, "numpy")
    coords = p2_coords(space)
    coeff = np.asarray(f_np(coords[:, 0], coords[:, 1]), dtype=float)
    # zero out boundary values to land in the constrained space
    coeff[p2_on_boundary(space)] = 0.0

    # exact L2 norm of the FE function via symbolic integration per triangle
    total = 0.0
    for t in range(space.level.n_triangles):
        nodes = space.tri_p2[t]
        mono = [1, X, Y, X**2, X * Y, Y**2]
        V = sympy.Matrix(
            [[sympy.sympify(m).subs({X: coords[n][0], Y: coords[n][1]})
              for m in mono] for n in nodes]
        )
        cloc = V.solve(sympy.Matrix([coeff[n] for n in nodes]))
        fh = sum(cloc[k] * mono[k] for k in range(6))
        verts = space.level.vertex_coords[space.level.tri_vertices[t]]
        s, r = sympy.symbols("s r")
        xm = verts[0][0] + (verts[1][0] - verts[0][0]) * s + (verts[2][0] - verts[0][0]) * r
        ym = verts[0][1] + (verts[1][1] - verts[0][1]) * s + (verts[2][1] - verts[0][1]) * r
        det = abs(
            (verts[1][0] - verts[0][0]) * (verts[2][1] - verts[0][1])
            - (verts[2][0] - verts[0][0]) * (verts[1][1] - verts[0][1])
        )
        val = sympy.integrate(
            sympy.integrate((fh.subs({X: xm, Y: ym})) ** 2, (r, 0, 1 - s)),
            (s, 0, 1),
        ) * det
        total += float(val)

    u = np.concatenate([coeff[space.interior_nodes],
                        np.zeros(space.n_interior)])
    x = system.join(u, np.zeros(system.n_p))
    expect = np.sqrt(total) / system.h
    assert triple_norm(x, system) == pytest.approx(expect, abs=1e-10 * expect)


def test_robustness_envelope_small_levels(spaces3, transfers3):
    # iteration rates stay inside loose envelopes over levels 2-3 and a
    # wide beta range (coarse-scale version of the benchmark tables)
    from stokesmg.assembly import l2_project
    from stokesmg.bench import exact_pressure, exact_velocity

    worst = {"normal_equation": 0.0, "uzawa": 0.0}
    targets = {
        k: l2_project(spaces3[k], exact_velocity, exact_pressure)
        for k in (2, 3)
    }
    for beta in (0.0, 1e2, 1e6, 1e10):
        params = ProblemParams(beta=beta)
        systems = [build_system(s, params) for s in spaces3]
        for kind in worst:
            cfg = CycleConfig(smoother=SmootherConfig(kind=kind), cycle="W",
                              nu_pre=3, nu_post=3)
            for k in (2, 3):
                mg = Multigrid(systems[: k + 1], transfers3[: k + 1], cfg)
                u_star, p_star = targets[k]
                rhs = manufactured_rhs(systems[k], (u_star, p_star))
                report = mg.solve(k, rhs, systems[k].join(u_star, p_star))
                assert report.converged, (kind, beta, k)
                worst[kind] = max(worst[kind], report.q)
    assert worst["normal_equation"] <= 0.85
    assert worst["uzawa"] <= 0.45
