"""Tests of the benchmark's own checks, tracer and inputs, on small levels.

    python -m pytest benchmarks -q
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import stokesmg  # noqa: E402
from stokesmg import multigrid, smoother  # noqa: E402
from stokesmg.assembly import manufactured_rhs  # noqa: E402
from stokesmg.bench import ExactSolution, _HierarchyCache  # noqa: E402
from stokesmg.multigrid import CycleConfig, Multigrid  # noqa: E402
from stokesmg.smoother import SmootherConfig  # noqa: E402

import oracle  # noqa: E402
import summary  # noqa: E402
from fields import BumpField  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Recorder  # noqa: E402

LEVEL = 3


def _solution(seed):
    f = BumpField(seed)
    return ExactSolution(phi=f.bump, velocity=f.velocity, pressure=f.pressure)


@pytest.fixture(scope="module")
def solved():
    cache = _HierarchyCache(LEVEL, solution=_solution(7))
    systems = cache.systems(1.0, LEVEL)
    system = systems[LEVEL]
    u_star, p_star = cache.target(LEVEL)
    x_star = system.join(u_star, p_star)
    rhs = manufactured_rhs(system, (u_star, p_star))
    mg = Multigrid(systems, cache.transfers,
                   CycleConfig(smoother=SmootherConfig(kind="uzawa")))
    recorder = Recorder()
    recorder.install()
    try:
        mg.solve(LEVEL, rhs, x_star)
    finally:
        recorder.uninstall()
    (cell,) = recorder.take()
    return {"mg": mg, "system": system, "rhs": rhs, "x_star": x_star,
            "cell": cell, "op": oracle.Operator(system)}


def test_converged_cell_passes_every_check(solved):
    cell = solved["cell"]
    assert cell.report.converged and cell.x is not None
    assert oracle.check_cell(solved["op"], solved["rhs"], solved["x_star"],
                             cell.x, cell.report) == []


@pytest.mark.parametrize("kind", ["rough", "smooth"])
def test_perturbed_iterate_is_rejected(solved, kind):
    op, x_star, x = solved["op"], solved["x_star"], solved["cell"].x
    if kind == "rough":
        delta = np.random.default_rng(0).standard_normal(x.size)
    else:
        delta = x_star.copy()
    delta *= 1e-5 * op.error_norm(x_star) / op.error_norm(delta)
    history = [op.error_norm(x + delta - x_star)]
    failures = oracle.check_iterate(op, x_star, x + delta, history)
    assert any("error reduction" in f for f in failures)
    assert any("dual residual" in f for f in failures)


def test_wrong_rhs_is_rejected(solved):
    op, mg, x_star = solved["op"], solved["mg"], solved["x_star"]
    wrong = solved["rhs"].copy()
    wrong[op.n_u // 2] *= 1.0 + 1e-8
    assert oracle.check_rhs(op, wrong, x_star)

    wrong = 1.01 * solved["rhs"]
    recorder = Recorder()
    recorder.install()
    try:
        report = mg.solve(LEVEL, wrong, x_star, max_iter=30)
    finally:
        recorder.uninstall()
    (cell,) = recorder.take()
    assert oracle.check_rhs(op, wrong, x_star)
    failures = oracle.check_iterate(op, x_star, cell.x, report.history)
    assert any("error reduction" in f for f in failures)
    assert any("dual residual" in f for f in failures)


def test_property_checks_reject_broken_inputs(solved):
    op, system, cell = solved["op"], solved["system"], solved["cell"]
    shifted = cell.x.copy()
    shifted[op.n_u:] += 1e-3
    assert any("pressure mean" in f
               for f in oracle.check_properties(op, shifted, cell.report))

    B = system.B.copy()
    B.data[np.argmax(np.abs(B.data))] *= 1.01
    broken = oracle.Operator(dataclasses.replace(system, B=B))
    assert any("B^T 1" in f
               for f in oracle.check_properties(broken, cell.x, cell.report))

    broken = oracle.Operator(dataclasses.replace(system, M_P=1.001 * system.M_P))
    assert any("M_P" in f
               for f in oracle.check_properties(broken, cell.x, cell.report))

    diverged = dataclasses.replace(cell.report, converged=False)
    assert oracle.check_properties(op, cell.x, diverged)

    assert oracle.check_beta_robustness({4: [5, 20], 5: [6, 6]}) == []
    assert oracle.check_beta_robustness({4: [5, 21]})


def test_sparse_direct_solve_agrees_with_projected_solution(solved):
    """x_star solves the augmented saddle system (pressure mean pinned by
    a multiplier), by a sparse LU that never touches the multigrid code."""
    op, x_star = solved["op"], solved["x_star"]
    c = np.concatenate([np.zeros(op.n_u), op.M_P @ np.ones(op.M_P.shape[0])])
    c = sp.csr_matrix(c[:, None])
    aug = sp.bmat([[op.K, c], [c.T, None]], format="csc")
    x = spla.splu(aug).solve(np.append(solved["rhs"], 0.0))[:-1]
    assert op.error_norm(x - x_star) <= 1e-8 * op.error_norm(x_star)


def test_tracer_spans_account_for_the_solve_and_restore_the_package():
    originals = (multigrid.smoother_step, smoother.smoother_step,
                 Multigrid.solve, stokesmg.build_system)
    level = 2
    cache = _HierarchyCache(level, solution=_solution(3))
    systems = cache.systems(0.0, level)
    u_star, p_star = cache.target(level)
    x_star = systems[level].join(u_star, p_star)
    rhs = manufactured_rhs(systems[level], (u_star, p_star))
    mg = Multigrid(systems, cache.transfers,
                   CycleConfig(smoother=SmootherConfig(kind="uzawa")))
    tracer = Tracer(stokesmg)
    with tracer:
        assert multigrid.smoother_step is not originals[0]
        report = mg.solve(level, rhs, x_star)
    assert (multigrid.smoother_step, smoother.smoother_step,
            Multigrid.solve, stokesmg.build_system) == originals

    spans = summary.RoundSpans(tracer.columns(), tracer.names)
    assert np.all(spans.parent < np.arange(spans.parent.size))
    # W-cycle from level 2: one visit of level 2 and two of level 1 per
    # cycle, 3 + 3 sweeps each; every level-1 visit solves on level 0
    n = report.n
    assert spans.calls("multigrid.mg_cycle") == n
    assert spans.calls("smoother.step") == 3 * 6 * n
    assert spans.calls("sparse.coarse_solve") == 2 * n
    assert spans.calls("transfer.restrict") == 3 * n
    by_module, total = spans.solve_accounting()
    assert sum(by_module.values()) == pytest.approx(total, rel=1e-12)
    assert total == pytest.approx(spans.total("multigrid.solve"))

    metrics = summary.round_metrics(spans, {"0": 0, "1": 10, "2": 100})
    assert metrics["smoother.step_calls.fine"] == 6 * n
    assert metrics["smoother.step_calls.fine-1"] == 12 * n
    assert metrics["smoother.bytes_computed"] == (6 * 100 + 12 * 10) * n


def test_fields_are_seeded_and_vanish_on_the_boundary():
    t = np.linspace(0.0, 1.0, 41)
    edge_x = np.concatenate([t, t, np.zeros_like(t), np.ones_like(t)])
    edge_y = np.concatenate([np.zeros_like(t), np.ones_like(t), t, t])
    xs, ys = np.meshgrid(t, t)
    for seed in (1, 2, 99):
        f, g = BumpField(seed), BumpField(seed)
        assert np.array_equal(f.pressure(xs, ys), g.pressure(xs, ys))
        assert not np.any(np.concatenate(f.velocity(edge_x, edge_y)))
        assert not np.any(f.pressure(edge_x, edge_y))
    assert not np.array_equal(BumpField(1).velocity(xs, ys)[0],
                              BumpField(2).velocity(xs, ys)[0])


def test_run_fails_without_sources(tmp_path):
    """Outside a checkout the benchmark exits non-zero and prints no result."""
    copy = tmp_path / "benchmarks"
    copy.mkdir()
    for f in HERE.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "w-uzawa-l6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
