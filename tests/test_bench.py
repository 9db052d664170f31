import csv
import io

import numpy as np
import pytest

from stokesmg.bench import (
    CSV_HEADER,
    ExperimentGrid,
    TableRow,
    _HierarchyCache,
    bump,
    emit,
    exact_pressure,
    exact_velocity,
    main,
    run_table,
)
from stokesmg.multigrid import CycleConfig
from stokesmg.smoother import (
    SmootherConfig,
    build_scaling,
    check_damping_conditions,
    estimate_spectral_radius,
)


def test_bump_profile():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 500)
    y = rng.uniform(0, 1, 500)
    phi = bump(x, y)
    assert np.all((phi >= 0.0) & (phi <= 1.0))
    r = np.hypot(x - 0.5, y - 0.5)
    assert np.all(phi[r >= 0.5] == 0.0)
    assert np.all(phi[r <= 0.25] == 1.0)
    assert np.array_equal(exact_pressure(x, y), phi)


def test_velocity_vanishes_on_boundary():
    t = np.linspace(0.0, 1.0, 101)
    for xb, yb in [(t, 0 * t), (t, 0 * t + 1), (0 * t, t), (0 * t + 1, t)]:
        ux, uy = exact_velocity(xb, yb)
        assert np.abs(ux).max() == 0.0
        assert np.abs(uy).max() == 0.0


def test_grid_validation():
    cfg = CycleConfig(smoother=SmootherConfig())
    with pytest.raises(ValueError):
        ExperimentGrid(levels=[2], betas=[], configs=[cfg])
    with pytest.raises(ValueError):
        ExperimentGrid(levels=[], betas=[0.0], configs=[cfg])
    with pytest.raises(ValueError):
        ExperimentGrid(levels=[2], betas=[0.0], configs=[])
    with pytest.raises(ValueError):
        ExperimentGrid(levels=[0], betas=[0.0], configs=[cfg])


@pytest.fixture(scope="module")
def small_rows():
    grid = ExperimentGrid(
        levels=[1, 2],
        betas=[0.0, 1e4],
        configs=[CycleConfig(smoother=SmootherConfig(kind="uzawa"))],
    )
    return grid, run_table(grid)


def test_run_table_shape_and_rows(small_rows):
    grid, rows = small_rows
    assert len(rows) == 4
    combos = {(r.level, r.beta) for r in rows}
    assert combos == {(1, 0.0), (1, 1e4), (2, 0.0), (2, 1e4)}
    for r in rows:
        assert r.smoother == "uzawa"
        assert r.converged and r.n > 0 and 0 <= r.q < 1
        assert r.wall_time_ms > 0


def test_run_table_deterministic(small_rows):
    grid, rows = small_rows
    again = run_table(grid)
    assert [(r.n, r.q) for r in again] == [(r.n, r.q) for r in rows]


def test_emit_csv_empty_and_round_trip(small_rows):
    assert emit([], "csv").strip() == CSV_HEADER
    _, rows = small_rows
    text = emit(rows[:1], "csv")
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == CSV_HEADER.split(",")
    assert len(parsed) == 2
    rec = dict(zip(parsed[0], parsed[1]))
    assert int(rec["level"]) == rows[0].level
    assert float(rec["beta"]) == rows[0].beta
    assert int(rec["n"]) == rows[0].n
    assert float(rec["q"]) == pytest.approx(rows[0].q, abs=5e-4)
    assert rec["converged"] == "true"
    assert rec["stop_reason"] == "converged"


def test_emit_markdown_levels_by_beta(small_rows):
    _, rows = small_rows
    text = emit(rows, "markdown")
    lines = text.strip().splitlines()
    assert lines[0].startswith("| k |")
    assert "beta=0 n" in lines[0]
    assert "beta=10000" in lines[0]
    assert len(lines) == 2 + 2  # header, rule, two level rows


def test_emit_markdown_nu_sweep_divergent_cells():
    rows = [
        TableRow(4, 1.0, "uzawa", 1, 1, 200, 1.2, False, 10.0, "diverged"),
        TableRow(4, 1.0, "uzawa", 3, 3, 14, 0.2, True, 10.0, "converged"),
        TableRow(4, 1.0, "normal_equation", 1, 1, 88, 0.789, True, 10.0,
                 "converged"),
        TableRow(4, 1.0, "normal_equation", 3, 3, 30, 0.496, True, 10.0,
                 "converged"),
    ]
    text = emit(rows, "markdown")
    assert "divergent" in text
    assert "nu=1+1" in text and "nu=3+3" in text
    # smoothers in order of first appearance
    lines = text.splitlines()
    assert lines[2].startswith("| uzawa | divergent |  | 14 | 0.200 |")
    assert lines[3].startswith("| normal_equation |")
    assert len(lines) == 4


def test_emit_rejects_unknown_format(small_rows):
    _, rows = small_rows
    with pytest.raises(ValueError):
        emit(rows, "latex")


def last_csv_record(out):
    return dict(zip(CSV_HEADER.split(","),
                    out.strip().splitlines()[-1].split(",")))


def test_cli_custom_run(capsys):
    code = main(["--max-level", "1", "--beta", "1", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith(CSV_HEADER)
    assert len(out.strip().splitlines()) == 2


def test_cli_divergent_exit_code(capsys):
    code = main([
        "--max-level", "2", "--beta", "1", "--smoother", "uzawa",
        "--nu-pre", "1", "--nu-post", "1", "--format", "csv",
    ])
    out = capsys.readouterr().out
    assert code == 2
    rec = last_csv_record(out)
    assert rec["converged"] == "false"
    assert rec["stop_reason"] == "diverged"


def test_cli_labels_a_solve_cut_off_at_max_iter(capsys):
    # a solve that stops on --max-iter while contracting is no divergence:
    # its cell reads max_iter with its rate, and the exit code is still 2
    code = main(["--max-level", "1", "--beta", "1", "--tol", "1e-6",
                 "--max-iter", "5"])
    out = capsys.readouterr().out
    assert code == 2
    row = out.strip().splitlines()[-1]
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[:2] == ["1", "max_iter"]
    assert 0.0 < float(cells[2]) < 1.0
    assert "divergent" not in out
    # the CSV tells it from a divergence too
    code = main(["--max-level", "1", "--beta", "1", "--tol", "1e-6",
                 "--max-iter", "5", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 2
    rec = last_csv_record(out)
    assert rec["converged"] == "false"
    assert rec["stop_reason"] == "max_iter"


@pytest.mark.parametrize("argv, option", [
    (["--max-level", "0"], "--max-level"),
    (["--max-level", "11"], "--max-level"),
    (["--beta", ""], "--beta"),
    (["--beta", "-1"], "--beta"),
    (["--beta", "1,x"], "--beta"),
    (["--nu-pre", "-1"], "--nu-pre"),
    (["--tau", "0"], "--tau"),
    (["--max-iter", "-1"], "--max-iter"),
    (["--max-iter", "0"], "--max-iter"),
    (["--tol", "-1"], "--tol"),
    (["--tol", "0"], "--tol"),
])
def test_cli_rejects_bad_options_with_a_usage_error(capsys, argv, option):
    # a value the run would fail on is reported by the parser: exit code
    # 2 and one error line, before anything is built
    with pytest.raises(SystemExit) as exit_info:
        main(["--max-level", "1", *argv])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if "error" in ln]
    assert len(errors) == 1
    assert errors[0].startswith(f"stokesmg-bench: error: argument {option}:")
    assert "Traceback" not in captured.err


def test_cli_check_damping(capsys):
    # each smoother is checked at the damping it is configured with
    system = _HierarchyCache(1).systems(0.0, 1)[1]
    scaling = build_scaling(system)
    for smoother, damping in (("normal", ["--tau", "0.3"]),
                              ("uzawa", ["--tau", "0.5", "--sigma", "0.25"])):
        code = main(["--max-level", "1", "--beta", "1", "--check-damping",
                     "--format", "csv", "--smoother", smoother, *damping])
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("damping")]
        assert len(lines) == 4  # level 1 for four beta
        assert lines[0].startswith("damping level=1 beta=0: ")
        if smoother == "normal":
            rho = 0.3 * estimate_spectral_radius(system, scaling)
            assert lines[0].endswith(
                f"tau*rho(D^-1 A D^-1 A)={rho:.3f} (ok=True)"
            )
        else:
            res = check_damping_conditions(system, scaling, 0.5, 0.25)
            assert (f"tau*lambda_velocity={0.5 * res['lambda_velocity']:.3f}"
                    in lines[0])
            assert ("tau*sigma*lambda_schur="
                    f"{0.5 * 0.25 * res['lambda_schur']:.3f}" in lines[0])


def test_spot_values_against_reference_counts():
    # reference iteration counts: normal smoother k=5 beta=1e4 gives
    # n=22, q=0.388; uzawa k=5 beta=1e6 gives n=7, q=0.043.  Accept wide
    # neighborhoods of the same kind as the acceptance gates.
    cache = _HierarchyCache(5)
    grid = ExperimentGrid(
        levels=[5],
        betas=[1e4],
        configs=[CycleConfig(smoother=SmootherConfig())],
    )
    row = run_table(grid, cache=cache)[0]
    assert row.converged
    assert 11 <= row.n <= 44
    assert 0.2 <= row.q <= 0.6

    grid = ExperimentGrid(
        levels=[5],
        betas=[1e6],
        configs=[CycleConfig(smoother=SmootherConfig(kind="uzawa"))],
    )
    row = run_table(grid, cache=cache)[0]
    assert row.converged
    assert 3 <= row.n <= 14
    assert row.q <= 0.25
