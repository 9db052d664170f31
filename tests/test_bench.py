import csv
import io

import numpy as np
import pytest

from stokesmg.bench import (
    BETA_TABLE,
    CSV_HEADER,
    ExperimentGrid,
    TableRow,
    _HierarchyCache,
    _grid,
    build_parser,
    bump,
    emit,
    exact_pressure,
    exact_velocity,
    main,
    run_table,
)
from stokesmg.assembly import SetUpBlocks, manufactured_rhs
from stokesmg.multigrid import CycleConfig, Hierarchy, Multigrid, triple_norm
from stokesmg.smoother import (
    SmootherConfig,
    build_scaling,
    damping_margins,
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
    # a repeated level or beta would solve its cells twice
    with pytest.raises(ValueError, match="repeats level 2"):
        ExperimentGrid(levels=[2, 3, 2], betas=[0.0], configs=[cfg])
    with pytest.raises(ValueError, match="repeats beta 1"):
        ExperimentGrid(levels=[2], betas=[1.0, 0.0, 1.0], configs=[cfg])


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
        TableRow(4, 1.0, "uzawa", 1, 1, 200, 1.2, 10.0, "diverged"),
        TableRow(4, 1.0, "uzawa", 3, 3, 14, 0.2, 10.0, "converged"),
        TableRow(4, 1.0, "normal_equation", 1, 1, 88, 0.789, 10.0,
                 "converged"),
        TableRow(4, 1.0, "normal_equation", 3, 3, 30, 0.496, 10.0,
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
    (["--tau", "inf"], "--tau"),
    (["--sigma", "inf"], "--sigma"),
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


@pytest.mark.parametrize("argv, message", [
    (["--max-level", "2", "--smoother", "normal", "--sigma", "0.5"],
     "sigma"),
    (["--max-level", "2", "--table", "normal", "--sigma", "0.5"], "sigma"),
    (["--max-level", "6", "--cycle", "two-grid"],
     "exact solve on level 5 needs a dense factorization of dimension 36484"),
    # a table sets its betas and smoothers, the sweep its smoothing counts
    (["--max-level", "2", "--table", "uzawa", "--cycle", "two-grid",
      "--beta", "1"], "--beta does not apply to --table uzawa"),
    (["--max-level", "2", "--table", "normal", "--smoother", "normal"],
     "--smoother does not apply to --table normal"),
    (["--max-level", "2", "--table", "nu-sweep", "--beta", "0"],
     "--beta does not apply to --table nu-sweep"),
    (["--max-level", "2", "--table", "nu-sweep", "--smoother", "uzawa"],
     "--smoother does not apply to --table nu-sweep"),
    (["--max-level", "2", "--table", "nu-sweep", "--nu-pre", "3"],
     "--nu-pre does not apply to --table nu-sweep"),
    (["--max-level", "2", "--table", "nu-sweep", "--nu-post", "3"],
     "--nu-post does not apply to --table nu-sweep"),
    # a repeated beta would solve its cells twice
    (["--max-level", "2", "--beta", "1,1"], "repeats beta 1"),
])
def test_cli_reports_a_run_it_cannot_make_as_a_usage_error(capsys, argv,
                                                          message):
    # a ValueError from the library (a sigma for the normal-equation
    # smoother, a two-grid coarse solve too large to factor, met in the
    # first cycle) is one usage error line with exit code 2, not a traceback
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if "error" in ln]
    assert len(errors) == 1 and message in errors[0]
    assert errors[0].startswith("stokesmg-bench: error: ")
    assert "Traceback" not in captured.err


def test_cli_defaults_fill_options_left_out():
    # the options a table may reject default to None in the parser
    def cells(argv):
        grid = _grid(build_parser().parse_args(argv))
        return grid.betas, [(c.smoother.kind, c.nu_pre, c.nu_post)
                            for c in grid.configs]

    assert cells([]) == ([0.0], [("normal_equation", 3, 3)])
    assert cells(["--table", "uzawa", "--nu-pre", "2"]) == (
        BETA_TABLE, [("uzawa", 2, 3)])


def test_cli_nu_sweep_gives_sigma_to_its_uzawa_rows(capsys):
    argv = ["--table", "nu-sweep", "--max-level", "1", "--sigma", "0.5",
            "--format", "csv"]
    sigmas = {(c.smoother.kind, c.smoother.sigma)
              for c in _grid(build_parser().parse_args(argv)).configs}
    assert sigmas == {("normal_equation", None), ("uzawa", 0.5)}
    assert main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2 * 6


def test_cli_check_damping_builds_one_hierarchy(monkeypatch, capsys):
    built = []

    class Counted(_HierarchyCache):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("stokesmg.bench._HierarchyCache", Counted)
    assert main(["--max-level", "2", "--beta", "1", "--check-damping",
                 "--format", "csv"]) == 0
    assert len(built) == 1
    assert capsys.readouterr().out.startswith("damping ")


def test_cli_check_damping_sets_up_each_level_once(monkeypatch, capsys):
    # the check's four beta on levels 0-3 and the run's beta up to level 4
    # are built together: one set-up pass per level
    passes = []
    init = SetUpBlocks.__init__

    def counted(self, space, betas, *mass):
        passes.append(space.level.level_index)
        init(self, space, betas, *mass)

    monkeypatch.setattr(SetUpBlocks, "__init__", counted)
    assert main(["--max-level", "4", "--beta", "1", "--check-damping",
                 "--format", "csv"]) == 0
    assert sorted(passes) == [0, 1, 2, 3, 4]
    lines = capsys.readouterr().out.splitlines()
    assert len([ln for ln in lines if ln.startswith("damping ")]) == 3 * 4


def test_cli_check_damping(capsys):
    # each smoother is checked at the damping it is configured with
    system = Hierarchy(1).systems(0.0, 1)[1]
    scaling = build_scaling(system)
    for smoother, damping in (("normal", ["--tau", "0.3"]),
                              ("uzawa", ["--tau", "0.5", "--sigma", "0.25"])):
        code = main(["--max-level", "1", "--beta", "1", "--check-damping",
                     "--format", "csv", "--smoother", smoother, *damping])
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("damping")]
        assert len(lines) == 4  # level 1 for four beta
        kind = {"normal": "normal_equation", "uzawa": "uzawa"}[smoother]
        assert lines[0].startswith(f"damping smoother={kind} level=1 beta=0: ")
        if smoother == "normal":
            rho = 0.3 * estimate_spectral_radius(system, scaling)
            assert lines[0].endswith(
                f"tau*rho(D^-1 A D^-1 A)={rho:.3f} (ok=True)"
            )
        else:
            res = damping_margins(system, scaling, SmootherConfig(
                kind="uzawa", tau=0.5, sigma=0.25))
            velocity, schur = (res[name][0] for name in (
                "tau*lambda_velocity", "tau*sigma*lambda_schur"))
            assert f"tau*lambda_velocity={velocity:.3f}" in lines[0]
            assert f"tau*sigma*lambda_schur={schur:.3f}" in lines[0]


@pytest.mark.parametrize("table, kinds", [
    ("uzawa", ["uzawa"]),
    ("normal", ["normal_equation"]),
    ("nu-sweep", ["normal_equation", "uzawa"]),
])
def test_cli_check_damping_follows_the_table(capsys, table, kinds):
    # a preset picks its smoothers: each one the table runs is checked
    # once, in the order the table runs them, on level 1 for four beta,
    # before the table
    argv = ["--table", table, "--max-level", "1", "--format", "csv"]
    assert main(argv + ["--check-damping"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    checks = [ln for ln in lines if ln.startswith("damping ")]
    assert lines[:len(checks)] == checks
    want = [f"damping smoother={kind} level=1 beta={beta}: "
            for kind in kinds for beta in ("0", "1", "10000", "1e+10")]
    assert [ln[:len(w)] for ln, w in zip(checks, want)] == want
    assert len(checks) == len(want)
    for ln in checks:
        normal = ln.startswith("damping smoother=normal_equation")
        assert ("tau*rho(D^-1 A D^-1 A)=" in ln) == normal
        assert ("tau*lambda_velocity=" in ln) == (not normal)
    # the table after the checks prints as without them, wall times aside
    assert main(argv) == 0
    wall = CSV_HEADER.split(",").index("wall_time_ms")

    def timeless(lines):
        return [ln.split(",")[:wall] + ln.split(",")[wall + 1:]
                for ln in lines]

    assert timeless(lines[len(checks):]) == timeless(
        capsys.readouterr().out.splitlines())


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


def test_spaces_keep_no_set_up_block_after_the_table_is_built(monkeypatch):
    # run_table builds every beta of the grid level by level, from the
    # finest down, in one pass each: the set-up blocks (int16 numerators,
    # the saddle layout's mask) die with the pass, so a space holds its
    # node tables, its triangle classes, the most triangles at a node and
    # the two masses a solve reads, and nothing else; the blocks of each
    # level are assembled once
    from stokesmg import assembly

    passes = []
    original = assembly.SetUpBlocks.__init__

    def counted(self, space, betas, *mass):
        passes.append(space.level.level_index)
        original(self, space, betas, *mass)

    monkeypatch.setattr(assembly.SetUpBlocks, "__init__", counted)
    cache = _HierarchyCache(3)
    grid = ExperimentGrid(
        levels=[2, 3], betas=[0.0, 1.0, 1e10],
        configs=[CycleConfig(smoother=SmootherConfig(kind="uzawa"))])
    rows = run_table(grid, cache=cache)
    assert len(rows) == 6 and all(r.converged for r in rows)
    assert passes == [3, 2, 1, 0]
    for space in cache.spaces:
        held = []

        def collect(value):
            if isinstance(value, np.ndarray):
                held.append(value)
            elif hasattr(value, "indptr"):
                held.extend((value.data, value.indices, value.indptr))
            elif isinstance(value, (tuple, list)):
                for item in value:
                    collect(item)
            elif isinstance(value, dict):
                collect(list(value.values()))

        collect([v for k, v in vars(space).items() if k != "level"])
        # the velocity mass only on the levels solved on, and the pressure
        # mean's weights where a pressure mean is removed: on those levels
        # and in level 0's exact solves
        solved = space.level.level_index in grid.levels
        weighted = solved or space.level.level_index == 0
        assert set(vars(space)) == {
            "level", "n_p2", "interior_nodes", "n_interior",
            "interior_number", "n_pressure", "n_velocity",
            "_element_classes", "_most_triangles_at_a_node",
            "M_P"} | ({"M"} if solved else set()) | (
                {"pressure_weights"} if weighted else set())
        assert not any(a.dtype == np.int16 for a in held)
        # and no boundary flags
        assert [a for a in held if a.dtype == bool] == []
        assert ({id(a) for a in held if a.dtype == np.float64}
                == {id(m.data) for m in ([space.M] if solved else [])
                    + [space.M_P]}
                | ({id(space.pressure_weights)} if weighted else set()))


def test_run_table_builds_the_velocity_mass_on_solved_levels_only():
    # after a table on levels 4 and 5, levels 0-3 hold no velocity mass
    # until a norm reads it; the level-3 norm and M_U, and a level-4 solve,
    # then read the same bits as on a cache that built every level's mass
    config = CycleConfig(smoother=SmootherConfig(kind="uzawa"))
    cache = _HierarchyCache(5)
    run_table(ExperimentGrid(levels=[4, 5], betas=[1.0], configs=[config]),
              cache=cache)
    systems = cache.systems(1.0, 5)
    for level, (space, system) in enumerate(zip(cache.spaces, systems)):
        solved = level >= 4
        assert ("M" in vars(space)) == solved
        assert ("mass_product" in vars(system)) == solved
    full = _HierarchyCache(5)
    every = full.systems(1.0, 5)
    assert all("M" in vars(space) for space in full.spaces)
    x = np.random.default_rng(3).standard_normal(systems[3].n)
    assert triple_norm(x, systems[3]) == triple_norm(x, every[3])
    assert (systems[3].M_U != every[3].M_U).nnz == 0
    reports = [
        Multigrid(s, c.transfers, config).solve(
            4, manufactured_rhs(s[4], c.target(4)), c.target_vector(4))
        for c, s in ((cache, systems), (full, every))]
    assert reports[0].history == reports[1].history
    assert reports[0].x.tobytes() == reports[1].x.tobytes()


def test_a_later_table_reads_the_velocity_mass_of_its_solved_levels():
    # a table on a level an earlier one left without the velocity mass
    # builds it there on first use, and solves as a fresh cache does
    config = CycleConfig(smoother=SmootherConfig(kind="uzawa"))
    grid = ExperimentGrid(levels=[2, 3], betas=[1.0], configs=[config])
    cache = _HierarchyCache(3)
    run_table(ExperimentGrid(levels=[3], betas=[1.0], configs=[config]),
              cache=cache)
    assert "M" not in vars(cache.spaces[2])
    rows = run_table(grid, cache=cache)
    assert "M" in vars(cache.spaces[2])
    fresh = run_table(grid)
    assert [(r.n, r.q) for r in rows] == [(r.n, r.q) for r in fresh]
    assert all(r.converged for r in rows)


def test_table_cells_at_one_level_share_one_target(monkeypatch):
    # every cell at a level reads the cache's one x* = (u*, p*), of which
    # target's pair are views; no cell joins a copy of its own
    seen = []
    solve = Multigrid.solve

    def recording(mg, level, rhs, x_star, **kwargs):
        seen.append((level, x_star))
        return solve(mg, level, rhs, x_star, **kwargs)

    monkeypatch.setattr(Multigrid, "solve", recording)
    cache = _HierarchyCache(3)
    grid = ExperimentGrid(
        levels=[2, 3], betas=[0.0, 1.0, 1e4],
        configs=[CycleConfig(smoother=SmootherConfig(kind="uzawa")),
                 CycleConfig(smoother=SmootherConfig())])
    assert all(r.converged for r in run_table(grid, cache=cache))
    assert len(seen) == 12
    for level in (2, 3):
        x_star = cache.target_vector(level)
        assert {id(x) for k, x in seen if k == level} == {id(x_star)}
        u_star, p_star = cache.target(level)
        assert np.shares_memory(u_star, x_star)
        assert np.shares_memory(p_star, x_star)
        assert np.array_equal(np.concatenate([u_star, p_star]), x_star)
