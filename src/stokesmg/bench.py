"""Benchmark runner: iteration counts and convergence rates over
parameter grids, emitted as CSV or markdown tables.

The test problem is a rotational velocity field with a radial cutoff bump
around the square's center (the bump is 1 inside radius 1/4 and 0 outside
radius 1/2, so the velocity vanishes on the boundary) and the bump itself
as pressure.  Right-hand sides are manufactured so the discrete solution
on each level is the L2 projection of those fields; iteration counts then
measure pure solver behavior, free of discretization error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from dataclasses import dataclass

import numpy as np

from .assembly import (
    ProblemParams,
    TaylorHoodSpace,
    build_system,
    l2_project,
    manufactured_rhs,
)
from .mesh import MAX_LEVEL, build_hierarchy
from .multigrid import CycleConfig, Multigrid
from .smoother import (
    SmootherConfig,
    build_scaling,
    check_damping_conditions,
    estimate_spectral_radius,
)
from .transfer import build_prolongation

BETA_TABLE = [0.0, 1e2, 1e4, 1e6, 1e8, 1e10]
NU_SWEEP = [1, 2, 3, 4, 8, 16]
DEFAULT_MAX_LEVEL = 6


def bump(x, y):
    """Radial cutoff: 1 within r <= 1/4 of the center, 0 for r >= 1/2."""
    r = np.hypot(x - 0.5, y - 0.5)
    return np.clip(2.0 - 4.0 * r, 0.0, 1.0)


def exact_velocity(x, y):
    """Rotational field scaled by the cutoff bump; zero on the boundary."""
    phi = bump(x, y)
    return phi * (y - 0.5), phi * (0.5 - x)


def exact_pressure(x, y):
    return bump(x, y)


@dataclass(frozen=True)
class ExactSolution:
    phi: callable = bump
    velocity: callable = exact_velocity
    pressure: callable = exact_pressure


@dataclass
class ExperimentGrid:
    """Cartesian experiment plan: every (level, beta, config) cell runs one
    measured solve."""

    levels: list[int]
    betas: list[float]
    configs: list[CycleConfig]
    tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self):
        if not self.levels:
            raise ValueError("experiment grid needs at least one level")
        if not self.betas:
            raise ValueError("experiment grid needs at least one beta")
        if not self.configs:
            raise ValueError("experiment grid needs at least one cycle config")
        if min(self.levels) < 1:
            raise ValueError("solver levels start at 1")


@dataclass
class TableRow:
    level: int
    beta: float
    smoother: str
    nu_pre: int
    nu_post: int
    n: int
    q: float
    converged: bool
    wall_time_ms: float
    # why the solve stopped, as SolveReport.stop_reason has it
    stop_reason: str


class _HierarchyCache:
    """Shared meshes, spaces, transfers and per-beta systems for one grid.

    Spaces and transfers are beta-independent; the projected target
    solution per level is too.  Each space assembles its stiffness, masses,
    divergence and saddle pattern once, so the systems of every beta share
    them and a new beta only adds the data array of its saddle matrix.
    """

    def __init__(self, max_level, solution=ExactSolution()):
        self.spaces = [TaylorHoodSpace(mesh)
                       for mesh in build_hierarchy(max_level)]
        self.transfers = [None] + [
            build_prolongation(self.spaces[k - 1], self.spaces[k])
            for k in range(1, len(self.spaces))
        ]
        self.solution = solution
        self._systems = {}
        self._targets = {}

    def systems(self, beta, up_to_level):
        levels = self._systems.setdefault(beta, [])
        params = ProblemParams(beta=beta)
        while len(levels) <= up_to_level:
            levels.append(build_system(self.spaces[len(levels)], params))
        return levels[: up_to_level + 1]

    def target(self, level):
        if level not in self._targets:
            self._targets[level] = l2_project(
                self.spaces[level],
                self.solution.velocity,
                self.solution.pressure,
            )
        return self._targets[level]


def run_table(grid: ExperimentGrid, cache=None, progress=None):
    """Run every cell of the grid and collect result rows.

    Deterministic: there is no randomness anywhere in a solve, so repeated
    runs return identical iteration counts and rates.
    """
    top = max(grid.levels)
    cache = cache or _HierarchyCache(top)
    rows = []
    for config in grid.configs:
        for beta in grid.betas:
            # one Multigrid per (config, beta) serves every level, so its
            # scalings, level-0 factorization and level-1 map are built once
            systems = cache.systems(beta, top)
            mg = Multigrid(systems, cache.transfers[: top + 1], config)
            for level in grid.levels:
                u_star, p_star = cache.target(level)
                x_star = systems[level].join(u_star, p_star)
                rhs = manufactured_rhs(systems[level], (u_star, p_star))
                start = time.perf_counter()
                report = mg.solve(
                    level, rhs, x_star, tol=grid.tol, max_iter=grid.max_iter
                )
                elapsed_ms = 1e3 * (time.perf_counter() - start)
                row = TableRow(
                    level=level,
                    beta=beta,
                    smoother=config.smoother.kind,
                    nu_pre=config.nu_pre,
                    nu_post=config.nu_post,
                    n=report.n,
                    q=report.q,
                    converged=report.converged,
                    wall_time_ms=elapsed_ms,
                    stop_reason=report.stop_reason,
                )
                rows.append(row)
                if progress is not None:
                    progress(row)
    return rows


CSV_HEADER = ("level,beta,smoother,nu_pre,nu_post,n,q,converged,wall_time_ms,"
              "stop_reason")


def _emit_csv(rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in rows:
        writer.writerow(
            [
                r.level,
                f"{r.beta:g}",
                r.smoother,
                r.nu_pre,
                r.nu_post,
                r.n,
                f"{r.q:.3f}",
                "true" if r.converged else "false",
                f"{r.wall_time_ms:.1f}",
                r.stop_reason,
            ]
        )
    return out.getvalue()


def _cells(row):
    """The (n, q) cells of a markdown table: a solve cut off at max_iter
    shows its rate, a diverged or non-finite one is "divergent"."""
    if row.converged:
        return str(row.n), f"{row.q:.3f}"
    if row.stop_reason == "max_iter":
        return "max_iter", f"{row.q:.3f}"
    return "divergent", ""


def _emit_markdown(rows):
    """Pivot of the rows: a line per level (sorted) with an (n, q) column
    pair per beta (sorted) or, for a smoothing-step sweep, whose rows
    differ in (nu_pre, nu_post), a line per smoother (in order of first
    appearance) with a column pair per sorted (nu_pre, nu_post)."""
    if len({(r.nu_pre, r.nu_post) for r in rows}) > 1:
        corner, label = "smoother", "nu={0[0]}+{0[1]} n".format
        line = lambda r: r.smoother
        column = lambda r: (r.nu_pre, r.nu_post)
        keys = list(dict.fromkeys(map(line, rows)))
    else:
        corner, label = "k", "beta={:g} n".format
        line, column = (lambda r: r.level), (lambda r: r.beta)
        keys = sorted(set(map(line, rows)))
    columns = sorted(set(map(column, rows)))
    by_key = {(line(r), column(r)): r for r in rows}
    header = [corner]
    for c in columns:
        header += [label(c), "q"]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for key in keys:
        cells = [str(key)]
        for c in columns:
            row = by_key.get((key, c))
            cells += list(_cells(row)) if row else ["", ""]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def emit(rows, fmt):
    """Render result rows as "csv" or "markdown" text."""
    if fmt == "csv":
        return _emit_csv(rows)
    if fmt != "markdown":
        raise ValueError(f"unknown output format {fmt!r}")
    return _emit_markdown(rows) if rows else ""


_SMOOTHERS = {"normal": "normal_equation", "uzawa": "uzawa"}
_CYCLES = {"v": "V", "w": "W", "two-grid": "two_grid"}


def _grid(args):
    """The experiment grid of a parsed command line: the smoothing-step
    sweep at level min(4, max_level) and beta = 1, a beta table of one
    smoother over levels min(4, max_level)..max_level, or one custom run
    at max_level."""
    def config(smoother, nu_pre=args.nu_pre, nu_post=args.nu_post):
        return CycleConfig(
            smoother=SmootherConfig(kind=_SMOOTHERS[smoother], tau=args.tau,
                                    sigma=args.sigma),
            cycle=_CYCLES[args.cycle], nu_pre=nu_pre, nu_post=nu_post,
        )

    low = min(4, args.max_level)
    if args.table == "nu-sweep":
        levels, betas = [low], [1.0]
        configs = [config(name, nu, nu) for name in _SMOOTHERS
                   for nu in NU_SWEEP]
    elif args.table:
        levels, betas = list(range(low, args.max_level + 1)), list(BETA_TABLE)
        configs = [config(args.table)]
    else:
        levels, betas = [args.max_level], args.beta
        configs = [config(args.smoother)]
    return ExperimentGrid(levels=levels, betas=betas, configs=configs,
                          tol=args.tol, max_iter=args.max_iter)


def _option(kind, valid, requirement):
    """argparse type kind(text) for a value with valid(value), so that a
    value a run would fail on is one usage error, not a traceback."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    return parse


_LEVEL = _option(int, lambda k: 1 <= k <= MAX_LEVEL,
                 f"levels run from 1 to {MAX_LEVEL}")
_COUNT = _option(int, lambda n: n >= 0, "must be a nonnegative integer")
_ITERATIONS = _option(int, lambda n: n >= 1, "must be a positive integer")
_POSITIVE = _option(float, lambda v: v > 0.0, "must be positive")
_BETAS = _option(
    lambda text: [float(b) for b in text.split(",") if b.strip()],
    lambda betas: betas and all(0.0 <= b < np.inf for b in betas),
    "must be nonnegative finite numbers, comma-separated",
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stokesmg-bench",
        description="Run multigrid iteration-count experiments on the "
        "generalized Stokes problem.",
    )
    parser.add_argument("--table", choices=["nu-sweep", "normal", "uzawa"],
                        help="preset experiment; omit for a single custom run")
    parser.add_argument("--max-level", type=_LEVEL, default=DEFAULT_MAX_LEVEL,
                        help="finest level (default 6; levels 7-8 are "
                        "expensive and opt-in)")
    parser.add_argument("--beta", type=_BETAS, default="0",
                        help="comma-separated reaction coefficients")
    parser.add_argument("--smoother", choices=["normal", "uzawa"],
                        default="normal")
    parser.add_argument("--nu-pre", type=_COUNT, default=3)
    parser.add_argument("--nu-post", type=_COUNT, default=3)
    parser.add_argument("--cycle", choices=["v", "w", "two-grid"], default="w")
    parser.add_argument("--tau", type=_POSITIVE, default=None,
                        help="smoother damping (defaults: 0.35 normal, 0.8 uzawa)")
    parser.add_argument("--sigma", type=_POSITIVE, default=None,
                        help="uzawa pressure damping (default 0.8)")
    parser.add_argument("--tol", type=_POSITIVE, default=1e-9)
    parser.add_argument("--max-iter", type=_ITERATIONS, default=200)
    parser.add_argument("--format", choices=["csv", "markdown"],
                        default="markdown")
    parser.add_argument("--check-damping", action="store_true",
                        help="check the selected smoother's damping on "
                        "levels 1-3 before running")
    return parser


def _damping_report(args, out):
    """Check the damping the run uses on levels 1-3 for four beta.

    Normal equation: tau * rho(D^-1 A D^-1 A), which must stay below 2 for
    the damped iteration to contract.  Uzawa: the sufficient (not
    necessary) inequalities tau * lambda_max(Du^-1 A) <= 1 and
    tau * sigma * lambda_max(Dp^-1 B Du^-1 B^T) <= 1.
    """
    top = min(3, args.max_level)
    cache = _HierarchyCache(top)
    smoother = SmootherConfig(kind=_SMOOTHERS[args.smoother], tau=args.tau,
                              sigma=args.sigma)
    tau, sigma = smoother.tau, smoother.sigma
    for beta in (0.0, 1.0, 1e4, 1e10):
        for level, system in enumerate(cache.systems(beta, top)):
            if level == 0:
                continue
            scaling = build_scaling(system)
            if smoother.kind == "normal_equation":
                rho = tau * estimate_spectral_radius(system, scaling)
                check = f"tau*rho(D^-1 A D^-1 A)={rho:.3f} (ok={rho < 2.0})"
            else:
                res = check_damping_conditions(system, scaling, tau, sigma)
                check = (
                    f"tau*lambda_velocity="
                    f"{tau * res['lambda_velocity']:.3f} "
                    f"(ok={res['velocity_ok']}), "
                    f"tau*sigma*lambda_schur="
                    f"{tau * sigma * res['lambda_schur']:.3f} "
                    f"(ok={res['schur_ok']})"
                )
            out.write(f"damping level={level} beta={beta:g}: {check}\n")


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.check_damping:
        _damping_report(args, sys.stdout)

    rows = run_table(_grid(args))
    sys.stdout.write(emit(rows, args.format))
    return 2 if any(not r.converged for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
