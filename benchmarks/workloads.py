"""The three workloads and the measurement loop behind `run.py`.

Every workload goes through `stokesmg.bench.run_table` with a fresh
`_HierarchyCache` carrying the seeded fields, so set-up is everything from
the cache's construction to the first cycle.  A round is one set-up plus
its solves; a run repeats whole rounds until its time is up.  The
single-solve workloads then solve again on the same hierarchy, so that
`solve_s` is a median of several solves in one process.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import scipy

import stokesmg
from stokesmg import bench
from stokesmg.multigrid import CycleConfig, Multigrid
from stokesmg.smoother import SmootherConfig

import oracle
import summary
from fields import BumpField
from spans import Tracer

# CSR matvecs of one sweep: (A, B^T, B).  The Uzawa sweep applies A and
# B^T in both velocity substeps and B once; the normal-equation sweep
# applies the full saddle operator twice.
MATVECS_PER_SWEEP = {"uzawa": (2, 2, 1), "normal_equation": (2, 2, 2)}


@dataclass(frozen=True)
class Workload:
    name: str
    levels: tuple
    betas: tuple
    smoother: str
    cycle: str
    solves_per_round: int

    def grid(self):
        config = CycleConfig(smoother=SmootherConfig(kind=self.smoother),
                             cycle=self.cycle, nu_pre=3, nu_post=3)
        return bench.ExperimentGrid(levels=list(self.levels),
                                    betas=list(self.betas), configs=[config])


WORKLOADS = {
    w.name: w
    for w in [
        Workload("w-uzawa-l6", (6,), (1.0,), "uzawa", "W", 2),
        Workload("v-normal-l6", (6,), (0.0,), "normal_equation", "V", 2),
        Workload("table-uzawa-l5", (4, 5), tuple(bench.BETA_TABLE), "uzawa",
                 "W", 1),
    ]
}


@dataclass
class Cell:
    """One solve as the program ran it, with its final iterate."""

    mg: Multigrid
    level: int
    rhs: np.ndarray
    x_star: np.ndarray
    report: object
    x: np.ndarray
    seconds: float


class Recorder:
    """Keeps the inputs, final iterate and wall time of every
    `Multigrid.solve`, which returns only a report; `mg_cycle` is wrapped
    to see the iterate it returns last."""

    def __init__(self):
        self.cells = []
        self._last = None
        self._originals = {}

    def install(self):
        solve, cycle = Multigrid.solve, Multigrid.mg_cycle
        self._originals = {"solve": solve, "mg_cycle": cycle}

        def mg_cycle(mg, level, x, rhs):
            x = cycle(mg, level, x, rhs)
            self._last = x
            return x

        def timed_solve(mg, level, rhs, x_star, **kwargs):
            self._last = None
            start = time.perf_counter()
            report = solve(mg, level, rhs, x_star, **kwargs)
            seconds = time.perf_counter() - start
            self.cells.append(
                Cell(mg, level, rhs, x_star, report, self._last, seconds)
            )
            return report

        Multigrid.mg_cycle, Multigrid.solve = mg_cycle, timed_solve

    def uninstall(self):
        for attr, fn in self._originals.items():
            setattr(Multigrid, attr, fn)

    def take(self):
        cells, self.cells = self.cells, []
        return cells


@dataclass
class Round:
    setup_s: float
    wall_s: float  # set-up plus the first table (one solve, or all cells)
    solve_samples: list
    cycles: int  # of the table: one solve, or summed over its cells
    solve_cycles: list  # of every solve, repeats included
    cells: list  # dropped once checked, which frees the hierarchy


def run_round(workload, field, recorder, repeats, tracer=None):
    """One fresh hierarchy, the workload's table, and `repeats - 1` more
    solves of its first cell on the same hierarchy."""
    solution = bench.ExactSolution(phi=field.bump, velocity=field.velocity,
                                   pressure=field.pressure)
    grid = workload.grid()
    with tracer if tracer is not None else nullcontext():
        start = time.perf_counter()
        cache = bench._HierarchyCache(max(workload.levels), solution=solution)
        bench.run_table(grid, cache=cache)
        wall = time.perf_counter() - start
        cells = recorder.take()
        first = cells[0]
        for _ in range(repeats - 1):
            first.mg.solve(first.level, first.rhs, first.x_star,
                           tol=grid.tol, max_iter=grid.max_iter)
    table_s = sum(c.seconds for c in cells)
    repeated = recorder.take()
    if len(cells) == 1:
        samples = [table_s] + [c.seconds for c in repeated]
    else:
        samples = [table_s]
    return Round(setup_s=wall - table_s, wall_s=wall, solve_samples=samples,
                 cycles=sum(c.report.n for c in cells),
                 solve_cycles=[c.report.n for c in cells + repeated],
                 cells=cells + repeated)


def check_round(rnd):
    """Independent checks of every cell; returns (failed, messages)."""
    failed, messages, ops = 0, [], {}
    by_level = {}
    for cell in rnd.cells:
        if not cell.report.converged:
            failed += 1
            continue
        system = cell.mg.systems[cell.level]
        op = ops.get(id(system))
        if op is None:
            op = ops[id(system)] = oracle.Operator(system)
        messages += oracle.check_cell(op, cell.rhs, cell.x_star, cell.x,
                                      cell.report)
        by_level.setdefault(cell.level, {})[system.params.beta] = cell.report.n
    messages += oracle.check_beta_robustness(
        {k: list(v.values()) for k, v in by_level.items()}
    )
    return failed, messages


def sweep_bytes(cells, smoother):
    """Computed CSR bytes one sweep streams, per level (as a string key):
    index, pointer and value arrays of each matrix times its matvecs per
    sweep."""
    per_level = {}
    for cell in cells:
        for k, s in enumerate(cell.mg.systems):
            mats = (s.A, s.Bt, s.B)
            per_level[str(k)] = sum(
                n * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
                for n, m in zip(MATVECS_PER_SWEEP[smoother], mats)
            )
    return per_level


def working_set(cell, smoother, llc):
    """Finest-level CSR footprint against the last-level cache, and the
    matvecs per sweep."""
    s = cell.mg.systems[cell.level]
    mats = {"A": s.A, "Bt": s.Bt, "B": s.B}
    footprint = {
        k: {"nnz": int(m.nnz),
            "bytes": int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)}
        for k, m in mats.items()
    }
    total = sum(v["bytes"] for v in footprint.values())
    return {
        "level": cell.level,
        "n": int(s.n),
        "csr": footprint,
        "csr_bytes": total,
        "llc_bytes": llc,
        "csr_over_llc": total / llc if llc else None,
        "matvecs_per_sweep": dict(zip(("A", "Bt", "B"),
                                      MATVECS_PER_SWEEP[smoother])),
    }


def _read_first(path, prefix=""):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip()
    except OSError:
        pass
    return None


def _size_bytes(text):
    if not text:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _read_first("/proc/cpuinfo", "model name") or platform.machine(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "llc_bytes": _size_bytes(
            _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size")
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "stokesmg": os.path.dirname(stokesmg.__file__),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def measure(name, seed, seconds, trace, trace_path=None):
    """Run whole rounds of a workload for `seconds` and return the result
    object: end-to-end metrics untraced, per-layer metrics traced."""
    workload = WORKLOADS[name]
    env = environment()
    field = BumpField(seed)
    recorder = Recorder()
    recorder.install()
    tracer = Tracer(stokesmg) if trace else None
    rounds, traced, messages = [], [], []
    work = peak_mb = None
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            # a traced run alternates untraced and traced rounds of one
            # solve each, so both sides of trace.overhead_s match
            tracing = trace and (len(rounds) + len(traced)) % 2 == 1
            lo = len(tracer) if tracing else 0
            gc.collect()
            rnd = run_round(workload, field, recorder,
                            1 if trace else workload.solves_per_round,
                            tracer if tracing else None)
            if tracing:
                traced.append((rnd, lo, len(tracer)))
            else:
                rounds.append(rnd)
            if peak_mb is None:
                # the high-water mark of set-up and solves alone, read
                # before the checks allocate operators of their own
                peak_mb = peak_rss_mb()
            attempted += len(rnd.cells)
            bad, msgs = check_round(rnd)
            failed += bad
            messages += msgs
            if work is None:
                finest = max(rnd.cells, key=lambda c: c.level)
                work = working_set(finest, workload.smoother, env["llc_bytes"])
                work["sweep_bytes"] = sweep_bytes(rnd.cells, workload.smoother)
            rnd.cells = []
            _log(f"{name} seed={seed} round {len(rounds) + len(traced)}"
                 f"{' traced' if tracing else ''}: setup {rnd.setup_s:.3f} s, "
                 f"solves {[round(s, 3) for s in rnd.solve_samples]} s, "
                 f"{rnd.cycles} cycles")
            # stop where one more round would end further past `seconds`
            # than this one ends before it, so runs last about `seconds`
            now = time.perf_counter()
            if (now - start + 0.5 * (now - round_start) >= seconds
                    and (not trace or traced)):
                break
    finally:
        recorder.uninstall()

    every = rounds + [t[0] for t in traced]
    cycles = {r.cycles for r in every}
    if len(workload.levels) * len(workload.betas) == 1:
        cycles |= {n for r in every for n in r.solve_cycles}
    if len(cycles) != 1:
        messages.append(f"cycle counts differ between rounds: {cycles}")
    for msg in messages:
        _log(f"CHECK FAILED: {msg}")

    print_json({"env": env})
    print_json({"work": work})
    if trace:
        data = {
            "workload": name,
            "seed": seed,
            "names": tracer.names,
            "sweep_bytes": work["sweep_bytes"],
            "untraced_solve_s": [s for r in rounds for s in r.solve_samples],
            "traced_solve_s": [s for t in traced for s in t[0].solve_samples],
            "rounds": [tracer.columns(lo, hi) for _, lo, hi in traced],
        }
        if trace_path is not None:
            summary.save(data, trace_path)
        metrics = summary.per_layer_metrics(data)
    else:
        solve_s = statistics.median(s for r in rounds for s in r.solve_samples)
        n = rounds[0].cycles
        metrics = {
            "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
            "solve_s": (solve_s, "s"),
            "time_to_solution_s": (
                statistics.median(r.wall_s for r in rounds), "s"),
            "cycles": (n, "count"),
            "cycle_ms": (1e3 * solve_s / n, "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    return {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_json(obj):
    print(json.dumps(obj), flush=True)
