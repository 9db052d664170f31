"""Per-layer table of a traced run's span file.

    python3 benchmarks/summary.py benchmarks/out/spans-w-uzawa-l6-seed1.json

prints, per traced round (one set-up plus one solve, or one whole table),
the calls, total and self time of every traced function, smoothing time
and calls per level, how the self times of each module account for the
traced `solve_s`, and the tracing overhead.  A span's self time is its
duration minus the durations of its direct children.  `run.py --trace 1`
reports the medians over rounds of `per_layer_metrics` from the same data.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

import numpy as np

# smoothing levels counted down from the finest level of each solve; the
# remaining coarser levels (1 up to finest - 3) are grouped as "coarse"
DEPTHS = ("fine", "fine-1", "fine-2", "coarse")


def save(data, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(data, f)


def load(path):
    with open(path) as f:
        return json.load(f)


class RoundSpans:
    """Spans of one traced round as arrays, with self times."""

    def __init__(self, cols, names):
        self.names = names
        self.name = np.asarray(cols["name"], dtype=int)
        self.parent = np.asarray(cols["parent"], dtype=int)
        self.level = np.asarray(cols["level"], dtype=int)
        self.dur = np.asarray(cols["end"]) - np.asarray(cols["start"])
        has = self.parent >= 0
        child = np.bincount(self.parent[has], weights=self.dur[has],
                            minlength=self.dur.size)
        self.self_time = self.dur - child

    def _id(self, name):
        return self.names.index(name)

    def calls(self, name):
        return int(np.count_nonzero(self.name == self._id(name)))

    def total(self, name):
        return float(self.dur[self.name == self._id(name)].sum())

    def self_total(self, name):
        return float(self.self_time[self.name == self._id(name)].sum())

    def steps(self):
        """(level, depth below the solve's finest level, duration) of
        every smoother step; a step's parent is always its mg_cycle."""
        idx = np.flatnonzero(self.name == self._id("smoother.step"))
        parents = self.parent[idx]
        if np.any(self.name[parents] != self._id("multigrid.mg_cycle")):
            raise ValueError("smoother step outside an mg_cycle span")
        level = self.level[idx]
        return level, self.level[parents] - level, self.dur[idx]

    def subtree_end(self):
        """Index one past the last descendant of each span (spans are in
        call order, so each subtree is contiguous)."""
        end = np.arange(1, self.dur.size + 1)
        for j in range(self.dur.size - 1, -1, -1):
            p = self.parent[j]
            if p >= 0 and end[j] > end[p]:
                end[p] = end[j]
        return end

    def solve_accounting(self):
        """Self time per module inside the round's solve spans, and the
        solves' total duration it must add up to."""
        solve_id = self._id("multigrid.solve")
        end = self.subtree_end()
        by_module, total = {}, 0.0
        for i in np.flatnonzero(self.name == solve_id):
            total += self.dur[i]
            sub = slice(i, end[i])
            for nid, t in zip(self.name[sub], self.self_time[sub]):
                module = self.names[nid].split(".")[0]
                by_module[module] = by_module.get(module, 0.0) + t
        return by_module, total


def round_metrics(spans, sweep_bytes):
    """Per-layer metrics of one traced round."""
    m = {}
    for metric, name in [
        ("mesh.build_hierarchy_s", "mesh.build_hierarchy"),
        ("assembly.spaces_s", "assembly.spaces"),
        ("assembly.build_system_s", "assembly.build_system"),
        ("assembly.l2_project_s", "assembly.l2_project"),
        ("assembly.manufactured_rhs_s", "assembly.manufactured_rhs"),
        ("assembly.residual_s", "assembly.residual"),
        ("transfer.build_prolongation_s", "transfer.build_prolongation"),
        ("transfer.restrict_s", "transfer.restrict"),
        ("transfer.prolongate_s", "transfer.prolongate"),
        ("smoother.build_scaling_s", "smoother.build_scaling"),
        ("multigrid.init_s", "multigrid.init"),
        ("multigrid.error_norm_s", "multigrid.error_norm"),
        ("multigrid.project_pressure_s", "multigrid.project_pressure"),
        ("sparse.factor_s", "sparse.factor"),
        ("sparse.coarse_solve_s", "sparse.coarse_solve"),
    ]:
        m[metric] = spans.total(name)
    m["multigrid.cycle_self_s"] = spans.self_total("multigrid.mg_cycle")
    m["bench.run_table_self_s"] = spans.self_total("bench.run_table")
    m["assembly.build_system_calls"] = spans.calls("assembly.build_system")
    m["assembly.residual_calls"] = spans.calls("assembly.residual")
    m["transfer.calls"] = (spans.calls("transfer.restrict")
                           + spans.calls("transfer.prolongate"))
    m["sparse.factor_calls"] = spans.calls("sparse.factor")
    m["sparse.coarse_solve_calls"] = spans.calls("sparse.coarse_solve")
    level, depth, dur = spans.steps()
    group = np.minimum(depth, len(DEPTHS) - 1)
    for g, label in enumerate(DEPTHS):
        m[f"smoother.step_s.{label}"] = float(dur[group == g].sum())
        m[f"smoother.step_calls.{label}"] = int(np.count_nonzero(group == g))
    m["smoother.bytes_computed"] = int(
        sum(sweep_bytes[str(k)] for k in level.tolist())
    )
    return m


def unit_of(metric):
    if "calls" in metric:
        return "count"
    if "bytes" in metric:
        return "B"
    return "s"


def overhead(data):
    """Median over pairs of rounds of the traced solve minus the untraced
    solve of the round just before it; neighbouring rounds share most of
    the machine's slow drift in speed."""
    pairs = zip(data["untraced_solve_s"], data["traced_solve_s"])
    return statistics.median(t - u for u, t in pairs)


def per_layer_metrics(data):
    """Medians over traced rounds, plus the tracing overhead."""
    rounds = [RoundSpans(c, data["names"]) for c in data["rounds"]]
    per_round = [round_metrics(r, data["sweep_bytes"]) for r in rounds]
    out = {}
    for k in per_round[0]:
        unit = unit_of(k)
        # counts repeat exactly; median_low keeps them whole
        median = statistics.median if unit == "s" else statistics.median_low
        out[k] = (median(m[k] for m in per_round), unit)
    out["trace.overhead_s"] = (overhead(data), "s")
    return out


def print_table(data):
    rounds = [RoundSpans(c, data["names"]) for c in data["rounds"]]
    k = len(rounds)
    print(f"{data['workload']} seed={data['seed']}: {k} traced round(s); "
          "figures are means per round")
    print(f"{'span':30s} {'calls':>9s} {'total s':>10s} {'self s':>10s}")
    for name in data["names"]:
        calls = sum(r.calls(name) for r in rounds) / k
        if calls:
            total = sum(r.total(name) for r in rounds) / k
            own = sum(r.self_total(name) for r in rounds) / k
            print(f"{name:30s} {calls:9.1f} {total:10.4f} {own:10.4f}")
    print("\nsmoothing per level")
    print(f"{'level':>5s} {'calls':>9s} {'total s':>10s}")
    steps = [r.steps() for r in rounds]
    levels = sorted({int(v) for lv, _, _ in steps for v in lv})
    for lv in levels:
        calls = sum(np.count_nonzero(s[0] == lv) for s in steps) / k
        total = sum(s[2][s[0] == lv].sum() for s in steps) / k
        print(f"{lv:5d} {calls:9.1f} {total:10.4f}")
    print("\nself time inside the solves, by module")
    for r in rounds:
        by_module, total = r.solve_accounting()
        parts = ", ".join(f"{m} {t:.4f}" for m, t in sorted(by_module.items()))
        print(f"  {parts}; sum {sum(by_module.values()):.4f} s "
              f"= traced solve_s {total:.4f} s")
    pairs = zip(data["untraced_solve_s"], data["traced_solve_s"])
    print("\ntrace.overhead_s = median of traced minus untraced solve over "
          + ", ".join(f"({t:.4f} - {u:.4f})" for u, t in pairs)
          + f" = {overhead(data):+.4f} s")
    print("\nper-layer metrics (medians over rounds)")
    for name, (value, unit) in per_layer_metrics(data).items():
        print(f"  {name:32s} {value:14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spans", help="span file written by run.py --trace 1")
    print_table(load(parser.parse_args(argv).spans))


if __name__ == "__main__":
    main()
