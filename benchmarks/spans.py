"""Spans around calls into stokesmg's public functions, kept in memory.

A `Tracer` replaces each traced function or method by a wrapper that
appends one span (name, start, end, parent, level) per call, in call
order, so the spans of one call tree are contiguous and every span's
parent precedes it.  Module-level functions are replaced under every name
that refers to them in the package (`multigrid` imports `smoother_step`,
`bench` imports `build_system`, ...), and `uninstall` restores the
originals.  Nothing is written until the caller asks for `columns()`.
"""

from __future__ import annotations

import functools
import time


def _space_level(space):
    return space.level.level_index


def _system_level(system):
    return system.space.level.level_index


# span name -> (module, owner, attribute, level of the call from its args);
# owner None means a module-level function.
TARGETS = {
    "mesh.build_hierarchy": ("mesh", None, "build_hierarchy", lambda a: a[0]),
    "assembly.spaces": (
        "assembly", "TaylorHoodSpace", "__init__", lambda a: a[1].level_index
    ),
    "assembly.build_system": (
        "assembly", None, "build_system", lambda a: _space_level(a[0])
    ),
    "assembly.l2_project": (
        "assembly", None, "l2_project", lambda a: _space_level(a[0])
    ),
    "assembly.manufactured_rhs": (
        "assembly", None, "manufactured_rhs", lambda a: _system_level(a[0])
    ),
    "assembly.residual": (
        "assembly", "SaddleSystem", "residual", lambda a: _system_level(a[0])
    ),
    "assembly.dense": (
        "assembly", "SaddleSystem", "dense", lambda a: _system_level(a[0])
    ),
    "transfer.build_prolongation": (
        "transfer", None, "build_prolongation", lambda a: _space_level(a[1])
    ),
    "transfer.restrict": ("transfer", None, "restrict", None),
    "transfer.prolongate": ("transfer", None, "prolongate", None),
    "smoother.build_scaling": (
        "smoother", None, "build_scaling", lambda a: _system_level(a[0])
    ),
    "smoother.step": (
        "smoother", None, "smoother_step", lambda a: _system_level(a[0])
    ),
    "multigrid.init": ("multigrid", "Multigrid", "__init__", None),
    "multigrid.solve": ("multigrid", "Multigrid", "solve", lambda a: a[1]),
    "multigrid.mg_cycle": ("multigrid", "Multigrid", "mg_cycle", lambda a: a[1]),
    "multigrid.error_norm": (
        "multigrid", "Multigrid", "error_norm", lambda a: a[1]
    ),
    "multigrid.project_pressure": (
        "multigrid", "Multigrid", "project_pressure", lambda a: a[1]
    ),
    "sparse.factor": ("sparse", "DenseFactorization", "__init__", None),
    "sparse.coarse_solve": ("sparse", "DenseFactorization", "solve", None),
    "bench.run_table": ("bench", None, "run_table", None),
}


class Tracer:
    """Records one span per call of every function in `TARGETS`."""

    def __init__(self, package):
        self.package = package
        self.names = list(TARGETS)
        self.name, self.start, self.end = [], [], []
        self.parent, self.level = [], []
        self._open = [-1]
        self._patches = []

    def __len__(self):
        return len(self.start)

    def _wrap(self, fn, name_id, level_of):
        names, starts, ends = self.name, self.start, self.end
        parents, levels, open_ = self.parent, self.level, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(open_[-1])
            levels.append(-1 if level_of is None else level_of(args))
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return traced

    def install(self):
        modules = [
            getattr(self.package, m)
            for m in ("mesh", "assembly", "transfer", "smoother", "multigrid",
                      "sparse", "bench")
        ]
        for name_id, (module, owner, attr, level_of) in enumerate(
            TARGETS.values()
        ):
            home = getattr(self.package, module)
            if owner is not None:
                cls = getattr(home, owner)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(original, name_id, level_of))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name_id, level_of)
            for mod in [self.package] + modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def columns(self, lo=0, hi=None):
        """Spans [lo, hi) as plain lists, parents relative to lo."""
        hi = len(self) if hi is None else hi
        return {
            "name": self.name[lo:hi],
            "start": self.start[lo:hi],
            "end": self.end[lo:hi],
            "parent": [p - lo if p >= lo else -1 for p in self.parent[lo:hi]],
            "level": self.level[lo:hi],
        }
