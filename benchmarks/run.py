"""Benchmark of the stokesmg solver: time to solution, set-up and per-layer
traces over three multigrid workloads.

    python3 benchmarks/run.py --workload w-uzawa-l6 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py                    # every workload, one process each

Run from the root of a source checkout; the package is imported from its
`src/` directory, not from an installed copy.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`, which also writes the spans to `benchmarks/out/`.
See benchmarks/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported: unpinned,
# OpenBLAS starts a thread per core that contends with the solver itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("w-uzawa-l6", "v-normal-l6", "table-uzawa-l5")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; whole rounds run for about "
                        "this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    width = max(len(m) for r in results.values() for m in r["metrics"])
    for name, res in results.items():
        print(f"\n{name}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:{width}s} {v['value']:14.6g} {v['unit']}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stokesmg" / "__init__.py").is_file():
        print(f"no stokesmg sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads

    if Path(workloads.stokesmg.__file__).parent != SRC / "stokesmg":
        print(f"stokesmg was imported from {workloads.stokesmg.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    trace_path = None
    if args.trace:
        trace_path = str(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    result = workloads.measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), trace_path)
    workloads.print_json(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
