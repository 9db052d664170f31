"""README.md: the documented library usage runs as written, and its
measured tables print what the solver does."""

import re
from pathlib import Path

import pytest

from stokesmg.bench import BETA_TABLE, ExperimentGrid, main, run_table
from stokesmg.multigrid import CycleConfig
from stokesmg.smoother import SmootherConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    n, q, converged = capsys.readouterr().out.split()
    assert converged == "True"
    assert 0 < int(n) < 200 and 0.0 < float(q) < 1.0


def measured_tables():
    """The tables under "Measured tables", in order, as lists of rows of
    stripped cells."""
    section = README.read_text().split("## Measured tables", 1)[1]
    section = section.split("\n## ", 1)[0]
    tables, table = [], []
    for line in section.splitlines() + [""]:
        if line.startswith("|"):
            cells = line.strip().strip("|").split("|")
            table.append([c.strip() for c in cells])
        elif table:
            tables.append(table)
            table = []
    return tables


@pytest.mark.parametrize("table, kind", [(0, "normal_equation"),
                                         (1, "uzawa")])
def test_readme_beta_tables_level4_rows(table, kind):
    # the level-4 and level-5 rows of each beta table, regenerated
    header, _, *rows = measured_tables()[table]
    config = CycleConfig(smoother=SmootherConfig(kind=kind), cycle="W",
                         nu_pre=3, nu_post=3)
    got = run_table(ExperimentGrid(levels=[4, 5], betas=list(BETA_TABLE),
                                   configs=[config]))
    for level in (4, 5):
        row = next(r for r in rows if r[0] == str(level))
        cells = [r for r in got if r.level == level]
        assert header[1::2] == [f"beta={r.beta:g} n" for r in cells]
        for r, n, q in zip(cells, row[1::2], row[2::2], strict=True):
            assert r.converged and r.n == int(n)
            assert abs(r.q - float(q)) <= 5e-4


@pytest.mark.parametrize("table, kind", [(0, "normal"), (1, "uzawa")])
def test_readme_beta_tables_print_as_in_readme(capsys, table, kind):
    # the header, rule and level-4 row of each beta table, as the CLI
    # prints them, byte for byte
    assert main(["--table", kind, "--max-level", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    readme = README.read_text().splitlines()
    starts = [i for i, line in enumerate(readme) if line == lines[0]]
    assert len(starts) == 2  # both beta tables have this header
    assert readme[starts[table]:starts[table] + 3] == lines
    assert lines[2].startswith("| 4 |")


def test_readme_nu_sweep_table_regenerates(capsys):
    # the whole smoothing-step sweep, as the CLI prints it, byte for byte;
    # its 1+1 and 2+2 Uzawa cells diverge, hence exit code 2
    assert main(["--table", "nu-sweep", "--max-level", "4"]) == 2
    lines = capsys.readouterr().out.splitlines()
    readme = README.read_text().splitlines()
    start = readme.index(lines[0])
    assert readme[start:start + len(lines) + 1] == lines + [""]
