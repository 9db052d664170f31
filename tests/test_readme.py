"""The documented library usage in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    n, q, converged = capsys.readouterr().out.split()
    assert converged == "True"
    assert 0 < int(n) < 200 and 0.0 < float(q) < 1.0
