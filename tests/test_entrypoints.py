"""The ways in that do not go through `cli.main` in-process: the README's
library quickstart and `python -m`."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, **kwargs
    )


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    result = run_python(["-c", code], cwd=ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


@pytest.mark.parametrize("module", ["medsum", "medsum.cli"])
def test_python_dash_m_validate(tmp_path, module):
    dataset = tmp_path / "d.jsonl"
    dataset.write_text("not json\n")
    result = run_python(["-m", module, "validate", str(dataset)])
    assert result.returncode == 1, result.stderr
    assert result.stdout.startswith("FAIL line 1: invalid JSON: ")
    assert "invalid lines: 1" in result.stdout
