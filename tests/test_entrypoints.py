"""What needs a fresh interpreter: the README's library quickstart,
`python -m`, and which commands load numpy."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import prerecord

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


_COMMANDS_THEN_REPORT = """
import json, sys
from medsum.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def run_commands(argvs, cwd):
    """Exit codes of `medsum` commands run in one fresh interpreter, and
    whether numpy was loaded when they were done."""
    result = run_python(["-c", _COMMANDS_THEN_REPORT, json.dumps(argvs)], cwd=cwd)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    return report["codes"], report["numpy"]


def test_only_selection_and_embedding_load_numpy(tmp_path):
    """`validate`, `eval --verifier exact` and `review-packets` never load
    numpy; `run` with random selection does, to draw its examples."""
    dataset, pools = ROOT / "sample_data" / "encounters.jsonl", ROOT / "sample_data" / "pools.jsonl"
    store, config, records = tmp_path / "store.jsonl", tmp_path / "config.json", tmp_path / "r.jsonl"
    prerecord(store, dataset, pools)
    config.write_text(json.dumps({"pools": str(pools), "selection_mode": "random"}))
    run = ["run", str(dataset), str(records), "--config", str(config), "--replay-store", str(store)]
    assert run_commands([run], tmp_path) == ([0], True)

    scoring = [
        ["validate", str(dataset)],
        ["eval", str(records), str(dataset), "--verifier", "exact"],
        ["review-packets", str(records), str(records), str(tmp_path / "review")],
    ]
    assert run_commands(scoring, tmp_path) == ([0, 0, 0], False)


def test_pools_that_is_not_a_string_exits_1(tmp_path):
    """`"pools": true` is refused before it reaches `open()`, which would
    take it for file descriptor 1 and read the example pools from stdout."""
    store, config, output = tmp_path / "store.jsonl", tmp_path / "config.json", tmp_path / "o.jsonl"
    store.write_text("")
    config.write_text(json.dumps({"pools": True}))
    dataset = ROOT / "sample_data" / "encounters.jsonl"
    argv = ["run", str(dataset), str(output), "--config", str(config), "--replay-store", str(store)]
    result = run_python(["-m", "medsum", *argv], stdin=subprocess.DEVNULL)
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "error: bad run configuration: pools is not a string: True\n"
    )
    assert not output.exists()
