"""What needs a fresh interpreter: the README's library quickstart,
`python -m`, which commands load numpy, and the CLI on other CPythons."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SIX_SECTION_SUMMARY, prerecord

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


def test_run_reports_each_failed_encounter_once(tmp_path):
    """Replaying `sample_data` against an empty store fails every encounter,
    and stderr holds one `FAIL <id>:` line for each, nothing more. Only a
    fresh interpreter shows a stray log line here: under pytest the logging
    plugin takes the record before Python's last-resort handler can write it."""
    dataset = ROOT / "sample_data" / "encounters.jsonl"
    store, config, output = tmp_path / "store.jsonl", tmp_path / "config.json", tmp_path / "o.jsonl"
    store.write_text("")
    config.write_text(json.dumps({"pools": str(ROOT / "sample_data" / "pools.jsonl")}))
    argv = ["run", str(dataset), str(output), "--config", str(config), "--replay-store", str(store)]
    result = run_python(["-m", "medsum", *argv], stdin=subprocess.DEVNULL)
    assert result.returncode == 2, result.stderr
    ids = [json.loads(line)["id"] for line in dataset.read_text(encoding="utf-8").splitlines()]
    lines = result.stderr.splitlines()
    assert len(lines) == len(ids), result.stderr
    for enc_id, line in zip(ids, lines):
        assert line.startswith(f"FAIL {enc_id}: encounter {enc_id}: rfe extraction failed: ")


_OTHER_PYTHONS = ["3.10", "3.12", "3.13"]


def _find_python(version):
    """A `python<version>` that starts and is that CPython: on PATH, or
    installed beside this interpreter (as pyenv lays versions out); None if
    none is. A pyenv shim for an inactive version exits 127, so it is not."""
    name = f"python{version}"
    on_path = [shutil.which(name, path=d) for d in os.environ.get("PATH", "").split(os.pathsep)]
    siblings = sorted(Path(sys.base_prefix).parent.glob(f"*/bin/{name}"))
    probe = (
        "import platform, sys; "
        "print('%d.%d' % sys.version_info[:2], platform.python_implementation())"
    )
    for exe in dict.fromkeys(str(p) for p in [*on_path, *siblings] if p):
        found = subprocess.run([exe, "-c", probe], capture_output=True, text=True, timeout=30)
        if found.returncode == 0 and found.stdout.split() == [version, "CPython"]:
            return exe
    return None


# `requests` made unimportable, so a run that imports it fails here too.
_WITHOUT_REQUESTS = """
import sys
sys.modules["requests"] = None
from medsum.cli import main
sys.exit(main(sys.argv[1:]))
"""


def record_naive_run(workdir, endpoint, python=None):
    """The exit code, output bytes and store bytes of `medsum run --method
    naive_baseline --backend record` over `sample_data` against `endpoint`
    (`summarization_k` 0, so no pools and no numpy), in this process, or
    under `python` with `requests` unimportable."""
    workdir.mkdir()
    config, output, store = workdir / "config.json", workdir / "out.jsonl", workdir / "store.jsonl"
    config.write_text(json.dumps({"endpoint": endpoint.url, "summarization_k": 0}))
    argv = ["run", str(ROOT / "sample_data" / "encounters.jsonl"), str(output), "--config",
            str(config), "--method", "naive_baseline", "--backend", "record", "--replay-store",
            str(store)]
    if python is None:
        from medsum.cli import main

        code = main(argv)
    else:
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        result = subprocess.run([python, "-c", _WITHOUT_REQUESTS, *argv], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.stderr == "", result.stderr
        code = result.returncode
    return code, output.read_bytes(), store.read_bytes()


@pytest.fixture
def summarizing_endpoint(loopback_endpoint):
    """The loopback endpoint, answering every prompt with a six-section summary."""
    loopback_endpoint.respond = lambda prompt: SIX_SECTION_SUMMARY
    return loopback_endpoint


def test_record_run_needs_no_requests(tmp_path, summarizing_endpoint):
    """A live run sends its calls over the standard library alone."""
    expected = record_naive_run(tmp_path / "here", summarizing_endpoint)
    assert expected[0] == 0 and expected[1].count(b"\n") == 3
    assert record_naive_run(tmp_path / "there", summarizing_endpoint, sys.executable) == expected


@pytest.mark.parametrize("version", _OTHER_PYTHONS)
def test_cli_runs_on_other_interpreters(tmp_path, summarizing_endpoint, version):
    """`validate`, a misspelled-key refusal and a recorded naive-baseline
    run behave the same on each other CPython found here, with no
    third-party package needed for any of them: the run's output and store
    bytes are this interpreter's."""
    exe = _find_python(version)
    if exe is None:
        pytest.skip(f"python{version} not found on PATH or beside {sys.base_prefix}")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"extration_k": 3}))

    def medsum(*argv):
        result = subprocess.run(
            [exe, "-m", "medsum", *argv], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=60,
        )
        return result.returncode, result.stdout, result.stderr

    code, out, err = medsum("validate", "sample_data/encounters.jsonl")
    assert (code, err) == (0, ""), err
    assert out.endswith("invalid lines: 0\n")
    output = tmp_path / "out.jsonl"
    refusal = "unknown key 'extration_k' (did you mean 'extraction_k'?)"
    assert medsum("run", "sample_data/encounters.jsonl", str(output), "--config", str(config)) == (
        1, "", f"error: bad run configuration: {refusal}\n"
    )
    assert not output.exists()
    expected = record_naive_run(tmp_path / "here", summarizing_endpoint)
    assert record_naive_run(tmp_path / "there", summarizing_endpoint, exe) == expected
