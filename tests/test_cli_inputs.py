"""Fuzzing of the command line's input files.

Hypothesis draws a command, one of the files it reads and a mutation of that
file, then calls `cli.main` in-process. Whatever the input, nothing escapes
`main`, the exit code is 0, 1, 2 or 3, and the command says why it failed:
- exit 1 comes with an `error:` line (`validate` may instead list its bad
  lines as `FAIL line` lines), and `run` has written no output;
- a `run` that exits 2 or 3 prints one `FAIL` line per failed encounter;
  any other command that exits 2 prints an error line.
"""

import contextlib
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsum.backend import CompletionClient, RecordingTransport, ReplayStore, ScriptedTransport
from medsum.chain import ChainConfig
from medsum.cli import load_dataset, load_records, main
from medsum.metrics import LLMConceptExtractor, LLMVerifier, evaluate_encounter
from medsum.model import PromptKind
from medsum.promptkit import load_templates

from conftest import prerecord

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data"


def _metric_responder(req):
    """Two concepts for every extraction, a yes and a no for every verification."""
    if req.prompt_kind is PromptKind.METRIC_EXTRACTION:
        return "- first concept\n- second concept"
    return "yes\nno"


def _config(root: Path) -> dict:
    """A config that sets every key, with the pools and store under `root`."""
    return {
        "extraction_k": 1, "summarization_k": 1, "selection_mode": "random",
        "resolver_enabled": True, "resolver_fail_closed": False, "seed": 0,
        "max_context_tokens": 4096, "inflation_factor": 1.3,
        "pools": str(root / "pools.jsonl"), "replay_store": str(root / "store.jsonl"),
        "templates_dir": "", "endpoint": "http://127.0.0.1:9/v1", "model": "m",
        "workers": 1, "max_in_flight": 4,
    }


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """sample_data's dataset and pools, a store that replays both methods'
    runs and the LLM metrics over them, and the records of each method."""
    root = tmp_path_factory.mktemp("inputs")
    for name in ("encounters.jsonl", "pools.jsonl"):
        shutil.copy(SAMPLE / name, root / name)
    cfg = ChainConfig(summarization_k=1)
    prerecord(root / "store.jsonl", root / "encounters.jsonl", root / "pools.jsonl", (cfg,))
    (root / "config.json").write_text(json.dumps(_config(root)))
    for method, records in (("medsum_ent", "records.jsonl"), ("naive", "records_b.jsonl")):
        argv = ["run", str(root / "encounters.jsonl"), str(root / records),
                "--config", str(root / "config.json"), "--method", method]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        (root / (records + ".inputs.json")).unlink()
    client = CompletionClient(RecordingTransport(
        ScriptedTransport(_metric_responder), ReplayStore(root / "store.jsonl")))
    templates = load_templates()
    extractor = LLMConceptExtractor(client, templates["metric_extraction"])
    verifier = LLMVerifier(client, templates["metric_verification"])
    references = {enc.id: enc.reference_summary for enc in load_dataset(root / "encounters.jsonl")}
    for records in ("records.jsonl", "records_b.jsonl"):
        for record in load_records(root / records):
            if references[record.encounter_id] is not None:
                evaluate_encounter(record.summary, references[record.encounter_id],
                                   verifier, extractor)
    client.close()
    return root


# Each command's arguments in a directory, and the files it reads there.
COMMANDS = {
    "validate": (["validate", "encounters.jsonl"], ["encounters.jsonl"]),
    "run medsum_ent": (
        ["run", "encounters.jsonl", "out.jsonl", "--config", "config.json",
         "--method", "medsum_ent"],
        ["encounters.jsonl", "pools.jsonl", "store.jsonl", "config.json"],
    ),
    "run naive": (
        ["run", "encounters.jsonl", "out.jsonl", "--config", "config.json", "--method", "naive"],
        ["encounters.jsonl", "pools.jsonl", "store.jsonl", "config.json"],
    ),
    "eval exact": (
        ["eval", "records.jsonl", "encounters.jsonl", "--verifier", "exact",
         "--config", "config.json", "--csv", "report.csv", "--jsonl", "report.jsonl"],
        ["records.jsonl", "encounters.jsonl", "config.json"],
    ),
    "eval llm": (
        ["eval", "records.jsonl", "encounters.jsonl", "--verifier", "llm",
         "--config", "config.json", "--csv", "report.csv", "--jsonl", "report.jsonl"],
        ["records.jsonl", "encounters.jsonl", "config.json", "store.jsonl"],
    ),
    "review-packets": (
        ["review-packets", "records.jsonl", "records_b.jsonl", "packets",
         "--dataset", "encounters.jsonl"],
        ["records.jsonl", "records_b.jsonl", "encounters.jsonl"],
    ),
}
PATHS = {arg for argv, _ in COMMANDS.values() for arg in argv if "." in arg} | {"packets"}

_ONE_OF_EACH_TYPE = st.sampled_from([None, True, 0, 1.5, "x", [], {}])
VALUE_MUTATIONS = {
    "type swap": lambda value, draw: draw(
        _ONE_OF_EACH_TYPE.filter(lambda v: type(v) is not type(value))),
    "nan": lambda value, draw: math.nan,
    "infinity": lambda value, draw: draw(st.sampled_from([math.inf, -math.inf])),
    "integer past 64 bits": lambda value, draw: draw(st.sampled_from([2**64, -(2**70), 10**30])),
    "empty": lambda value, draw: draw(st.sampled_from(["", [], {}, None])),
    "nul": lambda value, draw: (value if isinstance(value, str) else "") + "\x00",
    "lone surrogate": lambda value, draw: (value if isinstance(value, str) else "") + "\ud800",
}


def _mutate_value(obj, data, mutation):
    """`obj` with the value at a drawn path replaced or, for "deleted key",
    the key or item there removed; the top level is replaced whole."""
    if mutation != "deleted key" and data.draw(st.integers(0, 5), label="stop at top") == 0:
        return VALUE_MUTATIONS[mutation](obj, data.draw)
    parent = obj
    while True:
        children = list(parent) if isinstance(parent, dict) else range(len(parent))
        if not children:
            return obj
        child = data.draw(st.sampled_from(children), label="key")
        inner = parent[child]
        if isinstance(inner, (dict, list)) and inner and data.draw(st.booleans(), label="deeper"):
            parent = inner
            continue
        if mutation == "deleted key":
            del parent[child]
        else:
            parent[child] = VALUE_MUTATIONS[mutation](inner, data.draw)
        return obj


def _mutate(path: Path, data, mutation):
    if mutation == "directory":
        path.unlink()
        path.mkdir()
        return
    raw = path.read_bytes()
    if mutation == "truncation":
        path.write_bytes(raw[: data.draw(st.integers(0, max(len(raw) - 1, 0)), label="cut at")])
        return
    lines = raw.decode("utf-8").splitlines()
    if not lines:
        return
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    value = _mutate_value(json.loads(lines[at]), data, mutation)
    lines[at] = json.dumps(value)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


MUTATIONS = [*VALUE_MUTATIONS, "deleted key", "directory", "truncation"]


@settings(max_examples=400, deadline=None)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    mutation=st.sampled_from(MUTATIONS),
    data=st.data(),
)
def test_no_input_escapes_main(base, command, mutation, data):
    argv, reads = COMMANDS[command]
    target = data.draw(st.sampled_from(reads), label="input")
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        for name in ("encounters.jsonl", "pools.jsonl", "store.jsonl", "records.jsonl",
                     "records_b.jsonl"):
            shutil.copy(base / name, root / name)
        (root / "config.json").write_text(json.dumps(_config(root)))
        _mutate(root / target, data, mutation)
        args = [str(root / arg) if arg in PATHS else arg for arg in argv]
        # Python's own UTF-8 streams: a strict stdout and a backslash-escaping stderr.
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        out, err = (stream.detach().getvalue().decode() for stream in (out, err))
        written = (root / "out.jsonl").exists() or (root / "out.jsonl.inputs.json").exists()
    assert code in (0, 1, 2, 3), (code, out, err)
    errors = re.findall(r"^(?:error|backend error): ", err, re.MULTILINE)
    if code == 1:
        listed = command == "validate" and re.search(r"^invalid lines: [1-9]", out, re.MULTILINE)
        assert errors or listed, (out, err)
        if command.startswith("run"):
            assert not written, err
    elif code in (2, 3) and command.startswith("run"):
        ran = re.search(r"^ran \d+ encounters, (\d+) failures", out, re.MULTILINE)
        assert ran and int(ran.group(1)) > 0, (out, err)
        assert len(re.findall(r"^FAIL ", err, re.MULTILINE)) == int(ran.group(1)), err
    elif code in (2, 3):
        assert code == 2 and errors, (out, err)
