import csv
import functools
import gc
import hashlib
import json
import operator
import os
import re
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import medsum.chain as chain
import medsum.cli as cli
from medsum.backend import FAN_OUT_WIDTH, ReplayStore, ScriptedTransport
from medsum.chain import run_medsum_ent
from medsum.cli import (
    EXIT_BACKEND,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    REVIEW_QUESTIONS,
    main,
)
from medsum.model import (
    EncounterReference,
    EntityLedger,
    PromptKind,
    RecordHead,
    RunRecord,
    StructuredSummary,
    validate_reference,
)
from medsum.promptkit import TEMPLATE_IDS, load_templates
from conftest import (
    SIX_SECTION_SUMMARY,
    encounter_record,
    json_of_another_type,
    scripted_pipeline_responder,
    write_dataset,
    write_pools,
)
from conftest import prerecord as _prerecord


@pytest.fixture
def workspace(tmp_path):
    """Dataset + pools + config + path for a replay store, all offline."""
    return _workspace(tmp_path)


def _workspace(tmp_path):
    dataset = tmp_path / "dataset.jsonl"
    write_dataset(
        dataset,
        [
            encounter_record("enc-001", n_turns=8, with_belly=True),
            encounter_record("enc-002", n_turns=6),
            encounter_record("enc-003", n_turns=4),
        ],
    )
    pools = tmp_path / "pools.jsonl"
    write_pools(pools)
    store = tmp_path / "store.jsonl"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pools": str(pools)}))
    return {
        "dir": tmp_path,
        "dataset": dataset,
        "pools": pools,
        "store": store,
        "config": config,
    }


def prerecord(store_path, workspace):
    _prerecord(store_path, workspace["dataset"], workspace["pools"])


class TestValidate:
    def test_valid_dataset_stats(self, tmp_path, capsys):
        # Turn counts 8/92/38 average out to 46, the shape of a realistic
        # telehealth corpus (long tail of very long conversations).
        dataset = tmp_path / "d.jsonl"
        write_dataset(
            dataset,
            [
                encounter_record("a", n_turns=8),
                encounter_record("b", n_turns=92),
                encounter_record("c", n_turns=38),
            ],
        )
        assert main(["validate", str(dataset)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "encounters: 3" in out
        assert "mean 46.0, min 8, max 92" in out

    def test_duplicate_id_names_both_lines(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        write_dataset(dataset, [encounter_record("same"), encounter_record("same")])
        assert main(["validate", str(dataset)]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert "line 2" in out and "line 1" in out
        assert "duplicate id" in out

    def test_empty_file_is_error(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        dataset.write_text("")
        assert main(["validate", str(dataset)]) == EXIT_CONFIG
        assert "empty" in capsys.readouterr().err

    def test_invalid_line_reported_with_number(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        records = [encounter_record("a"), {"id": "b", "rfe": "x"}]
        write_dataset(dataset, records)
        assert main(["validate", str(dataset)]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert "FAIL line 2" in out
        assert "PASS line 1" in out

    @pytest.mark.parametrize("value", [None, 5, ["fever"]])
    def test_reference_section_that_is_not_a_string_fails_its_line(self, tmp_path, capsys, value):
        dataset = tmp_path / "d.jsonl"
        bad = {**encounter_record("b"), "reference_summary": {"medical_history": value}}
        write_dataset(dataset, [encounter_record("a"), bad])
        assert main(["validate", str(dataset)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == ""
        assert (
            "FAIL line 2: reference_summary: summary section medical_history is not a string: "
            f"{value!r}\n" in captured.out
        )


_SHORT_TEXT = st.text(st.sampled_from("ab \t\n\u00e9\u2028"), max_size=3)
_DATASET_TURN = st.one_of(
    st.fixed_dictionaries({"speaker": st.sampled_from(["doctor", "patient"]), "text": st.just("hi")}),
    st.fixed_dictionaries(
        {},
        optional={
            "speaker": st.sampled_from(["doctor", "nurse", "", 1, None]),
            "text": st.one_of(_SHORT_TEXT, st.integers()),
        },
    ),
    st.sampled_from([[], "turn", 3, None]),
)
_REFERENCE = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["medical_history", "pertinent_positives", "bogus"]), _SHORT_TEXT),
    st.sampled_from([[], "summary", 0]),
)


@st.composite
def dataset_lines(draw):
    """One dataset line: an encounter that may break any field check, other
    JSON, text that is not JSON, or a blank line."""
    kind = draw(st.sampled_from(["valid", "valid", "encounter", "encounter", "json", "text", "blank"]))
    if kind == "json":
        return json.dumps(draw(st.sampled_from([[], [1], 3, "enc", None, True])))
    if kind == "text":
        return draw(st.sampled_from(["{", "nope", '{"id": "a",', "[1,"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "  "]))
    raw = {
        "id": draw(st.sampled_from(["e1", "e2", "e3"])),
        "rfe": "cough",
        "age": 40,
        "sex": "female",
        "turns": [{"speaker": "doctor", "text": "hello"}],
    }
    if kind == "valid":
        if draw(st.booleans()):
            raw["reference_summary"] = {"medical_history": draw(_SHORT_TEXT)}
        return json.dumps(raw)
    if draw(st.booleans()):
        raw["reference_summary"] = draw(_REFERENCE)
    for field_name in draw(st.lists(st.sampled_from(sorted(raw) + ["reference_summary"]), max_size=2)):
        raw[field_name] = draw(
            st.one_of(st.none(), st.sampled_from(["", " ", "x", -1, 2, True, 1.5, [], {}]))
        )
    if draw(st.booleans()):
        raw["turns"] = draw(st.lists(_DATASET_TURN, max_size=3))
    if draw(st.booleans()):
        del raw[draw(st.sampled_from(sorted(raw)))]
    return json.dumps(raw)


def _read_outcome(read, path):
    try:
        return read(path)
    except cli.CliError as exc:
        return "refused", str(exc)


@settings(deadline=None)
@given(st.lists(dataset_lines(), max_size=6))
def test_reference_pass_refuses_and_keeps_what_the_dataset_reader_does(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("dataset") / "dataset.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    full = _read_outcome(cli.read_dataset, path)
    kept = _read_outcome(lambda p: cli.read_dataset(p, validate_reference), path)
    if full[0] == "refused":
        assert kept == full
    else:
        assert kept == (
            [(n, EncounterReference(enc.id, enc.reference_summary)) for n, enc in full[0]],
            full[1],
        )
    assert _read_outcome(cli.load_references, path) == _read_outcome(
        lambda p: {enc.id: enc.reference_summary for enc in cli.load_dataset(p)}, path
    )


def _pool_line(**change):
    """One example-pool line, valid but for `change`."""
    line = {
        "kind": "rfe_extraction", "input_text": "a cough", "age": 40, "sex": "f",
        "label": "- cough (present)",
    }
    return json.dumps({**line, **change}) + "\n"


class TestRun:
    def test_naive_zero_shot_traces(self, workspace, capsys):
        prerecord(workspace["store"], workspace)
        output = workspace["dir"] / "naive.jsonl"
        code = main(
            [
                "run",
                str(workspace["dataset"]),
                str(output),
                "--config",
                str(workspace["config"]),
                "--method",
                "naive",
                "--backend",
                "replay",
                "--replay-store",
                str(workspace["store"]),
            ]
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in output.read_text().splitlines()]
        assert len(records) == 3
        assert all(len(r["llm_call_trace"]) == 1 for r in records)
        assert all(r["ledger"] == [] for r in records)

    def test_medsum_run_and_resume(self, workspace):
        prerecord(workspace["store"], workspace)
        output = workspace["dir"] / "medsum.jsonl"
        args = [
            "run",
            str(workspace["dataset"]),
            str(output),
            "--config",
            str(workspace["config"]),
            "--method",
            "medsum",
            "--backend",
            "replay",
            "--replay-store",
            str(workspace["store"]),
        ]
        assert main(args) == EXIT_OK
        first = output.read_text()
        assert len(first.splitlines()) == 3

        # Drop the last record and rerun: only the missing encounter runs,
        # existing lines are untouched.
        kept = first.splitlines()[:2]
        output.write_text("\n".join(kept) + "\n")
        assert main(args) == EXIT_OK
        lines = output.read_text().splitlines()
        assert len(lines) == 3
        assert lines[:2] == kept

    def run_args(self, workspace, output, method="medsum"):
        return [
            "run",
            str(workspace["dataset"]),
            str(output),
            "--config",
            str(workspace["config"]),
            "--method",
            method,
            "--backend",
            "replay",
            "--replay-store",
            str(workspace["store"]),
        ]

    def test_resume_over_every_cut_of_the_last_line(self, workspace, capsys):
        """A run killed while writing its last record, at any byte, resumes
        to the uninterrupted output: a torn line is cut off and rerun, a
        whole one that lost its newline gets it back."""
        prerecord(workspace["store"], workspace)
        output = workspace["dir"] / "naive.jsonl"
        args = self.run_args(workspace, output, method="naive")
        assert main(args) == EXIT_OK
        whole = output.read_bytes()
        last_start = whole.rindex(b"\n", 0, len(whole) - 1) + 1
        for cut in range(last_start, len(whole)):
            output.write_bytes(whole[:cut])
            capsys.readouterr()
            assert main(args) == EXIT_OK, cut
            assert output.read_bytes() == whole, cut
            torn = last_start < cut < len(whole) - 1
            assert ("dropping torn last line 3" in capsys.readouterr().err) == torn, cut

    @pytest.mark.parametrize("at_end", [False, True])
    def test_corrupt_terminated_line_exits_1(self, workspace, capsys, at_end):
        prerecord(workspace["store"], workspace)
        output = workspace["dir"] / "medsum.jsonl"
        args = self.run_args(workspace, output)
        assert main(args) == EXIT_OK
        lines = output.read_text().splitlines(keepends=True)
        lines[-1 if at_end else 0] = lines[-1 if at_end else 0][:40] + "\n"
        output.write_text("".join(lines))
        before = output.read_bytes()
        assert main(args) == EXIT_CONFIG
        assert "corrupt record line" in capsys.readouterr().err
        assert output.read_bytes() == before

    def test_record_id_that_is_not_a_string_exits_1(self, workspace, capsys):
        prerecord(workspace["store"], workspace)
        output = workspace["dir"] / "naive.jsonl"
        args = self.run_args(workspace, output, method="naive")
        assert main(args) == EXIT_OK
        first, *rest = output.read_text().splitlines(keepends=True)
        output.write_text(json.dumps({**json.loads(first), "encounter_id": 7}) + "\n" + "".join(rest))
        before = output.read_bytes()
        capsys.readouterr()
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "",
            f"error: output file {output} holds a corrupt record line "
            "(line 1: encounter_id is not a string: 7)\n",
        )
        assert output.read_bytes() == before

    def test_output_that_is_not_utf8_exits_1(self, workspace, capsys):
        prerecord(workspace["store"], workspace)
        output = workspace["dir"] / "medsum.jsonl"
        output.write_bytes(b"\xff\xfe\n")
        assert main(self.run_args(workspace, output)) == EXIT_CONFIG
        assert "is not UTF-8 text" in capsys.readouterr().err
        assert output.read_bytes() == b"\xff\xfe\n"

    @pytest.mark.parametrize(
        "change, found",
        [
            (["--method", "naive"], "method 'naive_baseline'"),
            (["--seed", "7"], '"run_seed":7'),
        ],
        ids=["method", "seed"],
    )
    def test_resume_refuses_another_configuration(self, workspace, capsys, change, found):
        prerecord(workspace["store"], workspace)
        output = workspace["dir"] / "medsum.jsonl"
        assert main(self.run_args(workspace, output)) == EXIT_OK
        before = output.read_bytes()
        capsys.readouterr()
        assert main(self.run_args(workspace, output) + change) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: output file {output} holds records of another configuration")
        assert "line 1 has method 'medsum_ent' and config {" in err
        assert '"run_seed":0' in err
        assert found in err.split("this run has", 1)[1]
        assert output.read_bytes() == before

    @pytest.mark.parametrize("method, reads_pools", [("medsum", True), ("naive", False)])
    def test_resume_checks_the_inputs_sidecar(self, workspace, method, reads_pools):
        """`<output>.inputs.json` holds the SHA-256 of each template, by id in
        TEMPLATE_IDS order, and of the pool file the run reads, or null.
        Unchanged inputs resume and leave it unwritten; an output written before
        the sidecar existed resumes and gets one; a sidecar whose output is
        missing is overwritten."""
        prerecord(workspace["store"], workspace)
        output = workspace["dir"] / "out.jsonl"
        sidecar = workspace["dir"] / "out.jsonl.inputs.json"
        args = self.run_args(workspace, output, method)
        assert main(args) == EXIT_OK
        whole, kept = output.read_bytes(), sidecar.read_bytes()
        templates = load_templates()
        assert list(json.loads(kept).items()) == [
            *((key, hashlib.sha256(templates[key].preamble.encode()).hexdigest()) for key in TEMPLATE_IDS),
            ("pools", hashlib.sha256(workspace["pools"].read_bytes()).hexdigest() if reads_pools else None),
        ]
        first = whole[: whole.index(b"\n") + 1]
        os.utime(sidecar, ns=(0, 0))  # any write would move its mtime
        output.write_bytes(first)
        assert main(args) == EXIT_OK
        assert (output.read_bytes(), sidecar.read_bytes()) == (whole, kept)
        assert sidecar.stat().st_mtime_ns == 0
        output.write_bytes(first)
        sidecar.unlink()
        assert main(args) == EXIT_OK
        assert (output.read_bytes(), sidecar.read_bytes()) == (whole, kept)
        output.unlink()
        sidecar.write_text("not JSON")
        assert main(args) == EXIT_OK
        assert (output.read_bytes(), sidecar.read_bytes()) == (whole, kept)

    @pytest.mark.parametrize("edit", ["summarization", "pools"])
    def test_resume_refuses_changed_prompts(self, workspace, capsys, edit):
        prerecord(workspace["store"], workspace)
        output = workspace["dir"] / "medsum.jsonl"
        args = self.run_args(workspace, output)
        assert main(args) == EXIT_OK
        output.write_text(output.read_text().splitlines(keepends=True)[0])
        if edit == "summarization":  # the same template from a templates_dir, edited
            templates = workspace["dir"] / "templates"
            templates.mkdir()
            preamble = load_templates()["summarization"].preamble
            (templates / "summarization.txt").write_text("Be brief. " + preamble)
            config = {"pools": str(workspace["pools"]), "templates_dir": str(templates)}
            workspace["config"].write_text(json.dumps(config))
        else:  # one more example in the same pool file
            example = {"kind": "rfe_extraction", "input_text": "rfe_extraction example 5",
                       "age": 35, "sex": "female", "label": "- headache (present)"}
            with workspace["pools"].open("a") as fh:
                fh.write(json.dumps(example) + "\n")
        before = _files(workspace["dir"])
        capsys.readouterr()
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr() == ("", (
            f"error: output file {output} was written from other inputs: {edit} changed. "
            "Write to another output file.\n"
        ))
        assert _files(workspace["dir"]) == before
        # An output that a run left before its first record holds none from
        # the old inputs, so the run goes on (to replay misses: its prompts
        # changed) and the sidecar takes the new digests.
        sidecar = workspace["dir"] / "medsum.jsonl.inputs.json"
        old = json.loads(sidecar.read_text())
        output.write_bytes(b"")
        assert main(args) != EXIT_CONFIG
        assert "other inputs" not in capsys.readouterr().err
        new = json.loads(sidecar.read_text())
        assert [key for key in new if new[key] != old[key]] == [edit]

    @pytest.mark.parametrize("records", [True, False], ids=["records", "no-records"])
    def test_sidecar_that_does_not_decode(self, workspace, capsys, records):
        """Beside an output that holds records it is an error, and both files
        stay as they were; beside one that holds none, no record came from
        other inputs, so the run goes on and writes the sidecar anew."""
        prerecord(workspace["store"], workspace)
        output = workspace["dir"] / "medsum.jsonl"
        sidecar = workspace["dir"] / "medsum.jsonl.inputs.json"
        args = self.run_args(workspace, output)
        assert main(args) == EXIT_OK
        whole, kept = output.read_bytes(), sidecar.read_bytes()
        output.write_bytes(whole[: whole.index(b"\n") + 1] if records else b"")
        sidecar.write_bytes(kept[:40])  # as a write cut short would leave it
        before = _files(workspace["dir"])
        capsys.readouterr()
        if records:
            assert main(args) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith(f"error: {sidecar} is corrupt: ")
            assert _files(workspace["dir"]) == before
        else:
            assert main(args) == EXIT_OK
            assert (output.read_bytes(), sidecar.read_bytes()) == (whole, kept)

    def test_template_without_input_slot_exits_1(self, workspace, capsys):
        ReplayStore(workspace["store"], create=True)
        templates = workspace["dir"] / "templates"
        templates.mkdir()
        (templates / "summarization.txt").write_text("Summarize the conversation.\n")
        config = workspace["dir"] / "templated.json"
        config.write_text(
            json.dumps({"pools": str(workspace["pools"]), "templates_dir": str(templates)})
        )
        output = workspace["dir"] / "out.jsonl"
        argv = self.run_args(workspace, output)
        argv[argv.index("--config") + 1] = str(config)
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            f"error: bad template: {templates / 'summarization.txt'}: "
            "template has no {input} slot\n"
        )
        assert not output.exists()

    def test_template_that_is_not_utf8_exits_1(self, workspace, capsys):
        ReplayStore(workspace["store"], create=True)
        templates = workspace["dir"] / "templates"
        templates.mkdir()
        (templates / "summarization.txt").write_bytes(b"Summarize \xff{input}\n")
        config = workspace["dir"] / "templated.json"
        config.write_text(
            json.dumps({"pools": str(workspace["pools"]), "templates_dir": str(templates)})
        )
        output = workspace["dir"] / "out.jsonl"
        argv = self.run_args(workspace, output)
        argv[argv.index("--config") + 1] = str(config)
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: bad template: {templates / 'summarization.txt'} is not UTF-8 text: "
            "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte\n"
        )
        assert not output.exists()

    @pytest.mark.parametrize(
        "pools_text, message",
        [
            (None, "No such file or directory"),
            ("not json\n", "bad example at line 1"),
            ('{"kind": "rfe_extraction"}\n', "bad example at line 1"),
            *[
                (_pool_line(**{key: value}), f"bad example at line 1: {key} is not {kind}: {value!r}")
                for key, value, kind in [
                    ("input_text", None, "a string"),
                    ("age", "forty", "an integer"),
                    ("age", True, "an integer"),
                    ("sex", ["f"], "a string"),
                    ("label", 5, "a string"),
                ]
            ],
        ],
        ids=[
            "missing", "not-json", "no-label",
            "input-text-null", "age-str", "age-bool", "sex-list", "label-int",
        ],
    )
    def test_bad_example_pool_file_exits_1(self, workspace, capsys, pools_text, message):
        ReplayStore(workspace["store"], create=True)
        workspace["pools"].unlink()
        if pools_text is not None:
            workspace["pools"].write_text(pools_text)
        output = workspace["dir"] / "out.jsonl"
        assert main(self.run_args(workspace, output)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: example pools: ") and err.count("\n") == 1
        assert message in err
        assert not output.exists()

    @pytest.mark.parametrize("kind", ["rfe_extraction", "dialogue_extraction"])
    def test_pool_smaller_than_its_k_exits_1_before_writing(self, workspace, capsys, kind):
        """A pool with fewer examples than its k is refused at start, not
        failed encounter by encounter as if the backend had failed."""
        lines = workspace["pools"].read_text().splitlines(keepends=True)
        dropped = [line for line in lines if json.loads(line)["kind"] == kind][3:]
        workspace["pools"].write_text("".join(line for line in lines if line not in dropped))
        argv = _set_up_argv(workspace, "run", {"extraction_k": 5})
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"error: example pool file has 3 {kind!r} examples; extraction_k is 5\n"
        )
        assert not (workspace["dir"] / "out.jsonl").exists()

    def test_config_violation_exits_1(self, workspace):
        bad_config = workspace["dir"] / "bad.json"
        bad_config.write_text(json.dumps({"extraction_k": 2, "pools": str(workspace["pools"])}))
        code = main(
            [
                "run",
                str(workspace["dataset"]),
                str(workspace["dir"] / "out.jsonl"),
                "--config",
                str(bad_config),
                "--backend",
                "replay",
                "--replay-store",
                str(workspace["store"]),
            ]
        )
        assert code == EXIT_CONFIG

    def test_missing_replay_store_exits_1(self, workspace):
        code = main(
            [
                "run",
                str(workspace["dataset"]),
                str(workspace["dir"] / "out.jsonl"),
                "--config",
                str(workspace["config"]),
                "--backend",
                "replay",
                "--replay-store",
                str(workspace["dir"] / "nope.jsonl"),
            ]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "backend, store, message",
        [
            ("replay", None, "--backend replay needs --replay-store"),
            ("record", None, "--backend record needs --replay-store"),
            ("replay", "nope.jsonl", "cannot read {dir}/nope.jsonl: No such file or directory"),
            ("record", "new.jsonl", "--backend record needs an 'endpoint' in the config file"),
        ],
    )
    def test_backend_set_up_errors_exit_1(self, workspace, capsys, backend, store, message):
        argv = [
            "run",
            str(workspace["dataset"]),
            str(workspace["dir"] / "out.jsonl"),
            "--config",
            str(workspace["config"]),
            "--backend",
            backend,
        ]
        if store:
            argv += ["--replay-store", str(workspace["dir"] / store)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message.format(dir=workspace['dir'])}\n"

    def test_record_store_that_cannot_be_made_exits_1(self, workspace, capsys):
        config = workspace["dir"] / "record.json"
        config.write_text(json.dumps({"pools": str(workspace["pools"]), "endpoint": "http://x"}))
        store = workspace["pools"] / "store.jsonl"  # under a file
        argv = ["run", str(workspace["dataset"]), str(workspace["dir"] / "out.jsonl")]
        argv += ["--config", str(config), "--backend", "record", "--replay-store", str(store)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: cannot write {store}: File exists\n")
        assert not (workspace["dir"] / "out.jsonl").exists()

    @pytest.mark.parametrize(
        "endpoint, why",
        [
            ("example.invalid/v1", "not a printable-ASCII http or https URL"),
            ("ftp://x/y", "not a printable-ASCII http or https URL"),
            ("http://[::1", "Invalid IPv6 URL"),
        ],
        ids=["no-scheme", "ftp", "unclosed-ipv6"],
    )
    def test_endpoint_that_is_not_an_http_url_exits_1(self, workspace, capsys, endpoint, why):
        """Refused before the store or the output is created, so no
        encounter fails on it."""
        config = workspace["dir"] / "record.json"
        config.write_text(json.dumps({"pools": str(workspace["pools"]), "endpoint": endpoint}))
        argv = ["run", str(workspace["dataset"]), str(workspace["dir"] / "out.jsonl")]
        argv += ["--config", str(config), "--backend", "record", "--replay-store",
                 str(workspace["store"])]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"error: bad run configuration: endpoint {endpoint!r}: {why}\n"
        )
        assert not (workspace["dir"] / "out.jsonl").exists()
        assert not workspace["store"].exists()

    @pytest.mark.parametrize("backend", ["replay", "record"])
    @pytest.mark.parametrize("path", ["\x00", "\ud800"], ids=["nul", "lone-surrogate"])
    @pytest.mark.parametrize("key", ["pools", "replay_store", "templates_dir"])
    def test_config_path_the_os_cannot_take_exits_1(self, workspace, capfd, key, path, backend):
        """A path holding a NUL or a lone surrogate, which `open()` refuses
        before asking the OS, is one `error:` line, not a traceback."""
        config = workspace["dir"] / "paths.json"
        config.write_text(json.dumps({
            "pools": str(workspace["pools"]),
            "replay_store": str(workspace["store"]),
            "endpoint": "http://127.0.0.1:9/v1",
            key: path,
        }))
        ReplayStore(workspace["store"], create=True)
        before = _files(workspace["dir"])
        argv = ["run", str(workspace["dataset"]), str(workspace["dir"] / "out.jsonl")]
        argv += ["--config", str(config), "--backend", backend]
        assert main(argv) == EXIT_CONFIG
        out, err = capfd.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert _files(workspace["dir"]) == before

    def test_output_that_cannot_be_made_exits_1(self, workspace, capsys):
        ReplayStore(workspace["store"], create=True)
        output = workspace["pools"] / "out.jsonl"  # under a file
        before = _files(workspace["dir"])
        assert main(self.run_args(workspace, output)) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: cannot write {output}: File exists\n")
        assert _files(workspace["dir"]) == before

    def test_replay_miss_is_backend_failure(self, workspace):
        # Store exists but holds nothing: every encounter fails.
        ReplayStore(workspace["store"], create=True)
        code = main(
            [
                "run",
                str(workspace["dataset"]),
                str(workspace["dir"] / "out.jsonl"),
                "--config",
                str(workspace["config"]),
                "--backend",
                "replay",
                "--replay-store",
                str(workspace["store"]),
            ]
        )
        assert code == EXIT_BACKEND

    def test_some_failures_is_partial_completion(self, workspace):
        # Record responses for two of the three encounters only; the third
        # misses on replay while the others complete.
        subset = workspace["dir"] / "subset.jsonl"
        write_dataset(
            subset,
            [
                encounter_record("enc-001", n_turns=8, with_belly=True),
                encounter_record("enc-002", n_turns=6),
            ],
        )
        _prerecord(workspace["store"], subset, workspace["pools"])
        output = workspace["dir"] / "out.jsonl"
        code = main(
            [
                "run",
                str(workspace["dataset"]),
                str(output),
                "--config",
                str(workspace["config"]),
                "--backend",
                "replay",
                "--replay-store",
                str(workspace["store"]),
            ]
        )
        assert code == EXIT_PARTIAL
        assert len(output.read_text().splitlines()) == 2

    def test_run_never_mutates_the_dataset(self, workspace):
        prerecord(workspace["store"], workspace)
        before = workspace["dataset"].read_bytes()
        main(
            [
                "run",
                str(workspace["dataset"]),
                str(workspace["dir"] / "out.jsonl"),
                "--config",
                str(workspace["config"]),
                "--backend",
                "replay",
                "--replay-store",
                str(workspace["store"]),
            ]
        )
        assert workspace["dataset"].read_bytes() == before


def _set_up_argv(workspace, command, setting):
    """Arguments for `run` or `eval --verifier llm` over an empty replay store
    with a config of the workspace's pools plus `setting`."""
    config = workspace["dir"] / "setting.json"
    config.write_text(json.dumps({"pools": str(workspace["pools"]), **setting}))
    ReplayStore(workspace["store"], create=True)
    if command == "run":
        argv = ["run", str(workspace["dataset"]), str(workspace["dir"] / "out.jsonl")]
    else:
        records = workspace["dir"] / "records.jsonl"
        records.write_text("")
        argv = ["eval", str(records), str(workspace["dataset"]), "--verifier", "llm"]
    return argv + ["--config", str(config), "--replay-store", str(workspace["store"])]


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize(
    "setting", [{"max_context_tokens": "abc"}, {"inflation_factor": [1.5]}]
)
def test_bad_budget_setting_exits_1(workspace, capsys, command, setting):
    assert main(_set_up_argv(workspace, command, setting)) == EXIT_CONFIG
    assert "error: bad run configuration: " in capsys.readouterr().err


def _scoring_argv(workspace, command, setting):
    """`_set_up_argv`, where `eval` has a record to score, whose prompts
    would reach the budget check."""
    records = workspace["dir"] / "scored.jsonl"
    if command == "eval":
        reference = StructuredSummary(medical_intent="fever").to_dict()
        write_dataset(workspace["dataset"], [encounter_record("enc-001", n_turns=4, reference=reference)])
        prerecord(workspace["store"], workspace)
        run = ["run", str(workspace["dataset"]), str(records), "--config", str(workspace["config"])]
        assert main(run + ["--backend", "replay", "--replay-store", str(workspace["store"])]) == EXIT_OK
    argv = _set_up_argv(workspace, command, setting)
    if command == "eval":
        argv[1] = str(records)
    return argv


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("factor", [float("nan"), float("inf")])
def test_non_finite_inflation_factor_exits_1_before_writing(workspace, capsys, command, factor):
    """`json.loads` reads `NaN` and `Infinity`; the budget refuses them at
    once instead of failing every call that checks a prompt."""
    argv = _scoring_argv(workspace, command, {"inflation_factor": factor})
    capsys.readouterr()
    before = _files(workspace["dir"])
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr() == ("", (
        "error: bad run configuration: inflation_factor must be finite and >= 1, "
        f"got {factor!r}\n"
    ))
    assert _files(workspace["dir"]) == before


@pytest.mark.parametrize("command, reserve", [("run", 512), ("eval", 200)])
def test_budget_that_leaves_a_prompt_no_room_exits_1_before_any_call(
    workspace, capsys, command, reserve
):
    """A `max_context_tokens` not above the most `max_tokens` a command's
    completions reserve (a summary's 512 for `run`, a metric prompt's 200 for
    `eval`) leaves one of its prompts no room. It is refused before the output
    is created or a call is sent, not by the first prompt that reaches it."""
    argv = _scoring_argv(workspace, command, {"max_context_tokens": reserve})
    capsys.readouterr()
    before = _files(workspace["dir"])
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr() == ("", (
        f"error: bad run configuration: max_context_tokens must be above {reserve}, "
        f"the tokens a completion reserves, got {reserve}\n"
    ))
    assert _files(workspace["dir"]) == before


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("regular_file", [False, True])
def test_templates_dir_that_is_not_a_directory_exits_1(workspace, capsys, command, regular_file):
    """A missing `templates_dir`, or one that is a file, is refused rather
    than left to the bundled templates."""
    templates = workspace["dir"] / "templates"
    if regular_file:
        templates.write_text("{input}\n")
    argv = _set_up_argv(workspace, command, {"templates_dir": str(templates)})
    before = _files(workspace["dir"])
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"error: bad template: templates_dir {templates} is not a directory\n"
    )
    assert _files(workspace["dir"]) == before


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("run", "workers", "abc"),
        ("run", "workers", 0),
        ("run", "workers", 1.5),
        ("run", "max_in_flight", "4"),
        ("run", "max_in_flight", -1),
        ("run", "max_in_flight", 0),
        ("eval", "max_in_flight", "4"),
        ("eval", "max_in_flight", 0),
    ],
)
def test_limits_must_be_positive_integers(workspace, capsys, command, key, value):
    assert main(_set_up_argv(workspace, command, {key: value})) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: bad run configuration: {key} must be a positive integer, got {value!r}\n"
    )
    assert not (workspace["dir"] / "out.jsonl").exists()


@pytest.mark.parametrize("backend", ["live", "record"])
@pytest.mark.parametrize("key", ["\u20ac", "sk-test\r\nX-Injected: 1", "sk-test\n"])
def test_api_key_a_header_cannot_carry_exits_1_before_writing(
    workspace, loopback_endpoint, monkeypatch, capsys, backend, key
):
    """A $MEDSUM_API_KEY outside Latin-1, or holding CR or LF, is refused
    once, before the store or the output exists and before any call."""
    monkeypatch.setenv("MEDSUM_API_KEY", key)
    config = workspace["dir"] / "live.json"
    config.write_text(json.dumps({"pools": str(workspace["pools"]), "endpoint": loopback_endpoint.url}))
    before = _files(workspace["dir"])
    argv = ["run", str(workspace["dataset"]), str(workspace["dir"] / "out.jsonl"),
            "--config", str(config), "--backend", backend, "--replay-store", str(workspace["store"])]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: bad run configuration: $MEDSUM_API_KEY holds a character an HTTP header "
        "cannot carry\n"
    )
    assert _files(workspace["dir"]) == before
    assert loopback_endpoint.received == []


SAMPLE_DATA = Path(__file__).parents[1] / "sample_data"


@pytest.mark.parametrize("method, summary_floor", [("medsum_ent", 628), ("naive", 611)])
@pytest.mark.parametrize("budget", [513, 600])
def test_budget_below_a_prompt_every_encounter_sends_exits_1_before_writing(
    tmp_path, capsys, method, summary_floor, budget
):
    """On sample_data the summary prompt, with no input and no examples,
    and its 512 reserved tokens need 628 tokens (611 for the baseline's), so
    a smaller `max_context_tokens` fails every encounter and is refused up
    front; at the floor the run starts."""
    config, store = tmp_path / "config.json", tmp_path / "store.jsonl"
    store.write_text("")

    def run(max_context_tokens):
        pools = str(SAMPLE_DATA / "pools.jsonl")
        config.write_text(json.dumps({"pools": pools, "max_context_tokens": max_context_tokens}))
        return main(["run", str(SAMPLE_DATA / "encounters.jsonl"), str(tmp_path / "out.jsonl"),
                     "--config", str(config), "--method", method, "--replay-store", str(store)])

    assert run(budget) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: bad run configuration: max_context_tokens must be at least {summary_floor} "
        f"for a summarization prompt to fit, got {budget}\n"
    )
    assert not (tmp_path / "out.jsonl").exists()
    assert run(summary_floor) == EXIT_BACKEND  # every call misses the empty store
    assert (tmp_path / "out.jsonl").exists()


def test_live_run_opens_one_connection_per_sending_thread(workspace, loopback_endpoint):
    """A live `run --workers 3` keeps a connection for each thread that
    sends: at most one per fan-out thread plus one per worker, which sends
    its encounters' summary calls itself."""
    def respond(prompt):
        summary = prompt.startswith("Write a structured summary")
        return SIX_SECTION_SUMMARY if summary else "- cough (present)"

    loopback_endpoint.respond = respond
    argv = _set_up_argv(workspace, "run", {"endpoint": loopback_endpoint.url})
    assert main([*argv, "--backend", "live", "--workers", "3"]) == EXIT_OK
    summaries = [p for _, p in loopback_endpoint.received if p["max_tokens"] == 512]
    assert len(summaries) == 3
    assert 0 < loopback_endpoint.connections <= FAN_OUT_WIDTH + 3
    assert loopback_endpoint.wait_until_all_closed()


def test_eval_client_honours_max_in_flight(workspace, monkeypatch):
    built, build = [], cli.CompletionClient

    def client(*args, **kwargs):
        built.append(kwargs)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "CompletionClient", client)
    main(_set_up_argv(workspace, "eval", {"max_in_flight": 3}))
    assert built == [{"max_in_flight": 3}]


@pytest.mark.parametrize("value", [-3, 0])
def test_workers_flag_must_be_a_positive_integer(workspace, capsys, value):
    argv = _set_up_argv(workspace, "run", {"workers": 2}) + ["--workers", str(value)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: bad run configuration: --workers must be a positive integer, got {value}\n"
    )
    assert not (workspace["dir"] / "out.jsonl").exists()


def _config_section():
    """README's "Config file" section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("\n### Config file\n", 1)[1].split("\n### ", 1)[0]


@pytest.fixture(scope="module")
def readme_config(tmp_path_factory):
    """README's "Typical contents" config, its paths pointed at a workspace
    of a dataset, pools, an empty replay store and an empty templates
    directory; and that workspace's directory."""
    root = tmp_path_factory.mktemp("readme-config")
    write_dataset(root / "dataset.jsonl", [encounter_record("enc-001", n_turns=4)])
    write_pools(root / "pools.jsonl")
    ReplayStore(root / "store.jsonl", create=True)
    (root / "templates").mkdir()
    (root / "records.jsonl").write_text("")
    config = json.loads(_config_section().split("```json\n", 1)[1].split("```", 1)[0])
    paths = {key: str(root / name) for key, name in _CONFIG_PATHS.items()}
    assert set(paths) <= set(config)
    return {**config, **paths}, root


_CONFIG_PATHS = {"pools": "pools.jsonl", "replay_store": "store.jsonl", "templates_dir": "templates"}
# Every config key, which `load_config` checks for both commands, besides
# `workers` and `max_in_flight`, which test_limits_must_be_positive_integers covers.
_TYPED_KEYS = [key for key in cli.CONFIG_KEYS if key not in ("workers", "max_in_flight")]
_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string"}
_NEAR_MISSES = {
    int: [3.0, True, "3", None],
    float: [True, "1.3", None],
    bool: [0, "false", None],
    str: [3, True, 1.5, None, ["x"]],
}
_ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2), st.dictionaries(st.text(), inner, max_size=2)
    ),
    max_leaves=3,
)


def _is_kind(value, kind):
    """Whether a decoded JSON value has the JSON type README gives a key of
    `kind`: a bool is not a number, and an integer is one."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _other_type(key, kind):
    """JSON values a config key of `kind` must refuse. A key with no default
    may be null, which leaves it unset. Path keys get no int or bool, which
    `open()` would take for a file descriptor."""
    values = st.one_of(st.sampled_from(_NEAR_MISSES[kind]), _ANY_JSON)
    if key in (*_CONFIG_PATHS, "endpoint"):
        values = values.filter(lambda v: v is not None)
    if key in _CONFIG_PATHS:
        values = values.filter(lambda v: not isinstance(v, int))
    return values.filter(lambda v: not _is_kind(v, kind))


def _refusal(key, kind, value):
    return f"bad run configuration: {key} is not {_KIND_NAMES[kind]}: {value!r}"


@pytest.mark.parametrize("command", ["run", "eval"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_value_of_another_type_exits_1(readme_config, capsys, command, data):
    """Each config key a command reads refuses a value of another JSON type
    with one `error:` line, before anything is written; nothing is
    converted."""
    config, root = readme_config
    key = data.draw(st.sampled_from(_TYPED_KEYS))
    kind = type(config[key])
    value = data.draw(_other_type(key, kind))
    (root / "config.json").write_text(json.dumps({**config, key: value}))
    if command == "run":
        argv = ["run", str(root / "dataset.jsonl"), str(root / "out.jsonl")]
    else:
        argv = ["eval", str(root / "records.jsonl"), str(root / "dataset.jsonl"), "--verifier", "llm"]
    capsys.readouterr()
    assert main([*argv, "--config", str(root / "config.json")]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: {_refusal(key, kind, value)}\n")
    assert sorted(path.name for path in root.iterdir()) == [
        "config.json", "dataset.jsonl", "pools.jsonl", "records.jsonl", "store.jsonl", "templates"
    ]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_endpoint_and_model_of_another_type_are_refused(readme_config, data):
    """`--backend record` refuses an `endpoint` or `model` of another JSON
    type before it builds a transport; nothing is sent."""
    config, root = readme_config
    key = data.draw(st.sampled_from(["endpoint", "model"]))
    value = data.draw(_other_type(key, str))
    args = cli.build_parser().parse_args(
        ["run", "d", "o", "--backend", "record", "--replay-store", str(root / "new-store.jsonl")]
    )
    with pytest.raises(cli.CliError) as refused:
        cli.build_transport(args, {**config, key: value})
    assert str(refused.value) == _refusal(key, str, value)
    assert not (root / "new-store.jsonl").exists()


_README_KINDS = {
    "integers": int, "a number, integer or not": float, "booleans": bool, "strings": str
}


def test_readme_config_keys_are_the_table_rows(readme_config):
    """README's "Config file" example and its type bullets name each row of
    `CONFIG_KEYS` with the row's JSON type, and no key that has no row."""
    config, _ = readme_config
    table = {key: kind for key, (kind, _) in cli.CONFIG_KEYS.items()}
    assert {key: type(value) for key, value in config.items()} == table
    bullets = _config_section().split("values are not converted:\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for bullet in re.split(r"\n *- ", "\n" + bullets)[1:]:
        label, keys = bullet.split(":", 1)
        for key in re.findall(r"`(\w+)`", keys):
            assert key not in listed, key
            listed[key] = _README_KINDS[label]
    assert listed == table


def test_readme_defaults_and_null_keys_are_the_table_rows():
    """README's defaults sentence gives each row's default, and its list of
    keys that may be null is the rows whose default is None."""
    text = " ".join(_config_section().split())
    defaults = re.search(r"The defaults: (.*?)\. ", text).group(1)
    stated = {}
    for key, value in re.findall(r"`(\w+)` (`[^`]+`|[\d.]+)", defaults):
        try:  # `true` or 1.3; a string such as `random` is not quoted
            stated[key] = json.loads(value.strip("`"))
        except ValueError:
            stated[key] = value.strip("`")
    table = cli.CONFIG_KEYS.items()
    assert {k: (type(v), v) for k, v in stated.items()} == {
        key: (type(default), default) for key, (_, default) in table if default is not None
    }
    nullable = re.search(r"((?:`\w+`,? (?:and )?)+)may be `null`", text).group(1)
    unset = [key for key, (_, default) in table if default is None]
    assert re.findall(r"`(\w+)`", nullable) == unset


@pytest.mark.parametrize(
    "command, flags", [("run", []), ("eval", []), ("eval", ["--verifier", "exact"])]
)
@pytest.mark.parametrize(
    "key, hint", [("extration_k", " (did you mean 'extraction_k'?)"), ("verbosity", "")]
)
def test_unknown_config_key_exits_1_before_writing(workspace, capsys, command, flags, key, hint):
    """A key with no row in `CONFIG_KEYS`, a misspelled one say, is refused
    with one `error:` line, naming the closest key if one is close; `eval
    --verifier exact`, which reads no key, refuses it too."""
    argv = _set_up_argv(workspace, command, {key: 3, "selction_mode": "semantic"}) + flags
    before = _files(workspace["dir"])
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"error: bad run configuration: unknown key {key!r}{hint}\n"
    )
    assert _files(workspace["dir"]) == before


@pytest.mark.parametrize(
    "setting, flags, refusal",
    [
        ({"workers": "abc", "seed": "x"}, ["--workers", "2", "--seed", "3"],
         "workers must be a positive integer, got 'abc'"),
        ({"seed": "x"}, ["--seed", "3"], "seed is not an integer: 'x'"),
        ({"replay_store": 3}, [], "replay_store is not a string: 3"),
    ],
)
def test_flag_does_not_hide_a_bad_config_value(workspace, capsys, setting, flags, refusal):
    """Every key in the config file is checked, also one that `--workers`,
    `--seed` or `--replay-store` overrides."""
    argv = _set_up_argv(workspace, "run", setting) + flags
    before = _files(workspace["dir"])
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: bad run configuration: {refusal}\n")
    assert _files(workspace["dir"]) == before


@pytest.mark.parametrize("setting", [{"extraction_k": 2}, {"summarization_k": 2}])
def test_eval_refuses_a_chain_setting_that_run_refuses(workspace, capsys, setting):
    """`eval` builds its budget through the same ChainConfig as `run`, so a
    grid cell the paper has no row for is refused by both."""
    ((key, value),) = setting.items()
    message = "one of (1, 3, 5)" if key == "extraction_k" else "0 or 1"
    for command in ("run", "eval"):
        assert main(_set_up_argv(workspace, command, setting)) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: bad run configuration: {key} must be {message}, got {value}\n"
        )


def test_empty_templates_dir_leaves_the_bundled_templates(workspace, monkeypatch, tmp_path_factory):
    """`templates_dir: ""` is unset, as null is; `Path("")` would be the
    working directory, whose templates would then replace the bundled ones."""
    prerecord(workspace["store"], workspace)
    cwd = tmp_path_factory.mktemp("cwd")
    for bundled in (Path(cli.__file__).parent / "templates").glob("*.txt"):
        (cwd / bundled.name).write_text("Decoy. " + bundled.read_text(encoding="utf-8"))
    monkeypatch.chdir(cwd)
    outputs = []
    for setting in ({}, {"templates_dir": ""}):
        argv = _set_up_argv(workspace, "run", setting)
        output = workspace["dir"] / f"out-{len(outputs)}.jsonl"
        argv[2] = str(output)
        assert main(argv) == EXIT_OK
        outputs.append(output.read_bytes())
    assert outputs[1] == outputs[0]


def _input_file_argv(workspace, command, bad):
    """Arguments for `command` and the path of its input file `bad`."""
    if command == "validate":
        argv = ["validate", str(workspace["dataset"])]
    elif command == "review-packets":
        records = workspace["dir"] / "records.jsonl"
        argv = ["review-packets", str(records), str(records), str(workspace["dir"] / "review")]
    else:
        templates = workspace["dir"] / "templates"
        templates.mkdir(exist_ok=True)
        argv = _set_up_argv(workspace, command, {"templates_dir": str(templates)})
    path = {
        "records": workspace["dir"] / "records.jsonl",
        "config": workspace["dir"] / "setting.json",
        "output": workspace["dir"] / "out.jsonl",
        "template": workspace["dir"] / "templates" / "summarization.txt",
    }.get(bad) or workspace[bad]
    return argv, path


# What the `error:` line about input file `bad` says before the file's own error.
_INPUT_NAMES = {"pools": "example pools: ", "output": "output file ", "template": "bad template: "}

_INPUT_FILE_CASES = [
    ("validate", "dataset"),
    ("run", "dataset"),
    ("run", "pools"),
    ("eval", "records"),
    ("eval", "dataset"),
    ("review-packets", "records"),
]
# Every input file of every command. A missing run output is a fresh run
# and a missing template file falls back to the bundled one, so neither is
# tried missing.
_EVERY_INPUT = [
    *_INPUT_FILE_CASES,
    ("run", "config"),
    ("run", "store"),
    ("eval", "config"),
    ("eval", "store"),
    ("run", "output"),
    ("run", "template"),
    ("eval", "template"),
]
_MISSING_IS_NO_ERROR = {"output", "template"}


@pytest.mark.parametrize(
    "command, bad, how",
    [
        (command, bad, how)
        for command, bad in _EVERY_INPUT
        for how in ("directory", "missing")
        if how == "directory" or bad not in _MISSING_IS_NO_ERROR
    ],
)
def test_input_file_that_is_a_directory_exits_1(workspace, capsys, command, bad, how):
    argv, path = _input_file_argv(workspace, command, bad)
    if path.exists():
        path.unlink()
    if how == "directory":
        path.mkdir()
    assert main(argv) == EXIT_CONFIG
    reason = "Is a directory" if how == "directory" else "No such file or directory"
    assert capsys.readouterr().err == (
        f"error: {_INPUT_NAMES.get(bad, '')}cannot read {path}: {reason}\n"
    )


@pytest.mark.parametrize("command, bad", _EVERY_INPUT)
def test_input_file_that_is_not_utf8_exits_1(workspace, capsys, command, bad):
    argv, path = _input_file_argv(workspace, command, bad)
    # A valid line first, then a line with bytes that are not UTF-8.
    lines = path.read_bytes().splitlines(keepends=True)[:1] if path.exists() else []
    path.write_bytes(b"".join(lines) + b'{"id": "\xff\xfe"}\n')
    with pytest.raises(UnicodeDecodeError) as undecodable:
        path.read_bytes().decode("utf-8")
    before = _files(workspace["dir"])
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {_INPUT_NAMES.get(bad, '')}{path} is not UTF-8 text: {undecodable.value}\n"
    )
    assert _files(workspace["dir"]) == before


@pytest.mark.parametrize("report", ["--csv", "--jsonl"])
def test_report_path_that_is_a_directory_exits_1(workspace, capsys, report):
    TestEval().identity_dataset(workspace)
    records = TestEval().run_and_eval(workspace)
    capsys.readouterr()
    path = workspace["dir"] / "report"
    path.mkdir()
    argv = ["eval", str(records), str(workspace["dataset"]), report, str(path)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["eval", "review-packets"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("summary", [], "summary is not an object: []"),
        ("summary", "", "summary is not an object: ''"),
        ("encounter_id", 7, "encounter_id is not a string: 7"),
        ("encounter_id", None, "encounter_id is not a string: None"),
        ("ledger", [{"name": 7, "status": "present"}], "entity name is not a string: 7"),
        ("warnings", "abc", "warnings is not a list of strings: 'abc'"),
        ("warnings", ["a", 7], "warnings is not a list of strings: ['a', 7]"),
        (
            "ledger",
            [{"name": "fever", "status": "present", "provenance": "rfe"}],
            "provenance is not a list of strings: 'rfe'",
        ),
        (
            "ledger",
            [{"name": "fever", "status": "present", "provenance": [None]}],
            "provenance is not a list of strings: [None]",
        ),
        (
            "llm_call_trace",
            [{"prompt_kind": "summarization", "prompt_hash": 7, "params": {}}],
            "prompt_hash is not a string: 7",
        ),
        ("config", [["extraction_k", 3]], "config is not an object: [['extraction_k', 3]]"),
        (
            "llm_call_trace",
            [{"prompt_kind": "summarization", "prompt_hash": "h", "params": ["ab"]}],
            "params is not an object: ['ab']",
        ),
        (
            "summary",
            {"pertinent_negatives": None},
            "summary section pertinent_negatives is not a string: None",
        ),
        ("summary", {"medical_history": 5}, "summary section medical_history is not a string: 5"),
        (
            "summary",
            {"pertinent_positives": ["fever"]},
            "summary section pertinent_positives is not a string: ['fever']",
        ),
    ],
)
def test_record_field_of_the_wrong_type_exits_1(workspace, capsys, command, field, value, message):
    argv, path = _input_file_argv(workspace, command, "records")
    good = RunRecord("enc-001", "naive_baseline", {}, EntityLedger(), StructuredSummary(), ())
    bad = {**good.to_json_dict(), field: value}
    path.write_text(good.to_json_line() + json.dumps(bad) + "\n")
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {path}: bad record at line 2: {message}\n"


@pytest.mark.parametrize(
    "config, message",
    [
        ({"selection_mode": ["random"]}, "selection_mode is not a string: ['random']"),
        ({"selection_mode": {"a": 1}}, "selection_mode is not a string: {'a': 1}"),
        ({"selection_mode": "random\ud800"}, "selection_mode is not UTF-8 text: 'random\\ud800'"),
        ({"extraction_k": [1]}, "extraction_k is not an integer: [1]"),
        ({"summarization_k": "x"}, "summarization_k is not an integer: 'x'"),
        ({"summarization_k": 1.9}, "summarization_k is not an integer: 1.9"),
        ({"extraction_k": True}, "extraction_k is not an integer: True"),
        ({"extraction_k": "3"}, "extraction_k is not an integer: '3'"),
        ({"resolver_enabled": "false"}, "resolver_enabled is not a boolean: 'false'"),
        ({"resolver_enabled": "no"}, "resolver_enabled is not a boolean: 'no'"),
        ({"resolver_enabled": [0]}, "resolver_enabled is not a boolean: [0]"),
        ({"resolver_enabled": None}, "resolver_enabled is not a boolean: None"),
    ],
)
def test_record_config_without_a_report_row_exits_1_before_scoring(
    workspace, capsys, monkeypatch, config, message
):
    records = workspace["dir"] / "records.jsonl"
    good = RunRecord("enc-001", "medsum_ent", {}, EntityLedger(), StructuredSummary(), ())
    bad = RunRecord("enc-002", "medsum_ent", config, EntityLedger(), StructuredSummary(), ())
    records.write_text(good.to_json_line() + bad.to_json_line())
    scored = []
    monkeypatch.setattr(cli, "evaluate_encounter", lambda *args: scored.append(args))
    argv = ["eval", str(records), str(workspace["dataset"]), "--verifier", "exact"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {records}: bad record at line 2: {message}\n"
    assert scored == []


def _files(root):
    """The bytes of every file under `root`, by path."""
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


def _replaced(raw, path, value):
    """A copy of the decoded JSON object `raw` with the value at `path`, a
    tuple of keys and indexes, replaced by `value`."""
    raw = json.loads(json.dumps(raw))
    *parents, last = path
    functools.reduce(operator.getitem, parents, raw)[last] = value
    return raw


# Each generated wrong-type test runs once per field, for every field to be tried.
_GENERATED = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _field_ids(fields):
    """Test ids of (path, ...) parameters: each path joined with dots."""
    return [".".join(map(str, path)) for path, *_ in fields]


# Each typed field of a dataset line: its path, its JSON type and how
# `validate` words a value of another type.
_DATASET_FIELDS = [
    (("id",), str, "id is not a string: {!r}"),
    (("rfe",), str, "rfe is not a string: {!r}"),
    (("age",), int, "age is not an integer: {!r}"),
    (("sex",), str, "sex is not a string: {!r}"),
    (("turns",), list, "turns is not a list: {!r}"),
    (("turns", 1), dict, "turn 1: not an object"),
    (("turns", 1, "speaker"), str, "turn 1: speaker is not a string: {!r}"),
    (("turns", 1, "text"), str, "turn 1: text is not a string: {!r}"),
    (("reference_summary",), dict, "reference_summary: summary is not an object: {!r}"),
    (
        ("reference_summary", "medical_history"),
        str,
        "reference_summary: summary section medical_history is not a string: {!r}",
    ),
]


@pytest.mark.parametrize("path, kind, refusal", _DATASET_FIELDS, ids=_field_ids(_DATASET_FIELDS))
@_GENERATED
@given(data=st.data())
def test_dataset_field_of_another_type_exits_1(workspace, capsys, path, kind, refusal, data):
    """A dataset line with one field of another JSON type fails `validate`
    on that line and makes `run` and `eval` exit 1 with one `error:` line
    and its problem line; nothing is written or converted."""
    values = json_of_another_type(kind)
    if path == ("reference_summary",):  # null is an encounter with no reference
        values = values.filter(lambda value: value is not None)
    value = data.draw(values)
    bad = _replaced(encounter_record("enc-002", reference={"medical_history": "none"}), path, value)
    lines = [encounter_record("enc-000"), encounter_record("enc-001")]
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, bad)
    write_dataset(workspace["dataset"], lines)
    run_argv = _set_up_argv(workspace, "run", {})
    eval_argv = ["eval", str(workspace["dir"] / "records.jsonl"), str(workspace["dataset"])]
    (workspace["dir"] / "records.jsonl").write_text("")
    problem = f"line {at + 1}: {refusal.format(value)}"
    before = _files(workspace["dir"])
    capsys.readouterr()
    assert main(["validate", str(workspace["dataset"])]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err == "" and [line for line in out.splitlines() if "FAIL" in line] == [f"FAIL {problem}"]
    for argv in (run_argv, eval_argv):
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: dataset invalid:\n{problem}\n")
    assert _files(workspace["dir"]) == before


@pytest.mark.parametrize("field", ["key_hex", "prompt_kind", "response_text"])
@_GENERATED
@given(data=st.data())
def test_store_field_of_another_type_exits_1(workspace, capsys, field, data):
    """A replay-store line with one field of another JSON type is a corrupt
    line: `run` and `eval --verifier llm` over the store exit 1 with one
    `error:` line naming it, and nothing is written."""
    workspace["store"].write_text("")
    run_argv = _set_up_argv(workspace, "run", {})
    eval_argv = _set_up_argv(workspace, "eval", {})
    entries = st.fixed_dictionaries(
        {
            "key_hex": st.text(max_size=8),
            "prompt_kind": st.sampled_from([kind.value for kind in PromptKind]),
            "response_text": st.text(max_size=8),
        }
    )
    lines = data.draw(st.lists(entries, min_size=1, max_size=3))
    value = data.draw(json_of_another_type(str))
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at] = {**lines[at], field: value}
    workspace["store"].write_text("".join(json.dumps(line) + "\n" for line in lines))
    if field == "prompt_kind":
        refusal = f"{value!r} is not a valid PromptKind"
    else:
        refusal = f"{field} is not a string: {value!r}"
    before = _files(workspace["dir"])
    capsys.readouterr()
    for argv in (run_argv, eval_argv):
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "",
            f"error: {workspace['store']} holds a corrupt record line (line {at + 1}: {refusal})\n",
        )
    assert _files(workspace["dir"]) == before


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """The argv of a replayed `medsum run` whose output is written, that
    output's path, and its lines."""
    workspace = _workspace(tmp_path_factory.mktemp("finished-run"))
    prerecord(workspace["store"], workspace)
    output = workspace["dir"] / "medsum.jsonl"
    argv = TestRun().run_args(workspace, output)
    assert main(argv) == EXIT_OK
    return argv, output, output.read_text().splitlines(keepends=True)


# Each typed field of a run record line, with its JSON type.
_RECORD_FIELDS = [
    (("encounter_id",), str),
    (("method",), str),
    (("config",), dict),
    (("ledger",), list),
    (("ledger", 0), dict),
    (("ledger", 0, "name"), str),
    (("ledger", 0, "status"), str),
    (("ledger", 0, "provenance"), list),
    (("ledger", 0, "provenance", 0), str),
    (("summary",), dict),
    (("summary", "medical_history"), str),
    (("llm_call_trace",), list),
    (("llm_call_trace", 0), dict),
    (("llm_call_trace", 0, "prompt_kind"), str),
    (("llm_call_trace", 0, "prompt_hash"), str),
    (("llm_call_trace", 0, "params"), dict),
    (("warnings",), list),
    (("warnings", 0), str),
]


@pytest.mark.parametrize("path, kind", _RECORD_FIELDS, ids=_field_ids(_RECORD_FIELDS))
@_GENERATED
@given(data=st.data())
def test_resumed_record_field_of_another_type_exits_1(finished_run, capsys, path, kind, data):
    """A line of `run`'s output with one field of another JSON type, which
    `eval` refuses, is a corrupt line to a resumed `run` too: it exits 1
    with one `error:` line naming it before anything runs or is written."""
    argv, output, lines = finished_run
    value = data.draw(json_of_another_type(kind))
    at = data.draw(st.integers(0, len(lines) - 1))
    record = {**json.loads(lines[at]), "warnings": ["a warning"]}
    lines = [*lines[:at], json.dumps(_replaced(record, path, value)) + "\n", *lines[at + 1 :]]
    output.write_text("".join(lines))
    before = _files(output.parent)
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: output file {output} holds a corrupt record line (line {at + 1}: ")
    assert _files(output.parent) == before


@pytest.mark.parametrize("command", ["eval", "review-packets"])
@pytest.mark.parametrize("path, kind", _RECORD_FIELDS, ids=_field_ids(_RECORD_FIELDS))
@_GENERATED
@given(data=st.data())
def test_record_field_of_another_type_exits_1(finished_run, capsys, command, path, kind, data):
    """A record line with one field of another JSON type makes `eval` and
    `review-packets` exit 1 with one `error:` line naming that line, before
    anything is scored or written."""
    _, output, lines = finished_run
    root = output.parent
    records = root / "records.jsonl"
    if command == "eval":
        argv = ["eval", str(records), str(root / "dataset.jsonl")]
    else:
        argv = ["review-packets", str(records), str(records), str(root / "review")]
    value = data.draw(json_of_another_type(kind))
    at = data.draw(st.integers(0, len(lines) - 1))
    record = {**json.loads(lines[at]), "warnings": ["a warning"]}
    lines = [*lines[:at], json.dumps(_replaced(record, path, value)) + "\n", *lines[at + 1 :]]
    records.write_text("".join(lines))
    before = _files(root)
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {records}: bad record at line {at + 1}: ")
    assert _files(root) == before


# Each field of an example-pool line, with its JSON type and how `run`
# words a value of another type.
_POOL_FIELDS = [
    ("kind", str, "{!r} is not a valid ExampleKind"),
    ("input_text", str, "input_text is not a string: {!r}"),
    ("age", int, "age is not an integer: {!r}"),
    ("sex", str, "sex is not a string: {!r}"),
    ("label", str, "label is not a string: {!r}"),
]


@pytest.mark.parametrize("field, kind, refusal", _POOL_FIELDS, ids=[f for f, *_ in _POOL_FIELDS])
@_GENERATED
@given(data=st.data())
def test_pool_field_of_another_type_exits_1(workspace, capsys, field, kind, refusal, data):
    """A pool line with one field of another JSON type makes `run` exit 1
    with one `error:` line naming that line, before anything is written."""
    argv = _set_up_argv(workspace, "run", {})
    write_pools(workspace["pools"])
    lines = workspace["pools"].read_text().splitlines(keepends=True)
    value = data.draw(json_of_another_type(kind))
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, _pool_line(**{field: value}))
    workspace["pools"].write_text("".join(lines))
    before = _files(workspace["dir"])
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr() == (
        "",
        f"error: example pools: {workspace['pools']}: bad example at line {at + 1}: "
        f"{refusal.format(value)}\n",
    )
    assert _files(workspace["dir"]) == before


_STORE_FIELDS = {
    "key_hex": "key_hex is not a string: {!r}",
    "prompt_kind": "{!r} is not a valid PromptKind",
    "response_text": "response_text is not a string: {!r}",
}


@pytest.mark.parametrize("last_line", ["decodes", "cut"])
@pytest.mark.parametrize("log", ["store", "output"])
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_unterminated_last_line_is_torn_only_if_it_does_not_decode(
    finished_run, capsys, caplog, log, last_line, data
):
    """A last line without its newline, of a replay store or of `run`'s
    output, is a torn write only if it does not decode. A proper prefix of a
    valid last line is dropped with a warning and cut off; a whole line that
    fails a field check is a corrupt line: exit 1, one `error:` line, and
    every file left as it was."""
    argv, output, lines = finished_run
    store = Path(argv[argv.index("--replay-store") + 1])
    stored = store.read_bytes()
    path = store if log == "store" else output
    whole = stored if log == "store" else "".join(lines).encode()
    earlier, last = whole[: whole.rindex(b"\n", 0, -1) + 1], whole[whole.rindex(b"\n", 0, -1) + 1 :]
    lineno = whole.count(b"\n")
    capsys.readouterr()
    caplog.clear()
    try:
        if last_line == "decodes":
            if log == "store":
                field = data.draw(st.sampled_from(sorted(_STORE_FIELDS)))
                value = data.draw(json_of_another_type(str))
                bad = {**json.loads(last), field: value}
                refusal, name = _STORE_FIELDS[field].format(value), ""
            else:
                field, kind = data.draw(st.sampled_from(_RECORD_FIELDS))
                value = data.draw(json_of_another_type(kind))
                bad = _replaced({**json.loads(last), "warnings": ["a warning"]}, field, value)
                with pytest.raises((ValueError, KeyError, TypeError)) as refused:
                    RecordHead.from_json_dict(bad)
                refusal, name = refused.value, "output file "
            path.write_bytes(earlier + json.dumps(bad).encode())
            before = _files(output.parent)
            assert main(argv) == EXIT_CONFIG
            assert capsys.readouterr() == (
                "",
                f"error: {name}{path} holds a corrupt record line (line {lineno}: {refusal})\n",
            )
            assert _files(output.parent) == before
        else:
            torn = earlier + last[: data.draw(st.integers(1, len(last) - 2))]
            path.write_bytes(torn)
            assert main(argv) == EXIT_OK
            if log == "store":
                assert f"{store}: dropping torn last line {lineno} (" in caplog.text
                assert store.read_bytes() == torn  # loading alone writes nothing
                reloaded = ReplayStore(store)
                reloaded.put("new", "summarization", "text")
                reloaded.close()
                assert store.read_bytes() == earlier + (
                    b'{"key_hex":"new","prompt_kind":"summarization","response_text":"text"}\n'
                )
            else:
                assert f"dropping torn last line {lineno} (" in capsys.readouterr().err
                assert output.read_bytes() == whole
    finally:
        store.write_bytes(stored)
        output.write_text("".join(lines))


class TestEval:
    def run_and_eval(self, workspace, method="medsum"):
        prerecord(workspace["store"], workspace)
        records = workspace["dir"] / f"{method}.jsonl"
        main(
            [
                "run",
                str(workspace["dataset"]),
                str(records),
                "--config",
                str(workspace["config"]),
                "--method",
                method,
                "--backend",
                "replay",
                "--replay-store",
                str(workspace["store"]),
            ]
        )
        return records

    def identity_dataset(self, workspace):
        """Rewrite the dataset so each reference equals the scripted summary
        the pipeline will produce."""
        from medsum.promptkit import parse_summary

        summary, _ = parse_summary(SIX_SECTION_SUMMARY)
        write_dataset(
            workspace["dataset"],
            [
                encounter_record(enc_id, n_turns=n, reference=summary.to_dict())
                for enc_id, n in (("enc-001", 8), ("enc-002", 6), ("enc-003", 4))
            ],
        )

    def test_identity_corpus_scores_100(self, workspace, capsys):
        self.identity_dataset(workspace)
        records = self.run_and_eval(workspace)
        csv_path = workspace["dir"] / "report.csv"
        code = main(
            [
                "eval",
                str(records),
                str(workspace["dataset"]),
                "--verifier",
                "exact",
                "--csv",
                str(csv_path),
                "--jsonl",
                str(workspace["dir"] / "report.jsonl"),
            ]
        )
        assert code == EXIT_OK
        with csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        for column in (
            "pertinent_positives",
            "pertinent_negatives",
            "pertinent_unknowns",
            "medical_history",
            "average",
        ):
            assert rows[0][column] == "100.0"

    def test_metric_prompt_over_the_budget_exits_1_without_a_report(self, workspace, capsys):
        self.identity_dataset(workspace)
        records = self.run_and_eval(workspace)
        config = workspace["dir"] / "small.json"
        config.write_text(json.dumps({"max_context_tokens": 230}))  # 30 left past max_tokens
        capsys.readouterr()
        before = _files(workspace["dir"])
        argv = ["eval", str(records), str(workspace["dataset"]), "--verifier", "llm"]
        argv += ["--config", str(config), "--replay-store", str(workspace["store"])]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr() == ("", (
            "error: encounter 'enc-001': a metric prompt does not fit the budget: "
            "estimated 56 tokens exceeds budget of 30 by 26\n"
        ))
        assert _files(workspace["dir"]) == before

    def test_two_configs_two_rows(self, workspace):
        self.identity_dataset(workspace)
        medsum_records = self.run_and_eval(workspace, "medsum")
        naive_records = self.run_and_eval(workspace, "naive")
        combined = workspace["dir"] / "combined.jsonl"
        combined.write_text(medsum_records.read_text() + naive_records.read_text())
        csv_path = workspace["dir"] / "combined.csv"
        code = main(
            [
                "eval",
                str(combined),
                str(workspace["dataset"]),
                "--csv",
                str(csv_path),
                "--jsonl",
                str(workspace["dir"] / "combined.report.jsonl"),
            ]
        )
        assert code == EXIT_OK
        with csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["method"] for r in rows} == {"medsum_ent", "naive_baseline"}

    def test_missing_reference_skipped_and_counted(self, workspace, capsys):
        # enc-003 gets no reference summary.
        from medsum.promptkit import parse_summary

        summary, _ = parse_summary(SIX_SECTION_SUMMARY)
        write_dataset(
            workspace["dataset"],
            [
                encounter_record("enc-001", 8, reference=summary.to_dict()),
                encounter_record("enc-002", 6, reference=summary.to_dict()),
                encounter_record("enc-003", 4),
            ],
        )
        records = self.run_and_eval(workspace)
        code = main(
            [
                "eval",
                str(records),
                str(workspace["dataset"]),
                "--csv",
                str(workspace["dir"] / "r.csv"),
                "--jsonl",
                str(workspace["dir"] / "r.jsonl"),
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "1 skipped" in captured.out
        assert "enc-003" in captured.err

    def test_no_scorable_encounters_exits_1(self, workspace, capsys):
        records = self.run_and_eval(workspace)  # dataset has no references
        code = main(
            [
                "eval",
                str(records),
                str(workspace["dataset"]),
            ]
        )
        assert code == EXIT_CONFIG

    def test_llm_verifier_over_replay(self, workspace):
        """The llm verifier path replays recorded metric completions."""
        from medsum.backend import (
            CompletionClient,
            RecordingTransport,
            ReplayStore,
            ScriptedTransport,
        )
        from medsum.cli import load_dataset, load_records
        from medsum.metrics import LLMConceptExtractor, LLMVerifier, evaluate_encounter
        from medsum.model import PromptKind
        from medsum.promptkit import load_templates

        def metric_responder(req):
            if req.prompt_kind is PromptKind.METRIC_EXTRACTION:
                section = req.prompt.split("Text:\n", 1)[1].split("\nConcepts:", 1)[0]
                return "\n".join(ln for ln in section.splitlines() if ln.strip())
            assert req.prompt_kind is PromptKind.METRIC_VERIFICATION
            concepts = [ln for ln in req.prompt.splitlines() if ln.startswith("- ")]
            return "\n".join("yes" for _ in concepts)

        self.identity_dataset(workspace)
        records_path = self.run_and_eval(workspace)

        # Record the metric traffic by scoring once through the same code
        # path the CLI uses; the CLI then replays it byte for byte.
        metric_store = workspace["dir"] / "metric_store.jsonl"
        client = CompletionClient(
            RecordingTransport(
                ScriptedTransport(metric_responder),
                ReplayStore(metric_store, create=True),
            ),
            sleeper=lambda _: None,
        )
        templates = load_templates()
        extractor = LLMConceptExtractor(client, templates["metric_extraction"])
        verifier = LLMVerifier(client, templates["metric_verification"])
        dataset = {enc.id: enc for enc in load_dataset(workspace["dataset"])}
        for record in load_records(records_path):
            evaluate_encounter(
                record.summary,
                dataset[record.encounter_id].reference_summary,
                verifier,
                extractor,
            )

        csv_path = workspace["dir"] / "llm_report.csv"
        code = main(
            [
                "eval",
                str(records_path),
                str(workspace["dataset"]),
                "--verifier",
                "llm",
                "--backend",
                "replay",
                "--replay-store",
                str(metric_store),
                "--csv",
                str(csv_path),
                "--jsonl",
                str(workspace["dir"] / "llm_report.jsonl"),
            ]
        )
        assert code == EXIT_OK
        with csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["average"] == "100.0"


    def test_metric_template_declaring_age_exits_1(self, workspace, capsys):
        records = self.run_and_eval(workspace)
        templates = workspace["dir"] / "templates"
        templates.mkdir()
        (templates / "metric_extraction.txt").write_text(
            "Concepts for a patient aged {age}.\n\nText:\n{input}\nConcepts:\n"
        )
        config = workspace["dir"] / "templated.json"
        config.write_text(json.dumps({"templates_dir": str(templates)}))
        capsys.readouterr()
        argv = ["eval", str(records), str(workspace["dataset"]), "--verifier", "llm",
                "--config", str(config), "--replay-store", str(workspace["store"])]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: bad template: template declares {age} but no age given\n"


class InterruptingEndpoint:
    """Scripted stand-in for the live endpoint whose k-th call raises
    KeyboardInterrupt, as a Ctrl-C landing during that call would. At each
    call it notes how many encounters had finished (`finished` lists them)."""

    def __init__(self, k):
        self.k = k
        self.calls = 0
        self.finished = []
        self.finished_before_call = []
        self._lock = threading.Lock()

    def send(self, req):
        with self._lock:
            self.calls += 1
            interrupt = self.calls == self.k
            self.finished_before_call.append(len(self.finished))
        if interrupt:
            raise KeyboardInterrupt
        return scripted_pipeline_responder(req)


def _crash_workspace(root):
    dataset, pools, config = root / "dataset.jsonl", root / "pools.jsonl", root / "config.json"
    write_dataset(
        dataset,
        [
            encounter_record(f"enc-{i:03d}", n_turns=4 + 2 * (i % 4), with_belly=i % 3 == 0)
            for i in range(12)
        ],
    )
    write_pools(pools)
    config.write_text(json.dumps({"pools": str(pools), "endpoint": "http://stand-in"}))
    return dataset, config


def _record_run(root, dataset, config, endpoint, workers):
    """`medsum run --backend record` with `endpoint` standing in for HTTP."""
    output = root / "out.jsonl"
    argv = ["run", str(dataset), str(output), "--config", str(config), "--backend", "record",
            "--replay-store", str(root / "store.jsonl"), "--workers", str(workers)]
    with mock.patch.object(cli, "HTTPTransport", lambda url, model: endpoint):
        code = main(argv)
    return code, output


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The output lines of an uninterrupted record run at one worker, and
    for each of its calls how many encounters had finished before it."""
    root = tmp_path_factory.mktemp("uninterrupted")
    endpoint = InterruptingEndpoint(k=0)

    def counted(*args):
        record = run_medsum_ent(*args)
        endpoint.finished.append(record.encounter_id)
        return record

    with mock.patch.object(chain, "run_medsum_ent", counted):
        code, output = _record_run(root, *_crash_workspace(root), endpoint, workers=1)
    assert code == EXIT_OK
    return output.read_bytes().splitlines(keepends=True), endpoint.finished_before_call


@pytest.mark.parametrize("workers", [1, 8])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_interrupted_run_resumes_to_the_uninterrupted_output(
    tmp_path_factory, uninterrupted, workers, data
):
    """A run interrupted at its k-th call keeps every record finished before
    it, whole and in order, and a rerun completes it to the bytes of a run
    never interrupted."""
    lines, finished_before_call = uninterrupted
    expected = b"".join(lines)
    k = data.draw(st.integers(1, len(finished_before_call)), label="k")
    root = tmp_path_factory.mktemp("interrupted")
    dataset, config = _crash_workspace(root)
    with pytest.raises(KeyboardInterrupt):
        _record_run(root, dataset, config, InterruptingEndpoint(k), workers)
    kept = root.joinpath("out.jsonl").read_bytes()
    if workers == 1:
        # One encounter at a time: every encounter before the one interrupted is written.
        assert kept == b"".join(lines[: finished_before_call[k - 1]])
    assert expected.startswith(kept) and kept[-1:] in (b"", b"\n")
    code, output = _record_run(root, dataset, config, InterruptingEndpoint(0), workers)
    assert code == EXIT_OK
    assert output.read_bytes() == expected


class TestReviewPackets:
    def make_record_files(self, workspace):
        prerecord(workspace["store"], workspace)
        a = self._run(workspace, "medsum")
        b = self._run(workspace, "naive")
        return a, b

    def _run(self, workspace, method):
        records = workspace["dir"] / f"{method}.jsonl"
        main(
            [
                "run",
                str(workspace["dataset"]),
                str(records),
                "--config",
                str(workspace["config"]),
                "--method",
                method,
                "--backend",
                "replay",
                "--replay-store",
                str(workspace["store"]),
            ]
        )
        return records

    def test_one_packet_per_common_encounter(self, workspace):
        a, b = self.make_record_files(workspace)
        out = workspace["dir"] / "review"
        assert main(["review-packets", str(a), str(b), str(out), "--seed", "9"]) == EXIT_OK
        packets = sorted((out / "packets").glob("*.json"))
        assert len(packets) == 3
        packet = json.loads(packets[0].read_text())
        assert packet["questions"] == list(REVIEW_QUESTIONS)
        assert "summary_a" in packet and "summary_b" in packet
        key = json.loads((out / "key.json").read_text())
        assert set(key) == {"enc-001", "enc-002", "enc-003"}
        for mapping in key.values():
            assert sorted(mapping.values()) == ["medsum_ent", "naive_baseline"]

    def test_same_seed_same_assignments(self, workspace):
        a, b = self.make_record_files(workspace)
        out1 = workspace["dir"] / "review1"
        out2 = workspace["dir"] / "review2"
        main(["review-packets", str(a), str(b), str(out1), "--seed", "4"])
        main(["review-packets", str(a), str(b), str(out2), "--seed", "4"])
        assert (out1 / "key.json").read_text() == (out2 / "key.json").read_text()

    def test_encounter_missing_from_one_file_skipped(self, workspace, capsys):
        a, b = self.make_record_files(workspace)
        lines = b.read_text().splitlines()
        b.write_text("\n".join(lines[:2]) + "\n")
        out = workspace["dir"] / "review"
        assert main(["review-packets", str(a), str(b), str(out)]) == EXIT_OK
        assert len(list((out / "packets").glob("*.json"))) == 2
        assert "enc-003" in capsys.readouterr().err

    def test_keeps_no_whole_record_while_writing_packets(self, workspace, monkeypatch):
        a, b = self.make_record_files(workspace)
        alive = []
        serialize = cli.serialize_summary

        def counting(summary):
            gc.collect()
            alive.append(sum(isinstance(o, RunRecord) for o in gc.get_objects()))
            return serialize(summary)

        monkeypatch.setattr(cli, "serialize_summary", counting)
        assert main(["review-packets", str(a), str(b), str(workspace["dir"] / "review")]) == EXIT_OK
        assert alive == [0] * 6

    def test_key_file_lives_outside_packets_dir(self, workspace):
        a, b = self.make_record_files(workspace)
        out = workspace["dir"] / "review"
        main(["review-packets", str(a), str(b), str(out)])
        assert (out / "key.json").exists()
        assert not (out / "packets" / "key.json").exists()

    @pytest.mark.parametrize(
        "bad_id", ["../escaped", "a/b", "a\\b", "nul\0id", ".", "..", "lone\ud800surrogate"]
    )
    def test_encounter_id_that_is_not_a_file_name_is_refused(self, workspace, capsys, bad_id):
        a, b = self.make_record_files(workspace)
        for path in (a, b):
            records = [json.loads(line) for line in path.read_text().splitlines()]
            for record in records:
                if record["encounter_id"] == "enc-002":
                    record["encounter_id"] = bad_id
            path.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        out = workspace["dir"] / "review"
        assert main(["review-packets", str(a), str(b), str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"error: encounter id {bad_id!r} cannot name a packet file\n"
        )
        assert not out.exists() and not (workspace["dir"] / "escaped.json").exists()

    def test_out_dir_that_cannot_be_made_is_refused(self, workspace, capsys):
        a, b = self.make_record_files(workspace)
        blocker = workspace["dir"] / "blocker"
        blocker.write_text("a regular file\n")
        capsys.readouterr()
        packets = blocker / "review" / "packets"
        assert main(["review-packets", str(a), str(b), str(blocker / "review")]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: cannot write {packets}: Not a directory\n")

    def test_packet_that_cannot_be_written_is_refused(self, workspace, capsys):
        a, b = self.make_record_files(workspace)
        out = workspace["dir"] / "review"
        packet = out / "packets" / "enc-002.json"
        packet.mkdir(parents=True)
        capsys.readouterr()
        assert main(["review-packets", str(a), str(b), str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: cannot write {packet}: Is a directory\n")
        assert not (out / "key.json").exists()


def test_every_config_key_is_documented():
    """Each key the command line reads from the config file is named in
    README's "Config file" section."""
    source = Path(cli.__file__).read_text(encoding="utf-8")
    keys = set(re.findall(r'(?:config\.get\(|setting\(config, )"(\w+)"', source))
    assert {"workers", "max_in_flight", "pools", "resolver_enabled"} <= keys
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Config file\n", 1)[1].split("\n#", 1)[0]
    assert sorted(k for k in keys if f"`{k}`" not in section and f'"{k}"' not in section) == []
