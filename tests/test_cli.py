import csv
import json

import pytest

from medsum.backend import ReplayStore
from medsum.cli import (
    EXIT_BACKEND,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    REVIEW_QUESTIONS,
    main,
)
from conftest import (
    SIX_SECTION_SUMMARY,
    encounter_record,
    write_dataset,
    write_pools,
)
from conftest import prerecord as _prerecord


@pytest.fixture
def workspace(tmp_path):
    """Dataset + pools + config + path for a replay store, all offline."""
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
            ("replay", "nope.jsonl", "replay store not found: "),
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
        assert f"error: {message}" in capsys.readouterr().err

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


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize(
    "setting", [{"max_context_tokens": "abc"}, {"inflation_factor": [1.5]}]
)
def test_bad_budget_setting_exits_1(workspace, capsys, command, setting):
    config = workspace["dir"] / "bad_budget.json"
    config.write_text(json.dumps({"pools": str(workspace["pools"]), **setting}))
    ReplayStore(workspace["store"], create=True)
    if command == "run":
        argv = ["run", str(workspace["dataset"]), str(workspace["dir"] / "out.jsonl")]
    else:
        records = workspace["dir"] / "records.jsonl"
        records.write_text("")
        argv = ["eval", str(records), str(workspace["dataset"]), "--verifier", "llm"]
    argv += ["--config", str(config), "--replay-store", str(workspace["store"])]
    assert main(argv) == EXIT_CONFIG
    assert "error: bad run configuration: " in capsys.readouterr().err


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

    def test_key_file_lives_outside_packets_dir(self, workspace):
        a, b = self.make_record_files(workspace)
        out = workspace["dir"] / "review"
        main(["review-packets", str(a), str(b), str(out)])
        assert (out / "key.json").exists()
        assert not (out / "packets" / "key.json").exists()
