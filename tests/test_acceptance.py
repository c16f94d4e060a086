"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them on success).

Everything here runs offline against scripted or replayed completions.
"""

import csv
import json
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from medsum.backend import (
    CompletionClient,
    CompletionParams,
    CompletionRequest,
    RecordingTransport,
    ReplayStore,
    ReplayTransport,
    RetryExhaustedError,
    RetryPolicy,
    ScriptedTransport,
    TransientBackendError,
    default_params,
)
from medsum.chain import (
    ChainConfig,
    ChainDeps,
    RunLog,
    pair_turns,
    resolve_unknowns,
    run_medsum_ent,
    run_naive_baseline,
)
from medsum.cli import main
from medsum.metrics import (
    LLMVerifier,
    exact_match_verifier,
    score_section,
)
from medsum.model import (
    SECTION_KEYS,
    EntityLedger,
    EntityStatus,
    MedicalEntity,
    PromptKind,
)
from medsum.promptkit import load_templates, parse_summary
from medsum.selection import ExamplePool, SelectionQuery, build_index, select_semantic
from medsum.model import ExampleKind, LabeledExample

from conftest import (
    SIX_SECTION_SUMMARY,
    encounter_record,
    make_client,
    make_encounter,
    make_pool,
    prerecord,
    scripted_pipeline_responder,
    write_dataset,
    write_pools,
)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def test_chain_trace_counts(templates, pools, tmp_path):
    """Staged traces are 1 + windows + resolver_fired + 1; baseline traces are 1."""
    with criterion("chain trace counts on scripted replay corpus"):
        started = time.monotonic()

        # (turns, belly marker) pairs; belly windows extract an unknown, so
        # the resolver fires for them when enabled.
        corpus = [
            ("enc-a", 8, True),
            ("enc-b", 8, False),
            ("enc-c", 6, True),
            ("enc-d", 4, False),
            ("enc-e", 5, False),
            ("enc-f", 10, True),
        ]
        cfg_on = ChainConfig()
        cfg_off = ChainConfig(resolver_enabled=False)

        # Record the scripted session once, then run everything from replay.
        store = ReplayStore(tmp_path / "store.jsonl", create=True)
        recording = CompletionClient(
            RecordingTransport(ScriptedTransport(scripted_pipeline_responder), store),
            sleeper=lambda _: None,
        )
        replaying = CompletionClient(ReplayTransport(store), sleeper=lambda _: None)

        phase_records = {}
        for phase, client in (("record", recording), ("replay", replaying)):
            deps = ChainDeps(client=client, templates=templates, pools=pools)
            records = []
            for enc_id, n_turns, belly in corpus:
                enc = make_encounter(enc_id=enc_id, n_turns=n_turns, with_belly=belly)
                windows = len(pair_turns(enc.turns))

                record = run_medsum_ent(enc, cfg_on, deps)
                resolver_fired = 1 if belly else 0
                assert len(record.llm_call_trace) == 1 + windows + resolver_fired + 1
                records.append(record)

                record = run_medsum_ent(enc, cfg_off, deps)
                assert len(record.llm_call_trace) == 1 + windows + 0 + 1
                records.append(record)

                record = run_naive_baseline(enc, cfg_on, deps)
                assert len(record.llm_call_trace) == 1
                records.append(record)
            phase_records[phase] = records

        # Replaying the recorded session reproduces every record, trace and all.
        assert phase_records["record"] == phase_records["replay"]

        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"trace-count suite took {elapsed:.2f}s"


def test_resolver_invariant_suite(templates, pools):
    """Over 1,000 randomized ledgers, definite entities survive resolution
    bit-identically, and a disabled resolver is the identity."""
    with criterion("resolver invariant over 1,000 randomized ledgers"):
        started = time.monotonic()
        rng = random.Random(20240801)
        words = [
            "fever", "cough", "nausea", "back pain", "rash", "chills",
            "headache", "fatigue", "dizziness", "wheezing", "cramps", "itching",
        ]
        statuses = list(EntityStatus)
        enc = make_encounter()

        def scripted_resolver(req):
            if req.prompt_kind is not PromptKind.UNKNOWN_RESOLVER:
                raise AssertionError("only resolver calls expected")
            # Pseudo-random but deterministic verdicts derived from the prompt;
            # sometimes degenerate, sometimes naming out-of-scope entities.
            local = random.Random(hash(req.prompt) & 0xFFFFFFFF)
            if local.random() < 0.1:
                return "the resolver rambles and emits nothing usable"
            lines = []
            for name in local.sample(words, k=local.randint(1, 6)):
                lines.append(f"- {name} ({local.choice(statuses).value})")
            return "\n".join(lines)

        client, _ = make_client(scripted_resolver)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        cfg_on = ChainConfig()
        cfg_off = ChainConfig(resolver_enabled=False)

        for _ in range(1000):
            picked = rng.sample(words, k=rng.randint(1, 8))
            ledger = EntityLedger(
                tuple(
                    MedicalEntity(name, rng.choice(statuses), (f"turn-pair {i}",))
                    for i, name in enumerate(picked)
                )
            )
            resolved = resolve_unknowns(ledger, enc, cfg_on, deps, RunLog())
            before = {e.name: e for e in ledger}
            after = {e.name: e for e in resolved}
            assert set(before) == set(after)
            for name, entity in before.items():
                if entity.status is not EntityStatus.UNKNOWN:
                    assert after[name] == entity  # field-for-field identical

            assert resolve_unknowns(ledger, enc, cfg_off, deps, RunLog()) == ledger

        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"resolver suite took {elapsed:.2f}s"


def test_metric_oracle_equivalence():
    """score_section with the exact-match verifier matches a set-intersection
    brute force on >= 10,000 random concept-set pairs."""
    with criterion("metric oracle equivalence over 10,000 concept-set pairs"):
        alphabet = [f"c{i}" for i in range(10)]  # equal length: no substring traps
        rng = random.Random(7)

        def line_extractor(text):
            return [line.strip() for line in text.splitlines() if line.strip()]

        cases = [([], []), (alphabet[:6], []), ([], alphabet[:6]), (alphabet[:6], alphabet[:6])]
        while len(cases) < 10_000:
            gt = rng.sample(alphabet, k=rng.randint(0, 6))
            pred = rng.sample(alphabet, k=rng.randint(0, 6))
            cases.append((gt, pred))

        for gt_concepts, pred_concepts in cases:
            gt_text = "\n".join(gt_concepts)
            pred_text = "\n".join(pred_concepts)
            score = score_section(
                gt_text, pred_text, exact_match_verifier, line_extractor
            )

            # Independent brute force over plain sets.
            gt_set, pred_set = set(gt_concepts), set(pred_concepts)
            tp_gt = len(gt_set & pred_set)
            f_n = len(gt_set) - tp_gt
            tp_pred = len(pred_set & gt_set)
            f_p = len(pred_set) - tp_pred
            assert (score.tp_gt, score.f_n, score.tp_pred, score.f_p) == (
                tp_gt,
                f_n,
                tp_pred,
                f_p,
            )

            recall = 1.0 if tp_gt + f_n == 0 else tp_gt / (tp_gt + f_n)
            precision = 1.0 if tp_pred + f_p == 0 else tp_pred / (tp_pred + f_p)
            f1 = (
                0.0
                if recall == 0.0 or precision == 0.0
                else 2 * precision * recall / (precision + recall)
            )
            assert abs(score.gpt_recall - recall) <= 1e-12
            assert abs(score.gpt_precision - precision) <= 1e-12
            assert abs(score.gpt_f1 - f1) <= 1e-12
            for value in (score.gpt_recall, score.gpt_precision, score.gpt_f1):
                assert value <= 1.0


def test_identity_corpus_scores_100(tmp_path):
    """cmd_eval on pred == gt with the exact verifier fills every cell with 100.0."""
    with criterion("identity corpus scores 100.0 in every report cell"):
        dataset = tmp_path / "dataset.jsonl"
        summary, _ = parse_summary(SIX_SECTION_SUMMARY)
        write_dataset(
            dataset,
            [
                encounter_record("enc-001", 8, reference=summary.to_dict(), with_belly=True),
                encounter_record("enc-002", 6, reference=summary.to_dict()),
                encounter_record("enc-003", 4, reference=summary.to_dict()),
            ],
        )
        pools_path = tmp_path / "pools.jsonl"
        write_pools(pools_path)
        store = tmp_path / "store.jsonl"
        prerecord(store, dataset, pools_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pools": str(pools_path)}))

        for method in ("medsum", "naive"):
            records = tmp_path / f"{method}.jsonl"
            assert (
                main(
                    [
                        "run",
                        str(dataset),
                        str(records),
                        "--config",
                        str(config),
                        "--method",
                        method,
                        "--backend",
                        "replay",
                        "--replay-store",
                        str(store),
                    ]
                )
                == 0
            )

        combined = tmp_path / "combined.jsonl"
        combined.write_text(
            (tmp_path / "medsum.jsonl").read_text() + (tmp_path / "naive.jsonl").read_text()
        )
        csv_path = tmp_path / "report.csv"
        assert (
            main(
                [
                    "eval",
                    str(combined),
                    str(dataset),
                    "--verifier",
                    "exact",
                    "--csv",
                    str(csv_path),
                    "--jsonl",
                    str(tmp_path / "report.jsonl"),
                ]
            )
            == 0
        )
        with csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        score_columns = (
            "pertinent_positives",
            "pertinent_negatives",
            "pertinent_unknowns",
            "medical_history",
            "average",
        )
        for row in rows:
            for column in score_columns:
                assert row[column] == "100.0", (row["method"], column, row[column])


def test_paraphrase_verifier_contract():
    """A scripted completion-backed judge verifies both paraphrased concepts,
    giving tp_gt = 2 and f_n = 0."""
    with criterion("paraphrase verifier contract (scripted judge)"):
        pred_text = "Patient has back pain and COVID-19"
        gt_text = "Patient has COVID and some pain in the backside"
        gt_concepts = ["COVID", "pain in the back"]
        pred_concepts = ["back pain", "COVID-19"]

        def responder(req):
            assert req.prompt_kind is PromptKind.METRIC_VERIFICATION
            # Every queried concept is a rephrasing of something in the target.
            concepts = [
                line[2:]
                for line in req.prompt.splitlines()
                if line.startswith("- ")
            ]
            return "\n".join("yes" for _ in concepts)

        client, transport = make_client(responder)
        verifier = LLMVerifier(client, load_templates()["metric_verification"])

        verdicts = verifier(gt_concepts, pred_text)
        assert verdicts == [True, True]

        def extractor(text):
            return gt_concepts if text == gt_text else pred_concepts

        score = score_section(gt_text, pred_text, verifier, extractor)
        assert score.tp_gt == 2
        assert score.f_n == 0
        assert score.gpt_recall == 1.0
        # Both metric calls ran at the reproducibility settings.
        for req in transport.requests:
            assert req.params == default_params(PromptKind.METRIC_VERIFICATION)
            assert req.params.temperature == 0.0


def test_knn_equivalence():
    """select_semantic equals a brute-force cosine top-k with the declared
    tie-break over 500 random instances."""
    with criterion("kNN equivalence against brute force over 500 instances"):
        rng = np.random.default_rng(99)
        py_rng = random.Random(99)

        class MappingEmbedder:
            def __init__(self, mapping, dimension):
                self.mapping = mapping
                self.dimension = dimension

            def embed(self, text):
                return self.mapping[text]

        def brute_force(vectors, query, k):
            scores = []
            for i, vector in enumerate(vectors):
                dot = sum(a * b for a, b in zip(vector, query))
                nv = math.sqrt(sum(a * a for a in vector))
                nq = math.sqrt(sum(b * b for b in query))
                scores.append(dot / (nv * nq) if nv > 0 and nq > 0 else 0.0)
            return sorted(range(len(vectors)), key=lambda i: (-scores[i], i))[:k]

        for case in range(500):
            n = py_rng.randint(1, 200)
            dim = py_rng.randint(2, 64)
            k = py_rng.randint(0, n)
            vectors = rng.normal(size=(n, dim)).tolist()
            # Duplicate some rows to force exact ties on a fraction of cases.
            if n >= 2 and case % 5 == 0:
                vectors[n - 1] = list(vectors[0])
            query_vec = rng.normal(size=dim).tolist()

            examples = tuple(
                LabeledExample(
                    kind=ExampleKind.RFE_EXTRACTION,
                    input_text=f"pool member {i}",
                    age=i,
                    sex="x",
                    label="- e (present)",
                )
                for i in range(n)
            )
            mapping = {
                SelectionQuery(ex.age, ex.sex, ex.input_text).render(): vectors[i]
                for i, ex in enumerate(examples)
            }
            query = SelectionQuery(age=1000, sex="q", text="the live query")
            mapping[query.render()] = query_vec
            embedder = MappingEmbedder(mapping, dim)
            pool = build_index(
                ExamplePool(ExampleKind.RFE_EXTRACTION, examples), embedder
            )

            chosen = select_semantic(pool, query, k, embedder)
            chosen_ids = [examples.index(e) for e in chosen]
            assert chosen_ids == brute_force(vectors, query_vec, k), f"case {case}"


def test_backoff_schedule():
    """With jitter 0, recorded delays are exactly base * multiplier**(n-1),
    and attempts never exceed max_attempts."""
    with criterion("exponential backoff schedule and attempt cap"):
        for base, multiplier, failures in ((1.0, 2.0, 2), (0.5, 3.0, 4), (2.0, 1.5, 1)):
            calls = {"n": 0}

            def flaky(req, failures=failures):
                calls["n"] += 1
                if calls["n"] <= failures:
                    raise TransientBackendError("simulated")
                return "ok"

            sleeps = []
            policy = RetryPolicy(
                base_delay=base, multiplier=multiplier, max_attempts=6, jitter_fraction=0.0
            )
            client = CompletionClient(
                ScriptedTransport(flaky), retry_policy=policy, sleeper=sleeps.append
            )
            result = client.complete(
                CompletionRequest.build(PromptKind.SUMMARIZATION, "prompt")
            )
            assert result == "ok"
            assert sleeps == [base * multiplier**n for n in range(failures)]

        # Exhaustion: the transport is tried exactly max_attempts times.
        calls = {"n": 0}

        def always_fails(req):
            calls["n"] += 1
            raise TransientBackendError("simulated")

        policy = RetryPolicy(base_delay=0.0, multiplier=2.0, max_attempts=3, jitter_fraction=0.0)
        client = CompletionClient(
            ScriptedTransport(always_fails), retry_policy=policy, sleeper=lambda _: None
        )
        with pytest.raises(RetryExhaustedError):
            client.complete(CompletionRequest.build(PromptKind.SUMMARIZATION, "prompt"))
        assert calls["n"] == 3


def test_default_params_conformance():
    """The six per-prompt request defaults, verbatim."""
    with criterion("request defaults: six prompt-kind rows verbatim"):
        expected = {
            PromptKind.RFE_EXTRACTION: (0.1, 200, 1.0),
            PromptKind.DIALOGUE_EXTRACTION: (0.1, 200, 1.0),
            PromptKind.UNKNOWN_RESOLVER: (0.1, 200, 1.0),
            PromptKind.SUMMARIZATION: (0.7, 512, 1.0),
            PromptKind.METRIC_EXTRACTION: (0.0, 200, 1.0),
            PromptKind.METRIC_VERIFICATION: (0.0, 200, 1.0),
        }
        for kind, (temperature, max_tokens, top_p) in expected.items():
            assert default_params(kind) == CompletionParams(temperature, max_tokens, top_p)


def test_end_to_end_determinism(tmp_path):
    """Identical seed + replay store give byte-identical record files and
    byte-identical CSV reports across two full runs."""
    with criterion("end-to-end determinism (records and CSV byte-identical)"):
        dataset = tmp_path / "dataset.jsonl"
        summary, _ = parse_summary(SIX_SECTION_SUMMARY)
        write_dataset(
            dataset,
            [
                encounter_record("enc-001", 8, reference=summary.to_dict(), with_belly=True),
                encounter_record("enc-002", 6, reference=summary.to_dict()),
                encounter_record("enc-003", 4, reference=summary.to_dict()),
                encounter_record("enc-004", 10, reference=summary.to_dict(), with_belly=True),
                encounter_record("enc-005", 5, reference=summary.to_dict()),
            ],
        )
        pools_path = tmp_path / "pools.jsonl"
        write_pools(pools_path)
        store = tmp_path / "store.jsonl"
        cfg = ChainConfig(extraction_k=3, run_seed=17)
        prerecord(store, dataset, pools_path, configs=(cfg,))
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"pools": str(pools_path), "extraction_k": 3, "seed": 17})
        )

        outputs = []
        reports = []
        for run_index in (1, 2):
            records = tmp_path / f"records-{run_index}.jsonl"
            code = main(
                [
                    "run",
                    str(dataset),
                    str(records),
                    "--config",
                    str(config),
                    "--method",
                    "medsum",
                    "--backend",
                    "replay",
                    "--replay-store",
                    str(store),
                    "--seed",
                    "17",
                    "--workers",
                    "4",
                ]
            )
            assert code == 0
            outputs.append(records.read_bytes())

            csv_path = tmp_path / f"report-{run_index}.csv"
            code = main(
                [
                    "eval",
                    str(records),
                    str(dataset),
                    "--verifier",
                    "exact",
                    "--csv",
                    str(csv_path),
                    "--jsonl",
                    str(tmp_path / f"report-{run_index}.jsonl"),
                ]
            )
            assert code == 0
            reports.append(csv_path.read_bytes())

        assert outputs[0] == outputs[1]
        assert reports[0] == reports[1]
        assert (tmp_path / "report-1.jsonl").read_bytes() == (
            tmp_path / "report-2.jsonl"
        ).read_bytes()


def test_summary_parser_recovers_bold_header_fixture():
    """parse_summary handles the bold-header-with-colon summary style."""
    with criterion("summary parser recovers all six sections from fixture"):
        raw = (FIXTURES / "summary_bold_headers.txt").read_text(encoding="utf-8")
        summary, warnings = parse_summary(raw)
        for key in SECTION_KEYS:
            assert summary.section(key), f"section {key} came back empty"
        assert summary.medical_intent.startswith("Patient came in asking")
        assert "seasonal allergies" in summary.pertinent_unknowns
        assert "no fever" in summary.pertinent_negatives
        assert not any(w.startswith("missing section") for w in warnings)
