"""Pinned output bytes of the sample corpus.

Both methods run `sample_data/encounters.jsonl` through a scripted transport
under random and semantic selection, 0- and 1-shot summarization, and the
records are then scored with the LLM extractor and verifier over fixed
replies. The SHA-256 digests of the record lines and of both reports are
constants, so a refactor that changes any byte of either fails here, not
only within one run as the determinism tests check.
"""

import hashlib
import json
from pathlib import Path

import medsum.cli as cli
import medsum.selection as selection
from medsum.backend import CompletionClient, HashEmbedder, ReplayStore, ScriptedTransport
from medsum.chain import ChainConfig, ChainDeps, SelectionMode, run_many
from medsum.cli import load_dataset
from medsum.metrics import (
    EncounterEvaluation,
    LLMConceptExtractor,
    LLMVerifier,
    RowKey,
    aggregate,
    evaluate_encounter,
    write_csv_report,
    write_jsonl_report,
)
from medsum.model import Method, PromptKind
from medsum.promptkit import load_templates
from medsum.selection import build_index, load_example_pools

from conftest import reference_permutation, scripted_pipeline_responder

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data"

RECORDS_SHA256 = "515da6b06eace4180051654a346c989cd6353bb1a99eeeffd3628b32168cbfdd"
CSV_SHA256 = "8718205f434d0950e9bad73a406dc9d99ee96d64bfbf5d91f8ee6b7194c80f98"
JSONL_SHA256 = "138d8a275cf2d960e529bc4abed5c31e65a9a091848d51e864ef1e7c42d53506"
# The sorted cache keys of every metric-judge request of that eval; they
# appear in no record or report, only in a recorded metric store.
METRIC_KEYS_SHA256 = "16edc5c3acb8c41a200d4bf293bd9a3a71d01cf39269a9e25514538117f6fabc"
# The little-endian float64 rows `HashEmbedder().embed_many` gives for every
# distinct text the sample runs embed, sorted.
EMBEDDING_ROWS_SHA256 = "189a02a0ef6f67ad25d7e2135d847ccbdbee6927a9e7ce0e83b4fef8834ea927"


def metric_responder(req):
    """Two concepts for every extraction; a yes and a no for every
    verification (each verification therefore asks about two concepts)."""
    if req.prompt_kind is PromptKind.METRIC_EXTRACTION:
        return "- first concept\n- second concept"
    if req.prompt_kind is PromptKind.METRIC_VERIFICATION:
        return "yes\nno"
    raise AssertionError(f"unexpected prompt kind {req.prompt_kind}")


def sample_records():
    encounters = load_dataset(SAMPLE / "encounters.jsonl")
    pools = load_example_pools(SAMPLE / "pools.jsonl")
    embedder = HashEmbedder()
    templates = load_templates()
    records = []
    for method in (Method.MEDSUM_ENT, Method.NAIVE_BASELINE):
        for mode in SelectionMode:
            for summarization_k in (0, 1):
                cfg = ChainConfig(
                    extraction_k=3,
                    summarization_k=summarization_k,
                    selection_mode=mode,
                    run_seed=7,
                )
                mode_pools = pools
                if mode is SelectionMode.SEMANTIC:
                    mode_pools = {kind: build_index(pool, embedder) for kind, pool in pools.items()}
                client = CompletionClient(
                    ScriptedTransport(scripted_pipeline_responder), sleeper=lambda _: None
                )
                deps = ChainDeps(client, templates, mode_pools, embedder)
                for outcome in run_many(encounters, cfg, deps, method, workers=2):
                    assert outcome.error is None, outcome.error
                    records.append(outcome.record)
    return encounters, records


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_sample_corpus_output_bytes_are_pinned(tmp_path):
    encounters, records = sample_records()
    lines = "".join(
        json.dumps(r.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        for r in records
    )
    assert sha256(lines.encode("utf-8")) == RECORDS_SHA256

    client = CompletionClient(ScriptedTransport(metric_responder), sleeper=lambda _: None)
    templates = load_templates()
    extractor = LLMConceptExtractor(client, templates["metric_extraction"])
    verifier = LLMVerifier(client, templates["metric_verification"])
    references = {enc.id: enc.reference_summary for enc in encounters}
    evaluations = [
        EncounterEvaluation(
            r.encounter_id,
            RowKey.from_record(r),
            evaluate_encounter(r.summary, references[r.encounter_id], verifier, extractor),
        )
        for r in records
        if references[r.encounter_id] is not None
    ]
    csv_path, jsonl_path = tmp_path / "report.csv", tmp_path / "report.jsonl"
    write_csv_report(aggregate(evaluations), csv_path)
    write_jsonl_report(evaluations, jsonl_path)
    assert sha256(csv_path.read_bytes()) == CSV_SHA256
    assert sha256(jsonl_path.read_bytes()) == JSONL_SHA256


def test_metric_request_keys_are_pinned(tmp_path, monkeypatch):
    """`eval --verifier llm --backend record` over the sample records stores
    the metric judge's completions under pinned keys, and writes the pinned
    reports."""
    _, records = sample_records()
    records_path = tmp_path / "records.jsonl"
    records_path.write_text(
        "".join(
            json.dumps(r.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
            for r in records
        ),
        encoding="utf-8",
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"endpoint": "http://localhost:9/never-contacted"}))
    # The recording store wraps this scripted transport in place of HTTP.
    monkeypatch.setattr(cli, "HTTPTransport", lambda *a, **kw: ScriptedTransport(metric_responder))
    store = tmp_path / "metric_store.jsonl"
    code = cli.main([
        "eval", str(records_path), str(SAMPLE / "encounters.jsonl"),
        "--verifier", "llm", "--config", str(config),
        "--backend", "record", "--replay-store", str(store),
        "--csv", str(tmp_path / "report.csv"), "--jsonl", str(tmp_path / "report.jsonl"),
    ])
    assert code == 0
    keys = sorted(json.loads(line)["key_hex"] for line in store.read_text().splitlines())
    assert len(keys) == len(ReplayStore(store))
    assert sha256("".join(k + "\n" for k in keys).encode("ascii")) == METRIC_KEYS_SHA256
    assert sha256((tmp_path / "report.csv").read_bytes()) == CSV_SHA256
    assert sha256((tmp_path / "report.jsonl").read_bytes()) == JSONL_SHA256


def test_run_writes_the_json_dumps_reference_bytes(tmp_path, monkeypatch):
    """`medsum run` on the sample corpus writes each record as
    json.dumps(to_json_dict(), sort_keys=True, separators=(",", ":")), and
    each store line as the json.dumps of its three keys."""
    settings = {"extraction_k": 3, "summarization_k": 1, "seed": 7}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **settings, "pools": str(SAMPLE / "pools.jsonl"),
        "endpoint": "http://localhost:9/never-contacted",
    }))
    # The recording store wraps this scripted transport in place of HTTP.
    monkeypatch.setattr(
        cli, "HTTPTransport", lambda *a, **kw: ScriptedTransport(scripted_pipeline_responder)
    )
    output, store = tmp_path / "records.jsonl", tmp_path / "store.jsonl"
    code = cli.main([
        "run", str(SAMPLE / "encounters.jsonl"), str(output), "--config", str(config),
        "--backend", "record", "--replay-store", str(store),
    ])
    assert code == 0

    client = CompletionClient(
        ScriptedTransport(scripted_pipeline_responder), sleeper=lambda _: None
    )
    deps = ChainDeps(client, load_templates(), load_example_pools(SAMPLE / "pools.jsonl"))
    cfg = cli.build_chain_config(settings, None)
    outcomes = run_many(load_dataset(SAMPLE / "encounters.jsonl"), cfg, deps, Method.MEDSUM_ENT)
    expected = "".join(
        json.dumps(outcome.record.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        for outcome in outcomes
    )
    assert output.read_bytes() == expected.encode("ascii")
    for line in store.read_text(encoding="ascii").splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


def test_numpy_draws_behind_the_pinned_bytes(monkeypatch):
    """The two numpy `Generator` draws the sample records rest on, each
    pinned on its own: every `_order` permutation drawn is the pure-Python
    reference stream, and every embedded text's row has pinned bytes."""
    texts, draws = [], []
    embed_many, order = HashEmbedder.embed_many, selection._order
    monkeypatch.setattr(
        HashEmbedder, "embed_many", lambda self, batch: texts.extend(batch) or embed_many(self, batch)
    )
    monkeypatch.setattr(selection, "_order", lambda seed, n: draws.append((seed, n)) or order(seed, n))
    sample_records()
    assert draws and texts
    for seed, n in set(draws):
        assert order(seed, n).tolist() == reference_permutation(seed, n)
    rows = HashEmbedder().embed_many(sorted(set(texts)))
    assert sha256(rows.astype("<f8").tobytes()) == EMBEDDING_ROWS_SHA256
