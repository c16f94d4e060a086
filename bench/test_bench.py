"""Checks of the benchmark's own parts: the corpus generator, the stand-in
endpoint, the tracer and the reference clock.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import medsum.backend as backend
import medsum.chain as chain
from medsum.backend import CompletionClient, ScriptedTransport, TransientBackendError
from medsum.chain import ChainConfig, ChainDeps, run_medsum_ent
from medsum.cli import load_dataset
from medsum.metrics import LLMConceptExtractor, LLMVerifier, evaluate_encounter
from medsum.model import SECTION_KEYS, EntityLedger, Method, PromptKind, RunRecord, StructuredSummary
from medsum.promptkit import load_templates, parse_entity_list, parse_summary
from medsum.selection import load_example_pools

from corpus import CorpusSpec, content_problems, generate_corpus, generate_pools, write_jsonl
from endpoint import StandInEndpoint, respond
from hostspeed import PROBE_REF_S, ReferenceClock
from spans import SpanIndex, Tracer, busy_time
from workloads import layer_metrics

SMALL = CorpusSpec(encounters=6, min_turns=16, max_turns=26)


def _chain_setup(tmp_path, seed=1):
    """Encounters of SMALL with their facts, and chain deps over a stand-in."""
    pools_path, dataset_path = tmp_path / "pools.jsonl", tmp_path / "dataset.jsonl"
    write_jsonl(pools_path, generate_pools(seed, size=20, summaries=4))
    records, facts = generate_corpus(seed, SMALL)
    write_jsonl(dataset_path, records)
    endpoint = StandInEndpoint()
    deps = ChainDeps(client=CompletionClient(endpoint), templates=load_templates(),
                     pools=load_example_pools(pools_path))
    return load_dataset(dataset_path), facts, endpoint, deps


def test_corpus_is_seeded_and_loads(tmp_path):
    paths = [tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl")]
    write_jsonl(paths[0], generate_corpus(7, SMALL)[0])
    write_jsonl(paths[1], generate_corpus(7, SMALL)[0])
    write_jsonl(paths[2], generate_corpus(8, SMALL)[0])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()

    encounters = load_dataset(paths[0])
    assert len(encounters) == SMALL.encounters
    assert all(enc.reference_summary is not None for enc in encounters)
    assert sorted(len(e.turns) for e in encounters) == sorted(
        len(e.turns) for e in load_dataset(paths[2])
    )


def test_pools_are_seeded_and_load(tmp_path):
    first, second = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
    write_jsonl(first, generate_pools(3, size=20, summaries=4))
    write_jsonl(second, generate_pools(3, size=20, summaries=4))
    assert first.read_bytes() == second.read_bytes()
    pools = load_example_pools(first)
    assert sorted(len(pool) for pool in pools.values()) == [4, 20, 20]


def test_every_stand_in_response_parses(tmp_path):
    encounters, facts, endpoint, deps = _chain_setup(tmp_path)
    cfg = ChainConfig(extraction_k=3, summarization_k=1)
    extractor = LLMConceptExtractor(deps.client, deps.templates["metric_extraction"])
    verifier = LLMVerifier(deps.client, deps.templates["metric_verification"])

    for enc in encounters:
        run = run_medsum_ent(enc, cfg, deps)
        assert len(run.llm_call_trace) == facts[enc.id]["calls"]
        assert content_problems(run, facts[enc.id]) == []
        evaluate_encounter(run.summary, enc.reference_summary, verifier, extractor)

    kinds = {req.prompt_kind for req in endpoint.answered}
    assert kinds == set(PromptKind)
    for req in endpoint.answered:
        text = respond(req)
        if req.prompt_kind in (PromptKind.RFE_EXTRACTION, PromptKind.DIALOGUE_EXTRACTION,
                               PromptKind.UNKNOWN_RESOLVER):
            _, warnings = parse_entity_list(text)
            assert warnings == []
        elif req.prompt_kind is PromptKind.SUMMARIZATION:
            summary, warnings = parse_summary(text)
            assert warnings == [] and set(summary.to_dict()) == set(SECTION_KEYS)


def test_stand_in_latency_and_first_attempt_failures():
    req = backend.CompletionRequest.build(
        PromptKind.METRIC_EXTRACTION, "Text:\nPatient reports fever.\nConcepts:"
    )
    endpoint = StandInEndpoint(latency_s=0.002, failure_share=1.0, seed=5)
    start = time.perf_counter()
    with pytest.raises(TransientBackendError):
        endpoint.send(req)
    assert endpoint.send(req) == "- fever"
    assert time.perf_counter() - start >= 0.004
    assert StandInEndpoint(failure_share=0.0).send(req) == "- fever"


def test_tracer_nests_spans_and_restores_bindings():
    originals = (backend.cache_key, chain.cache_key, CompletionClient.complete, chain.render)
    client = CompletionClient(ScriptedTransport(lambda req: "- fever (absent)"))
    req = backend.CompletionRequest.build(PromptKind.RFE_EXTRACTION, "prompt")
    with Tracer() as tracer:
        assert chain.cache_key is backend.cache_key is not originals[0]
        client.complete(req)
    assert (backend.cache_key, chain.cache_key, CompletionClient.complete, chain.render) == originals

    index = SpanIndex(tracer.spans)
    (complete,) = index.by_name["backend.complete"]
    assert complete[6] == "rfe_extraction"
    assert [c[1] for c in index.children[complete[0]]] == ["backend.cache_key"]
    assert 0 <= index.self_time(complete) <= complete[3] - complete[2]


def test_busy_time_merges_overlaps():
    assert busy_time([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (3.2, 3.5)]) == pytest.approx(3.0)
    assert busy_time([]) == 0.0


def test_reference_clock_scales_by_the_mean_probe():
    clock = ReferenceClock()
    probes = iter([0.02])
    clock.last = 0.01
    clock.probe = lambda: next(probes)
    result, wall, scale = clock.run(lambda: "done")
    assert result == "done" and wall >= 0
    assert scale == pytest.approx(PROBE_REF_S / 0.015)
    assert clock.last == 0.02


def test_content_check_catches_dropped_entities_and_empty_sections(tmp_path, monkeypatch):
    encounters, facts, _, deps = _chain_setup(tmp_path)
    cfg = ChainConfig(extraction_k=3, summarization_k=1)
    enc = encounters[0]
    run = run_medsum_ent(enc, cfg, deps)
    assert content_problems(run, facts[enc.id]) == []

    dropped = dataclasses.replace(run, ledger=EntityLedger(run.ledger.entities[:-1]))
    assert content_problems(dropped, facts[enc.id])
    emptied = dataclasses.replace(run, summary=StructuredSummary(
        **{**run.summary.to_dict(), "pertinent_negatives": ""}))
    assert content_problems(emptied, facts[enc.id])

    monkeypatch.setattr(chain, "parse_summary", lambda text: (StructuredSummary(), []))
    assert content_problems(run_medsum_ent(enc, cfg, deps), facts[enc.id])


def _pooled_run_medsum_ent(enc, cfg, deps):
    """run_medsum_ent with its turn windows extracted on a thread pool."""
    log = chain.RunLog()
    lists = [chain.extract_rfe_entities(enc, cfg, deps, log)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        lists += pool.map(lambda item: chain.extract_turn_entities(item[1], item[0], enc, cfg, deps, log),
                          enumerate(chain.pair_turns(enc.turns)))
    ledger = chain.resolve_unknowns(chain.collate(lists), enc, cfg, deps, log)
    summary = chain.summarize(enc, ledger, cfg, deps, log)
    return RunRecord(encounter_id=enc.id, method=Method.MEDSUM_ENT, config=cfg.snapshot(),
                     ledger=ledger, summary=summary, llm_call_trace=tuple(log.trace))


def test_tracer_follows_calls_fanned_out_to_a_pool(tmp_path, monkeypatch):
    encounters, facts, _, deps = _chain_setup(tmp_path)
    monkeypatch.setattr(chain, "run_medsum_ent", _pooled_run_medsum_ent)
    cfg = ChainConfig(extraction_k=3, summarization_k=1)
    submit = ThreadPoolExecutor.submit
    with Tracer() as tracer:
        runs = [chain.run_medsum_ent(enc, cfg, deps) for enc in encounters[:2]]
    assert (chain.run_medsum_ent, ThreadPoolExecutor.submit) == (_pooled_run_medsum_ent, submit)

    index = SpanIndex(tracer.spans)
    ids = {run.encounter_id for run in runs}
    assert {s[5] for s in index.by_name["backend.complete"]} == ids
    assert {s[5] for s in index.by_name["promptkit.render"]} == ids
    figures = layer_metrics(index, distinct_keys=0, retries=0, backoff_s=0.0, latency_s=0.0)
    assert figures["chain.calls_per_enc"] == sum(facts[i]["calls"] for i in ids) / 2
    for span in index.by_name["chain.run_medsum_ent"]:
        assert 0 <= index.self_time(span) <= span[3] - span[2]
        assert {c[1] for c in index.children[span[0]]} >= {"backend.complete", "selection.select_random"}
