"""The paper's configuration grid over encounters of the paper's size.

MEDSUM-ENT runs at extraction 1, 3 and 5 shots, with random or semantic
selection, and a summary prompt of 0 or 1 shot; the naive baseline runs at
0 shots. Each runs 100 encounters drawn by `paper_encounters` (seed 0) on
the scripted responder, with `sample_data`'s example pools and the default
budget. An encounter of that size may not fit the budget: its resolver or
summary prompt, which hold the whole conversation, is refused. The number
refused is pinned per configuration, as measured, and not hidden by
choosing shorter encounters.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import make_client, paper_shaped_encounters, scripted_pipeline_responder
from medsum.backend import (
    CompletionClient,
    HashEmbedder,
    RecordingTransport,
    ReplayStore,
    ReplayTransport,
    ScriptedTransport,
)
from medsum.chain import (
    ChainConfig,
    ChainDeps,
    ChainError,
    SelectionMode,
    encounter_seed,
    encounter_text,
    pair_turns,
    run_many,
    run_medsum_ent,
)
from medsum.model import ExampleKind, Method, PromptKind, Speaker
from medsum.promptkit import BudgetExceededError, bind
from medsum.selection import (
    SelectionQuery,
    build_index,
    load_example_pools,
    select_random,
    select_semantic,
)
from paper_encounters import MAX_TURNS, MAX_WORDS, MIN_TURNS, MIN_WORDS, paper_encounters

ROOT = Path(__file__).resolve().parent.parent
CORPUS = paper_encounters(100, seed=0)

MEDSUM_ENT_GRID = [
    (extraction_k, mode, summarization_k)
    for extraction_k in (1, 3, 5)
    for mode in SelectionMode
    for summarization_k in (0, 1)
]

# Encounters refused per stage, by summary shots. Neither the extraction
# shots nor the selection mode move them: an extraction prompt holds one
# turn window, and the failing prompts hold the whole conversation. The
# resolver fires on the encounters that mention the belly, and its prompt
# is refused on 20 of them. A summary example lengthens the summary prompt,
# so three more encounters' summaries are refused at 1 shot (17, not 14).
MEDSUM_ENT_FAILURES = {
    0: {"unknown resolution": 20, "summarization": 14},
    1: {"unknown resolution": 20, "summarization": 17},
}
BASELINE_FAILURES = {"summarization": 34}

# Of the failed MEDSUM-ENT encounters, how many a lower-bound check refuses
# before the first call: the summary prompt bound with the encounter's
# selected examples, and the conversation with an empty ledger as its input.
# At 1 shot it misses one encounter, whose ledger is what tips it over.
LOWER_BOUND_CATCHES = {0: 34, 1: 36}


@pytest.fixture(scope="module")
def example_pools():
    """`sample_data`'s pools by selection mode: as loaded, and indexed by
    the hash embedder for semantic selection."""
    embedder = HashEmbedder()
    pools = load_example_pools(ROOT / "sample_data" / "pools.jsonl")
    indexed = {kind: build_index(pool, embedder) for kind, pool in pools.items()}
    return {SelectionMode.RANDOM: pools, SelectionMode.SEMANTIC: indexed}, embedder


def _deps(client, templates, example_pools, mode):
    pools, embedder = example_pools
    return ChainDeps(client, templates, pools[mode], embedder)


def _mentions_belly(enc):
    return any("belly" in turn.text for turn in enc.turns)


def _expected_trace(enc):
    """The prompt kinds of a MEDSUM-ENT record's trace, in order."""
    windows = len(pair_turns(enc.turns))
    resolver = [PromptKind.UNKNOWN_RESOLVER] if _mentions_belly(enc) else []
    return [PromptKind.RFE_EXTRACTION, *[PromptKind.DIALOGUE_EXTRACTION] * windows,
            *resolver, PromptKind.SUMMARIZATION]


def _failures(outcomes):
    """The stages the failed outcomes name, counted, checking that each
    failure is a ChainError at the resolver or the summary."""
    stages = {}
    for outcome in outcomes:
        if outcome.error is not None:
            assert isinstance(outcome.error, ChainError), outcome.error
            assert isinstance(outcome.error.__cause__, BudgetExceededError), outcome.error
            stages[outcome.error.stage] = stages.get(outcome.error.stage, 0) + 1
    return stages


def _refused_up_front(enc, cfg, deps):
    """Whether the summary prompt, bound with the examples the chain selects
    for `enc`, is over budget with only the conversation as its input."""
    conversation = encounter_text(enc)
    examples, k = [], cfg.summarization_k
    if k:
        pool = deps.pools[ExampleKind.SUMMARIZATION]
        if cfg.selection_mode is SelectionMode.RANDOM:
            examples = select_random(pool, k, encounter_seed(enc.id, cfg.run_seed))
        else:
            query = SelectionQuery(age=enc.age, sex=enc.sex, text=conversation)
            examples = select_semantic(pool, query, k, deps.embedder)
    prompt = bind(deps.templates["summarization"], age=enc.age, sex=enc.sex,
                  examples=examples, budget=cfg.budget)
    try:
        prompt.check("Conversation:\n" + conversation + "\n\nExtracted medical entities:\n")
    except BudgetExceededError:
        return True
    return False


def test_the_corpus_has_the_papers_shape():
    turns = [len(enc.turns) for enc in CORPUS]
    words = [sum(len(turn.text.split()) for turn in enc.turns) for enc in CORPUS]
    assert MIN_TURNS <= min(turns) and max(turns) <= MAX_TURNS
    assert 43 <= sum(turns) / len(turns) <= 49  # the paper's mean is 46
    assert 2_150 <= sum(words) / len(words) <= 2_550  # the paper's mean is 2,342
    assert 0 < sum(map(_mentions_belly, CORPUS)) < len(CORPUS)
    windows = [len(window) for enc in CORPUS for window in pair_turns(enc.turns)]
    assert {1, 2} <= set(windows)


@pytest.mark.parametrize("extraction_k,mode,summarization_k", MEDSUM_ENT_GRID)
def test_medsum_ent_grid(templates, example_pools, extraction_k, mode, summarization_k):
    cfg = ChainConfig(extraction_k=extraction_k, summarization_k=summarization_k,
                      selection_mode=mode)
    client, _ = make_client(scripted_pipeline_responder)
    deps = _deps(client, templates, example_pools, mode)
    outcomes = list(run_many(CORPUS, cfg, deps, Method.MEDSUM_ENT))
    assert _failures(outcomes) == MEDSUM_ENT_FAILURES[summarization_k]
    caught = 0
    for enc, outcome in zip(CORPUS, outcomes):
        refused = _refused_up_front(enc, cfg, deps)
        if outcome.record is not None:
            kinds = [entry.prompt_kind for entry in outcome.record.llm_call_trace]
            assert kinds == _expected_trace(enc)
            assert not refused  # the check is a lower bound: it refuses none that ran
        else:
            caught += refused
            if outcome.error.stage == "unknown resolution":
                assert _mentions_belly(enc)
    assert caught == LOWER_BOUND_CATCHES[summarization_k]


def test_naive_baseline_at_zero_shots(templates):
    client, transport = make_client(scripted_pipeline_responder)
    deps = ChainDeps(client, templates)
    outcomes = list(run_many(CORPUS, ChainConfig(), deps, Method.NAIVE_BASELINE))
    assert _failures(outcomes) == BASELINE_FAILURES
    for outcome in outcomes:
        if outcome.record is not None:
            assert [entry.prompt_kind for entry in outcome.record.llm_call_trace] == [
                PromptKind.SUMMARIZATION]
    # A refused baseline prompt is refused before its one call is sent.
    assert len(transport.requests) == len(CORPUS) - BASELINE_FAILURES["summarization"]


def test_replaying_a_recorded_grid_cell_gives_the_same_outcomes(
    tmp_path, templates, example_pools
):
    cfg = ChainConfig(extraction_k=3, summarization_k=1, selection_mode=SelectionMode.SEMANTIC)
    store_path = tmp_path / "store.jsonl"

    def outcomes(transport):
        client = CompletionClient(transport, sleeper=lambda _: None)
        deps = _deps(client, templates, example_pools, cfg.selection_mode)
        try:
            return [
                (o.encounter_id, o.record and o.record.to_json_line(), o.error and str(o.error))
                for o in run_many(CORPUS, cfg, deps, Method.MEDSUM_ENT)
            ]
        finally:
            client.close()

    recorded = outcomes(RecordingTransport(
        ScriptedTransport(scripted_pipeline_responder), ReplayStore(store_path, create=True)
    ))
    assert outcomes(ReplayTransport(ReplayStore(store_path))) == recorded
    assert sum(error is not None for _, _, error in recorded) == sum(
        MEDSUM_ENT_FAILURES[1].values())


@settings(max_examples=20, deadline=None)
@given(paper_shaped_encounters())
def test_a_paper_shaped_encounter_runs_or_fails_at_a_whole_conversation_prompt(
    templates, example_pools, enc
):
    assert MIN_TURNS <= len(enc.turns) <= MAX_TURNS
    assert enc.turns[0].speaker is Speaker.DOCTOR and enc.rfe and enc.reference_summary
    assert all(MIN_WORDS <= len(turn.text.split()) <= MAX_WORDS for turn in enc.turns)
    client, _ = make_client(scripted_pipeline_responder)
    deps = _deps(client, templates, example_pools, SelectionMode.RANDOM)
    try:
        record = run_medsum_ent(enc, ChainConfig(), deps)
    except ChainError as exc:
        assert exc.stage in {"unknown resolution", "summarization"}
        assert isinstance(exc.__cause__, BudgetExceededError)
    else:
        assert [entry.prompt_kind for entry in record.llm_call_trace] == _expected_trace(enc)
