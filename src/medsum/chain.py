"""Staged summarization pipeline and the single-prompt baseline.

The staged run extracts entities from the opening patient message, then from
each doctor/patient turn window, collates everything into a deduplicated
ledger, optionally re-examines unknown-status entities against the whole
conversation, and finally summarizes conditioned on the ledger. The baseline
issues one summarization call with no entity grounding.
"""

from __future__ import annotations

import hashlib
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .backend import (
    CompletionClient,
    CompletionRequest,
    EmbeddingGateway,
    PendingCall,
    cache_key,
    default_params,
)
from .model import (
    Encounter,
    EntityLedger,
    EntityStatus,
    ExampleKind,
    LabeledExample,
    MedicalEntity,
    Method,
    PromptKind,
    RunRecord,
    Speaker,
    StructuredSummary,
    TraceEntry,
    Turn,
    _checked_entity,
    _checked_ledger,
    _checked_trace_entry,
)
from .promptkit import (
    PromptTemplate,
    TokenBudget,
    bind,
    parse_entity_list,
    parse_summary,
    render,
    request_builder,
    serialize_entity_list,
    serialize_ledger,
)
from .selection import (
    ExamplePool,
    SelectionQuery,
    select_random,
    select_semantic,
    select_semantic_many,
)

logger = logging.getLogger(__name__)

__all__ = [
    "SelectionMode",
    "ChainConfig",
    "ChainDeps",
    "ChainError",
    "RunLog",
    "encounter_seed",
    "encounter_text",
    "window_text",
    "pair_turns",
    "extract_rfe_entities",
    "extract_turn_entities",
    "collate",
    "resolve_unknowns",
    "summarize",
    "run_medsum_ent",
    "run_naive_baseline",
    "RunOutcome",
    "run_many",
]

_EXTRACTION_K_CHOICES = (1, 3, 5)
_SEED_MASK = 0xFFFFFFFFFFFFFFFF
# What starts a turn's line in the conversation text.
_SPEAKER_LABEL = {speaker: speaker.value.capitalize() + ": " for speaker in Speaker}


class SelectionMode(str, Enum):
    RANDOM = "random"
    SEMANTIC = "semantic"


class ChainError(RuntimeError):
    """A pipeline stage failed for one encounter; other encounters are unaffected."""

    def __init__(self, encounter_id: str, stage: str, cause: Exception):
        self.encounter_id = encounter_id
        self.stage = stage
        super().__init__(f"encounter {encounter_id}: {stage} failed: {cause}")


@dataclass(frozen=True)
class ChainConfig:
    """Run configuration snapshot.

    extraction_k is 1, 3, or 5 (extraction prompts always carry at least one
    example to anchor the output grammar); summarization cannot go beyond
    1-shot. The per-encounter selection seed is a stable hash of the
    encounter id XORed with run_seed, so selections differ across encounters
    but reproduce across runs.
    """

    extraction_k: int = 1
    summarization_k: int = 0
    selection_mode: SelectionMode = SelectionMode.RANDOM
    resolver_enabled: bool = True
    resolver_fail_closed: bool = False
    run_seed: int = 0
    budget: TokenBudget = field(default_factory=TokenBudget)

    def __post_init__(self) -> None:
        object.__setattr__(self, "selection_mode", SelectionMode(self.selection_mode))
        if self.extraction_k not in _EXTRACTION_K_CHOICES:
            raise ValueError(
                f"extraction_k must be one of {_EXTRACTION_K_CHOICES}, got {self.extraction_k}"
            )
        if self.summarization_k not in (0, 1):
            raise ValueError(
                f"summarization_k must be 0 or 1, got {self.summarization_k}"
            )

    def snapshot(self) -> dict[str, Any]:
        return {
            "extraction_k": self.extraction_k,
            "summarization_k": self.summarization_k,
            "selection_mode": self.selection_mode.value,
            "resolver_enabled": self.resolver_enabled,
            "resolver_fail_closed": self.resolver_fail_closed,
            "run_seed": self.run_seed,
            "max_context_tokens": self.budget.max_context_tokens,
            "inflation_factor": self.budget.inflation_factor,
        }

    def shots(self, kind: ExampleKind) -> tuple[str, int]:
        """The setting that says how many examples of `kind` a prompt takes, and its value."""
        name = "summarization_k" if kind is ExampleKind.SUMMARIZATION else "extraction_k"
        return name, getattr(self, name)


@dataclass
class ChainDeps:
    """Everything a run needs: the completion client, templates, example
    pools, and (for semantic selection) an embedding gateway."""

    client: CompletionClient
    templates: Mapping[str, PromptTemplate]
    pools: Mapping[ExampleKind, ExamplePool] = field(default_factory=dict)
    embedder: EmbeddingGateway | None = None


@dataclass
class RunLog:
    """Per-run sinks for the call trace and non-fatal warnings."""

    trace: list[TraceEntry] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def encounter_seed(encounter_id: str, run_seed: int) -> int:
    """Stable 64-bit per-encounter selection seed."""
    digest = hashlib.sha256(encounter_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") ^ (run_seed & _SEED_MASK)


def encounter_text(enc: Encounter) -> str:
    """The whole conversation as plain text, opening message first."""
    lines = [f"Reason for encounter: {enc.rfe}"]
    lines.extend(_SPEAKER_LABEL[t.speaker] + t.text for t in enc.turns)
    return "\n".join(lines)


def window_text(window: Sequence[Turn]) -> str:
    return "\n".join(_SPEAKER_LABEL[t.speaker] + t.text for t in window)


def pair_turns(turns: Sequence[Turn]) -> list[tuple[Turn, ...]]:
    """Group turns into consecutive doctor-then-patient windows.

    A turn that does not complete a doctor/patient pair (doubled speaker,
    interleaved or trailing turn) becomes a singleton window, so every turn
    lands in exactly one window.
    """
    windows: list[tuple[Turn, ...]] = []
    i = 0
    while i < len(turns):
        if (
            i + 1 < len(turns)
            and turns[i].speaker is Speaker.DOCTOR
            and turns[i + 1].speaker is Speaker.PATIENT
        ):
            windows.append((turns[i], turns[i + 1]))
            i += 2
        else:
            windows.append((turns[i],))
            i += 1
    return windows


def _select_examples(
    kind: ExampleKind, query_texts: Sequence[str], enc: Encounter, cfg: ChainConfig,
    deps: ChainDeps,
) -> list[list[LabeledExample]]:
    """The configured number of examples of `kind` for the prompt of each
    input text; a random draw ignores the text, so all share one list. One
    text takes the one-query `select_semantic`, more are scored together."""
    _, k = cfg.shots(kind)
    if k == 0 or not query_texts:
        return [[]] * len(query_texts)
    pool = deps.pools.get(kind)
    if pool is None:
        raise ValueError(f"no example pool configured for kind {kind.value!r}")
    if cfg.selection_mode is SelectionMode.RANDOM:
        return [select_random(pool, k, encounter_seed(enc.id, cfg.run_seed))] * len(query_texts)
    if deps.embedder is None:
        raise ValueError("semantic selection needs an embedding gateway")
    queries = [SelectionQuery(age=enc.age, sex=enc.sex, text=text) for text in query_texts]
    if len(queries) == 1:
        return [select_semantic(pool, queries[0], k, deps.embedder)]
    return select_semantic_many(pool, queries, k, deps.embedder)


def _traced(log: RunLog, calls: Sequence[PendingCall]) -> None:
    log.trace.extend([_checked_trace_entry(call.prompt_kind, call.key, call.params.as_dict(),
                                           call.params.json_text) for call in calls])


def _complete(call: PendingCall, deps: ChainDeps, log: RunLog) -> str:
    """Send one call on the calling thread, then trace it."""
    text = deps.client.complete(call)
    _traced(log, (call,))
    return text


def _render_call(
    template_id: str, input_text: str, enc: Encounter, cfg: ChainConfig,
    deps: ChainDeps, log: RunLog, examples: Sequence[LabeledExample] = (),
) -> str:
    """Render a whole prompt, with room left for its completion, and
    `_complete` its call at its kind's default parameters."""
    template = deps.templates[template_id]
    kind = template.kind
    params = default_params(kind)
    prompt = render(template, input_text=input_text, age=enc.age, sex=enc.sex,
                    examples=examples, budget=cfg.budget)
    req = CompletionRequest(prompt, params, kind)
    return _complete(PendingCall(cache_key(req), kind, params, lambda: req), deps, log)


def _extraction_builders(
    kind: PromptKind, texts: Sequence[str], enc: Encounter, cfg: ChainConfig, deps: ChainDeps
) -> list[Callable[[str], PendingCall]]:
    """The request builder of the RFE or turn-window extraction prompt (the
    template id is the prompt kind's value) for each text, bound to the
    encounter's demographics and to the examples selected for that text.
    Texts given the same example list (all, under a random draw) share one."""
    builders, bound = [], None
    for examples in _select_examples(ExampleKind(kind.value), texts, enc, cfg, deps):
        if examples is not bound:
            bound = examples
            prompt = bind(deps.templates[kind.value], age=enc.age, sex=enc.sex,
                          examples=examples, budget=cfg.budget)
            builder = request_builder(prompt)
        builders.append(builder)
    return builders


def _extraction_calls(
    enc: Encounter, cfg: ChainConfig, deps: ChainDeps
) -> tuple[list[PendingCall], Exception | None]:
    """The pending calls of the extractions, in chain order (the opening
    message, then each turn window, whose examples are selected in one
    call), and the first exception raised while selecting examples for them
    or building them, or None. The calls are those built before it."""
    calls: list[PendingCall] = []
    try:
        [rfe] = _extraction_builders(PromptKind.RFE_EXTRACTION, [enc.rfe], enc, cfg, deps)
        calls.append(rfe(enc.rfe))
        texts = [window_text(window) for window in pair_turns(enc.turns)]
        builders = _extraction_builders(PromptKind.DIALOGUE_EXTRACTION, texts, enc, cfg, deps)
        for text, build in zip(texts, builders):
            calls.append(build(text))
    except Exception as exc:
        return calls, exc
    return calls, None


def _parse_extraction(tag: str, completion: str, log: RunLog) -> list[MedicalEntity]:
    entities, warnings = parse_entity_list(completion, (tag,))
    if warnings:
        log.warnings.extend(f"{tag}: {w}" for w in warnings)
    if not completion.strip():
        log.warnings.append(f"{tag}: extraction completion was empty")
    return entities


def extract_rfe_entities(
    enc: Encounter, cfg: ChainConfig, deps: ChainDeps, log: RunLog
) -> list[MedicalEntity]:
    """One extraction call on the patient's opening message; provenance "rfe"."""
    [request] = _extraction_builders(PromptKind.RFE_EXTRACTION, [enc.rfe], enc, cfg, deps)
    completion = _complete(request(enc.rfe), deps, log)
    return _parse_extraction("rfe", completion, log)


def extract_turn_entities(
    window: Sequence[Turn],
    window_index: int,
    enc: Encounter,
    cfg: ChainConfig,
    deps: ChainDeps,
    log: RunLog,
) -> list[MedicalEntity]:
    """One extraction call on a single turn window; provenance "turn-pair <i>"."""
    text = window_text(window)
    [request] = _extraction_builders(PromptKind.DIALOGUE_EXTRACTION, [text], enc, cfg, deps)
    completion = _complete(request(text), deps, log)
    return _parse_extraction(f"turn-pair {window_index}", completion, log)


def collate(entity_lists: Iterable[Sequence[MedicalEntity]]) -> EntityLedger:
    """Merge extraction results (RFE first, then windows in order) into a ledger.

    Dedup is by normalized name; on a status conflict the latest mention
    wins, except that a later "unknown" never overwrites an earlier definite
    status. Provenance is the union, and the result keeps first-mention
    order. Merging a list with itself is a no-op.
    """
    merged: dict[str, MedicalEntity] = {}  # a key keeps its first place
    for entities in entity_lists:
        for entity in entities:
            current = merged.get(entity.name)
            if current is None:
                merged[entity.name] = entity
                continue
            provenance = current.provenance + tuple(
                tag for tag in entity.provenance if tag not in current.provenance
            )
            status = (
                current.status
                if entity.status is EntityStatus.UNKNOWN
                else entity.status
            )
            merged[entity.name] = _checked_entity(entity.name, status, provenance)
    return _checked_ledger(tuple(merged.values()))


def resolve_unknowns(
    ledger: EntityLedger, enc: Encounter, cfg: ChainConfig, deps: ChainDeps, log: RunLog
) -> EntityLedger:
    """Re-examine unknown-status entities against the whole conversation.

    At most one completion call, and none at all when the resolver is
    disabled or the ledger has no unknowns. Parsed statuses overwrite only
    entities that were unknown; definite entries come through untouched,
    field for field. A malformed completion leaves the ledger unchanged
    with a warning (fail-open) unless the config says fail-closed.
    """
    if not cfg.resolver_enabled:
        return ledger
    unknowns = ledger.unknowns()
    if not unknowns:
        return ledger

    input_text = (
        "Unresolved entities:\n"
        + serialize_entity_list(unknowns)
        + "\n\nConversation:\n"
        + encounter_text(enc)
    )
    completion = _render_call("unknown_resolver", input_text, enc, cfg, deps, log)
    try:
        parsed, warnings = parse_entity_list(completion)
    except Exception as exc:
        if cfg.resolver_fail_closed:
            raise
        log.warnings.append(f"resolver: completion unparseable, ledger unchanged ({exc})")
        return ledger
    log.warnings.extend(f"resolver: {w}" for w in warnings)

    unknown_names = {e.name for e in unknowns}
    verdicts: dict[str, EntityStatus] = {}
    for entity in parsed:
        if entity.name not in unknown_names:
            log.warnings.append(
                f"resolver: ignored entity outside the unknown list: {entity.name!r}"
            )
            continue
        verdicts[entity.name] = entity.status

    resolved = []
    for entity in ledger:  # only an unknown entity, its name unique, can have a verdict
        verdict = verdicts.get(entity.name, EntityStatus.UNKNOWN)
        if verdict is not EntityStatus.UNKNOWN:
            entity = _checked_entity(entity.name, verdict, entity.provenance + ("resolver",))
        resolved.append(entity)
    return _checked_ledger(tuple(resolved))


def _summary(
    template_id: str, input_text: str, examples: Sequence[LabeledExample],
    enc: Encounter, cfg: ChainConfig, deps: ChainDeps, log: RunLog,
) -> StructuredSummary:
    """The summary stage of both methods, from the selected examples on."""
    completion = _render_call(template_id, input_text, enc, cfg, deps, log, examples)
    summary, warnings = parse_summary(completion)
    log.warnings.extend(f"summary: {w}" for w in warnings)
    return summary


def summarize(
    enc: Encounter, ledger: EntityLedger, cfg: ChainConfig, deps: ChainDeps, log: RunLog
) -> StructuredSummary:
    """One summarization call conditioned on the dialogue and the serialized ledger."""
    conversation = encounter_text(enc)
    [examples] = _select_examples(ExampleKind.SUMMARIZATION, [conversation], enc, cfg, deps)
    input_text = (
        "Conversation:\n"
        + conversation
        + "\n\nExtracted medical entities:\n"
        + serialize_ledger(ledger)
    )
    return _summary("summarization", input_text, examples, enc, cfg, deps, log)


def run_medsum_ent(enc: Encounter, cfg: ChainConfig, deps: ChainDeps) -> RunRecord:
    """Full staged run for one encounter.

    The RFE call and one call per turn window go out together through
    `CompletionClient.gather`; their completions are parsed and collated in
    chain order (RFE first, then windows in order). The resolver (if it
    fires) and the summary follow one after the other. With W windows and
    the fan-out executor `width` wide and to itself, an encounter waits for
    ceil((1 + W) / width) rounds of extraction calls, then 1 if the
    resolver fires, then 1 for the summary: 2 rounds without the resolver
    up to 23 windows at the default width 24.

    Call count is always 1 (RFE) + one per turn window + 1 if the resolver
    fired + 1 (summarization); the record's trace carries exactly those
    entries in that order, and the record is the one the stages would give
    run one after another. On failure the ChainError names the first stage
    that fails in that order; the extraction requests after it may still
    have been sent, and those not yet started are cancelled. If selecting
    examples for an extraction or building its call fails, the calls built
    before it are still sent, traced and parsed, and the failure is raised
    after them.
    """
    log = RunLog()
    calls, failure = _extraction_calls(enc, cfg, deps)
    _traced(log, calls)
    texts = deps.client.gather(calls)
    stage = "rfe extraction"
    try:
        entity_lists = []
        for i, text in enumerate(texts):
            entity_lists.append(_parse_extraction(f"turn-pair {i - 1}" if i else "rfe", text, log))
            stage = "turn extraction"  # so a build failure after the RFE is a window's
        if failure is not None:
            raise failure
        stage = "collation"
        ledger = collate(entity_lists)
        stage = "unknown resolution"
        ledger = resolve_unknowns(ledger, enc, cfg, deps, log)
        stage = "summarization"
        summary = summarize(enc, ledger, cfg, deps, log)
    except Exception as exc:
        raise ChainError(enc.id, stage, exc) from exc
    finally:
        texts.close()
    return _record(enc, cfg, log, Method.MEDSUM_ENT, ledger, summary)


def run_naive_baseline(enc: Encounter, cfg: ChainConfig, deps: ChainDeps) -> RunRecord:
    """Single-prompt baseline: one summarization call, empty ledger."""
    log = RunLog()
    stage = "example selection"
    try:
        conversation = encounter_text(enc)
        [examples] = _select_examples(ExampleKind.SUMMARIZATION, [conversation], enc, cfg, deps)
        stage = "summarization"
        summary = _summary("baseline_summarization", conversation, examples, enc, cfg, deps, log)
    except Exception as exc:
        raise ChainError(enc.id, stage, exc) from exc
    return _record(enc, cfg, log, Method.NAIVE_BASELINE, EntityLedger(), summary)


def _record(
    enc: Encounter, cfg: ChainConfig, log: RunLog, method: Method, ledger: EntityLedger,
    summary: StructuredSummary,
) -> RunRecord:
    trace, warnings = tuple(log.trace), tuple(log.warnings)
    return RunRecord(enc.id, method, cfg.snapshot(), ledger, summary, trace, warnings)


@dataclass
class RunOutcome:
    encounter_id: str
    record: RunRecord | None = None
    error: Exception | None = None


def run_many(
    encounters: Iterable[Encounter],
    cfg: ChainConfig,
    deps: ChainDeps,
    method: Method,
    workers: int = 1,
) -> Iterator[RunOutcome]:
    """Run a corpus through one method, capturing per-encounter failures.

    Yields one outcome per encounter, in input order whatever order the
    workers finish in, so downstream output files are deterministic.
    Outcome *i* comes out as soon as outcomes 0..*i* are done, and the
    iterator keeps no outcome it has yielded. Closing it early cancels the
    encounters not yet started and waits for the running ones.
    Wrap the call in `list()` for a list.
    """
    runner = run_medsum_ent if method is Method.MEDSUM_ENT else run_naive_baseline

    def one(enc: Encounter) -> RunOutcome:
        try:
            return RunOutcome(enc.id, record=runner(enc, cfg, deps))
        except Exception as exc:
            logger.warning("encounter %s failed: %s", enc.id, exc)
            return RunOutcome(enc.id, error=exc)

    if workers <= 1:
        yield from map(one, encounters)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(one, encounters)
