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
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .backend import (
    CompletionClient,
    CompletionRequest,
    EmbeddingGateway,
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
)
from .promptkit import (
    BoundPrompt,
    PromptTemplate,
    TokenBudget,
    bind,
    parse_entity_list,
    parse_summary,
    render,
    serialize_entity_list,
    serialize_ledger,
)
from .selection import (
    ExamplePool,
    SelectionQuery,
    select_random,
    select_semantic,
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
    lines.extend(f"{t.speaker.value.capitalize()}: {t.text}" for t in enc.turns)
    return "\n".join(lines)


def window_text(window: Sequence[Turn]) -> str:
    return "\n".join(f"{t.speaker.value.capitalize()}: {t.text}" for t in window)


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
    kind: ExampleKind,
    k: int,
    query_text: str,
    enc: Encounter,
    cfg: ChainConfig,
    deps: ChainDeps,
) -> list[LabeledExample]:
    if k == 0:
        return []
    pool = deps.pools.get(kind)
    if pool is None:
        raise ValueError(f"no example pool configured for kind {kind.value!r}")
    if cfg.selection_mode is SelectionMode.RANDOM:
        return select_random(pool, k, encounter_seed(enc.id, cfg.run_seed))
    if deps.embedder is None:
        raise ValueError("semantic selection needs an embedding gateway")
    query = SelectionQuery(age=enc.age, sex=enc.sex, text=query_text)
    return select_semantic(pool, query, k, deps.embedder)


def _request(kind: PromptKind, prompt: str) -> tuple[CompletionRequest, str]:
    """A request with its default parameters, and its cache key."""
    req = CompletionRequest(prompt=prompt, params=default_params(kind), prompt_kind=kind)
    return req, cache_key(req)


def _traced(log: RunLog, req: CompletionRequest, key: str) -> None:
    log.trace.append(TraceEntry(req.prompt_kind, key, req.params.as_dict()))


def _complete(req: CompletionRequest, key: str, deps: ChainDeps, log: RunLog) -> str:
    text = deps.client.complete(req, key)
    _traced(log, req, key)
    return text


def _call(kind: PromptKind, prompt: str, deps: ChainDeps, log: RunLog) -> str:
    return _complete(*_request(kind, prompt), deps, log)


def _extraction_prompt(
    kind: PromptKind, text: str, enc: Encounter, cfg: ChainConfig, deps: ChainDeps
) -> BoundPrompt:
    """The RFE or turn-window extraction prompt (the template id is the
    prompt kind's value) bound to the encounter's demographics and to the
    examples selected for `text`."""
    example_kind = ExampleKind(kind.value)
    examples = _select_examples(example_kind, cfg.extraction_k, text, enc, cfg, deps)
    return bind(
        deps.templates[kind.value],
        age=enc.age,
        sex=enc.sex,
        examples=examples,
        budget=cfg.budget,
    )


def _rfe_request(
    enc: Encounter, cfg: ChainConfig, deps: ChainDeps
) -> tuple[CompletionRequest, str]:
    prompt = _extraction_prompt(PromptKind.RFE_EXTRACTION, enc.rfe, enc, cfg, deps)
    return _request(PromptKind.RFE_EXTRACTION, prompt.fill(enc.rfe))


def _extraction_requests(
    enc: Encounter, cfg: ChainConfig, deps: ChainDeps
) -> Iterator[tuple[str, CompletionRequest, str]]:
    """(provenance tag, request, cache key) of every extraction call, in
    chain order: the opening message ("rfe"), then each turn window
    ("turn-pair <i>")."""
    yield ("rfe", *_rfe_request(enc, cfg, deps))
    # A random draw ignores the query text, so one draw, bound once, serves
    # every window; a semantic draw differs per window.
    shared = None
    for i, window in enumerate(pair_turns(enc.turns)):
        text = window_text(window)
        prompt = shared or _extraction_prompt(PromptKind.DIALOGUE_EXTRACTION, text, enc, cfg, deps)
        if cfg.selection_mode is SelectionMode.RANDOM:
            shared = prompt
        yield (f"turn-pair {i}", *_request(PromptKind.DIALOGUE_EXTRACTION, prompt.fill(text)))


def _parse_extraction(tag: str, completion: str, log: RunLog) -> list[MedicalEntity]:
    entities, warnings = parse_entity_list(completion, (tag,))
    log.warnings.extend(f"{tag}: {w}" for w in warnings)
    if not completion.strip():
        log.warnings.append(f"{tag}: extraction completion was empty")
    return entities


def extract_rfe_entities(
    enc: Encounter, cfg: ChainConfig, deps: ChainDeps, log: RunLog
) -> list[MedicalEntity]:
    """One extraction call on the patient's opening message; provenance "rfe"."""
    text = _complete(*_rfe_request(enc, cfg, deps), deps, log)
    return _parse_extraction("rfe", text, log)


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
    prompt = _extraction_prompt(PromptKind.DIALOGUE_EXTRACTION, text, enc, cfg, deps)
    completion = _complete(*_request(PromptKind.DIALOGUE_EXTRACTION, prompt.fill(text)), deps, log)
    return _parse_extraction(f"turn-pair {window_index}", completion, log)


def collate(entity_lists: Iterable[Sequence[MedicalEntity]]) -> EntityLedger:
    """Merge extraction results (RFE first, then windows in order) into a ledger.

    Dedup is by normalized name; on a status conflict the latest mention
    wins, except that a later "unknown" never overwrites an earlier definite
    status. Provenance is the union, and the result keeps first-mention
    order. Merging a list with itself is a no-op.
    """
    merged: dict[str, MedicalEntity] = {}
    order: list[str] = []
    for entities in entity_lists:
        for entity in entities:
            current = merged.get(entity.name)
            if current is None:
                merged[entity.name] = entity
                order.append(entity.name)
                continue
            provenance = current.provenance + tuple(
                tag for tag in entity.provenance if tag not in current.provenance
            )
            status = (
                current.status
                if entity.status is EntityStatus.UNKNOWN
                else entity.status
            )
            merged[entity.name] = MedicalEntity(
                name=entity.name, status=status, provenance=provenance
            )
    return EntityLedger(tuple(merged[name] for name in order))


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
    prompt = render(
        deps.templates["unknown_resolver"],
        input_text=input_text,
        age=enc.age,
        sex=enc.sex,
        budget=cfg.budget,
    )
    completion = _call(PromptKind.UNKNOWN_RESOLVER, prompt, deps, log)
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
    for entity in ledger:
        verdict = verdicts.get(entity.name)
        if (
            entity.status is EntityStatus.UNKNOWN
            and verdict is not None
            and verdict is not entity.status
        ):
            resolved.append(
                MedicalEntity(
                    name=entity.name,
                    status=verdict,
                    provenance=entity.provenance + ("resolver",),
                )
            )
        else:
            resolved.append(entity)
    return EntityLedger(tuple(resolved))


def summarize(
    enc: Encounter, ledger: EntityLedger, cfg: ChainConfig, deps: ChainDeps, log: RunLog
) -> StructuredSummary:
    """One summarization call conditioned on the dialogue and the serialized ledger."""
    conversation = encounter_text(enc)
    examples = _select_examples(
        ExampleKind.SUMMARIZATION, cfg.summarization_k, conversation, enc, cfg, deps
    )
    input_text = (
        "Conversation:\n"
        + conversation
        + "\n\nExtracted medical entities:\n"
        + serialize_ledger(ledger)
    )
    prompt = render(
        deps.templates["summarization"],
        input_text=input_text,
        age=enc.age,
        sex=enc.sex,
        examples=examples,
        budget=cfg.budget,
    )
    completion = _call(PromptKind.SUMMARIZATION, prompt, deps, log)
    summary, warnings = parse_summary(completion)
    log.warnings.extend(f"summary: {w}" for w in warnings)
    return summary


def _extract_all(
    enc: Encounter, cfg: ChainConfig, deps: ChainDeps, log: RunLog
) -> list[list[MedicalEntity]]:
    """Entities of the RFE and of every turn window, in chain order.

    The requests are built first and then all sent through
    `CompletionClient.submit`, so their calls overlap in one round;
    completions are parsed, traced and warned about in chain order. A
    failure raises ChainError naming the first stage that fails in that
    order ("rfe extraction" or "turn extraction"), and cancels the
    requests not yet started.
    """
    calls: list[tuple[str, CompletionRequest, str]] = []
    build_error: Exception | None = None
    try:
        for call in _extraction_requests(enc, cfg, deps):
            calls.append(call)
    except Exception as exc:  # raised in its turn, after the calls before it
        build_error = exc
    futures = [deps.client.submit(req, key) for _, req, key in calls]
    entity_lists: list[list[MedicalEntity]] = []
    stage = "rfe extraction"
    try:
        for (tag, req, key), future in zip(calls, futures):
            stage = "rfe extraction" if tag == "rfe" else "turn extraction"
            text = future.result()
            _traced(log, req, key)
            entity_lists.append(_parse_extraction(tag, text, log))
        if build_error is not None:
            stage = "turn extraction" if calls else "rfe extraction"
            raise build_error
    except Exception as exc:
        raise ChainError(enc.id, stage, exc) from exc
    finally:
        for future in futures:
            future.cancel()
    return entity_lists


def run_medsum_ent(enc: Encounter, cfg: ChainConfig, deps: ChainDeps) -> RunRecord:
    """Full staged run for one encounter.

    The RFE request and one request per turn window go out together
    through `CompletionClient.submit`; their completions are parsed and
    collated in chain order (RFE first, then windows in order). The
    resolver (if it fires) and the summary follow one after the other, so
    the critical path is three stages: {RFE, windows} -> resolver ->
    summary.

    Call count is always 1 (RFE) + one per turn window + 1 if the resolver
    fired + 1 (summarization); the record's trace carries exactly those
    entries in that order, and the record is the one the stages would give
    run one after another. On failure the ChainError names the first stage
    that fails in that order; the extraction requests after it may still
    have been sent.
    """
    log = RunLog()
    entity_lists = _extract_all(enc, cfg, deps, log)
    stage = "collation"
    try:
        ledger = collate(entity_lists)
        stage = "unknown resolution"
        ledger = resolve_unknowns(ledger, enc, cfg, deps, log)
        stage = "summarization"
        summary = summarize(enc, ledger, cfg, deps, log)
    except Exception as exc:
        raise ChainError(enc.id, stage, exc) from exc
    return RunRecord(
        encounter_id=enc.id,
        method=Method.MEDSUM_ENT,
        config=cfg.snapshot(),
        ledger=ledger,
        summary=summary,
        llm_call_trace=tuple(log.trace),
        warnings=tuple(log.warnings),
    )


def run_naive_baseline(enc: Encounter, cfg: ChainConfig, deps: ChainDeps) -> RunRecord:
    """Single-prompt baseline: one summarization call, empty ledger."""
    log = RunLog()
    stage = "example selection"
    try:
        conversation = encounter_text(enc)
        examples = _select_examples(
            ExampleKind.SUMMARIZATION, cfg.summarization_k, conversation, enc, cfg, deps
        )
        stage = "summarization"
        prompt = render(
            deps.templates["baseline_summarization"],
            input_text=conversation,
            age=enc.age,
            sex=enc.sex,
            examples=examples,
            budget=cfg.budget,
        )
        completion = _call(PromptKind.SUMMARIZATION, prompt, deps, log)
        summary, warnings = parse_summary(completion)
        log.warnings.extend(f"summary: {w}" for w in warnings)
    except ChainError:
        raise
    except Exception as exc:
        raise ChainError(enc.id, stage, exc) from exc
    return RunRecord(
        encounter_id=enc.id,
        method=Method.NAIVE_BASELINE,
        config=cfg.snapshot(),
        ledger=EntityLedger(),
        summary=summary,
        llm_call_trace=tuple(log.trace),
        warnings=tuple(log.warnings),
    )


@dataclass
class RunOutcome:
    encounter_id: str
    record: RunRecord | None = None
    error: Exception | None = None


def run_many(
    encounters: Sequence[Encounter],
    cfg: ChainConfig,
    deps: ChainDeps,
    method: Method,
    workers: int = 1,
) -> list[RunOutcome]:
    """Run a corpus through one method, capturing per-encounter failures.

    Results come back in input order regardless of worker completion order,
    so downstream output files are deterministic.
    """
    runner = run_medsum_ent if method is Method.MEDSUM_ENT else run_naive_baseline

    def one(enc: Encounter) -> RunOutcome:
        try:
            return RunOutcome(enc.id, record=runner(enc, cfg, deps))
        except Exception as exc:
            logger.warning("encounter %s failed: %s", enc.id, exc)
            return RunOutcome(enc.id, error=exc)

    if workers <= 1:
        return [one(enc) for enc in encounters]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, encounters))
