"""Domain types shared by every pipeline stage.

Encounters and their turns, extracted medical entities and the collated
ledger, six-section structured summaries, labeled few-shot examples, and
per-run audit records. Everything here is immutable after construction and
safe to share across concurrent workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_string
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

__all__ = [
    "Speaker",
    "EntityStatus",
    "PromptKind",
    "ExampleKind",
    "Method",
    "ValidationError",
    "collapse_whitespace",
    "normalize_entity_name",
    "Turn",
    "Encounter",
    "MedicalEntity",
    "EntityLedger",
    "StructuredSummary",
    "SECTION_KEYS",
    "SCORED_SECTIONS",
    "LabeledExample",
    "TraceEntry",
    "RunRecord",
    "RecordHead",
    "EncounterReference",
    "validate_encounter",
    "validate_reference",
    "compact_json",
    "json_field",
]


class Speaker(str, Enum):
    DOCTOR = "doctor"
    PATIENT = "patient"


class EntityStatus(str, Enum):
    """Affirmation status of a medical entity for the patient."""

    PRESENT = "present"
    ABSENT = "absent"
    UNKNOWN = "unknown"


class PromptKind(str, Enum):
    """The six completion-call families; each has its own request defaults."""

    RFE_EXTRACTION = "rfe_extraction"
    DIALOGUE_EXTRACTION = "dialogue_extraction"
    UNKNOWN_RESOLVER = "unknown_resolver"
    SUMMARIZATION = "summarization"
    METRIC_EXTRACTION = "metric_extraction"
    METRIC_VERIFICATION = "metric_verification"


class ExampleKind(str, Enum):
    """Which prompt family a labeled example may be inserted into."""

    RFE_EXTRACTION = "rfe_extraction"
    DIALOGUE_EXTRACTION = "dialogue_extraction"
    SUMMARIZATION = "summarization"


class Method(str, Enum):
    MEDSUM_ENT = "medsum_ent"
    NAIVE_BASELINE = "naive_baseline"


class ValidationError(ValueError):
    """A raw record violated the encounter schema.

    Collects every violated field rather than stopping at the first one.
    """

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


_SPEAKER_BY_VALUE = {member.value: member for member in Speaker}
_STATUS_BY_VALUE = {member.value: member for member in EntityStatus}
_KIND_BY_VALUE = {member.value: member for member in PromptKind}
_METHOD_BY_VALUE = {member.value: member for member in Method}
_JSON_KINDS = {
    str: "a string", int: "an integer", float: "a number", bool: "a boolean", list: "a list",
    Mapping: "an object",
}


def _member(by_value: dict[str, Enum], enum: type[Enum], value: Any) -> Any:
    """The member of `enum` with `value`: a dict hit for a known value,
    else the enum's own lookup, which raises its own error."""
    try:
        return by_value[value]
    except (KeyError, TypeError):
        return enum(value)


def json_field(name: str, value: Any, kind: type) -> Any:
    """`value` if it is a decoded JSON value of `kind` (str, int, float, bool,
    list or Mapping), else a TypeError naming `name`. A bool is not an int or a
    float; an int is a float. A dict passes before the slower ABC check."""
    if type(value) is kind or type(value) is dict and kind is Mapping:
        return value
    if type(value) is not bool and isinstance(value, (int, float) if kind is float else kind):
        return value
    raise TypeError(f"{name} is not {_JSON_KINDS[kind]}: {value!r}")


_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def compact_json(value: Any) -> str:
    """`json.dumps(value, sort_keys=True, separators=(",", ":"))`, through one
    shared encoder instead of a new one per call: the sorted, compact,
    ASCII-escaped JSON of the JSONL files medsum writes."""
    return _compact.encode(value)


def collapse_whitespace(text: str) -> str:
    """Case-fold, trim, and collapse internal whitespace runs to one space."""
    return " ".join(text.casefold().split())


def normalize_entity_name(name: str) -> str:
    """`collapse_whitespace(name)`; raises ValueError if nothing is left.

    Entity identity across the pipeline is equality of this normalized form.
    """
    normalized = collapse_whitespace(name)
    if not normalized:
        raise ValueError("entity name is empty after normalization")
    return normalized


@dataclass(frozen=True, slots=True)
class Turn:
    """One utterance in the conversation. Text must survive a whitespace trim."""

    speaker: Speaker
    text: str

    def __post_init__(self) -> None:
        if type(self.speaker) is not Speaker:
            object.__setattr__(self, "speaker", Speaker(self.speaker))
        if not self.text.strip():
            raise ValueError("turn text is empty")


# Canonical section keys of a structured visit summary, in presentation order.
SECTION_KEYS = (
    "demographics_sdoh",
    "medical_intent",
    "pertinent_positives",
    "pertinent_negatives",
    "pertinent_unknowns",
    "medical_history",
)

# The four sections that get scored; demographics and intent never are.
SCORED_SECTIONS = (
    "pertinent_positives",
    "pertinent_negatives",
    "pertinent_unknowns",
    "medical_history",
)


@dataclass(frozen=True)
class StructuredSummary:
    """A visit summary split into the six canonical sections.

    A section may be empty text, but all six are always present.
    """

    demographics_sdoh: str = ""
    medical_intent: str = ""
    pertinent_positives: str = ""
    pertinent_negatives: str = ""
    pertinent_unknowns: str = ""
    medical_history: str = ""

    def section(self, key: str) -> str:
        if key not in SECTION_KEYS:
            raise KeyError(f"unknown summary section: {key!r}")
        return getattr(self, key)

    def to_dict(self) -> dict[str, str]:
        return {key: getattr(self, key) for key in SECTION_KEYS}

    @classmethod
    def from_dict(cls, data: Mapping[str, str]) -> "StructuredSummary":
        unknown = sorted(set(json_field("summary", data, Mapping)) - set(SECTION_KEYS))
        if unknown:
            raise ValueError(f"unknown summary sections: {', '.join(unknown)}")
        return cls(
            **{k: json_field(f"summary section {k}", data.get(k, ""), str) for k in SECTION_KEYS}
        )


@dataclass(frozen=True)
class Encounter:
    """One dialogue: the opening RFE message, demographics, and ordered turns.

    Doctor/patient pairing windows are computed by the chain stage, never
    stored. The reference summary is optional so the pipeline can run on
    unlabeled encounters; metrics require it.
    """

    id: str
    rfe: str
    age: int
    sex: str
    turns: tuple[Turn, ...]
    reference_summary: StructuredSummary | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "turns", tuple(self.turns))
        if not self.id:
            raise ValueError("encounter id is empty")
        if self.age < 0:
            raise ValueError("age is negative")
        if not self.sex.strip():
            raise ValueError("sex is empty")
        if not self.turns:
            raise ValueError("turns empty")


@dataclass(frozen=True, slots=True)
class MedicalEntity:
    """A named medical concept with its affirmation status and provenance tags.

    The name is normalized at construction, so two entities naming the same
    concept in different casing or spacing compare equal on `name`.
    Provenance tags record where mentions came from: "rfe", "turn-pair <i>",
    or "resolver".
    """

    name: str
    status: EntityStatus
    provenance: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_entity_name(self.name))
        if type(self.status) is not EntityStatus:
            object.__setattr__(self, "status", EntityStatus(self.status))
        if type(self.provenance) is not tuple:
            object.__setattr__(self, "provenance", tuple(self.provenance))


@dataclass(frozen=True)
class EntityLedger:
    """The collated entity set for an encounter; normalized names are unique."""

    entities: tuple[MedicalEntity, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entities", tuple(self.entities))
        _check_unique([entity.name for entity in self.entities])

    def __iter__(self) -> Iterator[MedicalEntity]:
        return iter(self.entities)

    def __len__(self) -> int:
        return len(self.entities)

    def get(self, name: str) -> MedicalEntity | None:
        normalized = normalize_entity_name(name)
        for entity in self.entities:
            if entity.name == normalized:
                return entity
        return None

    def unknowns(self) -> tuple[MedicalEntity, ...]:
        return tuple(e for e in self.entities if e.status is EntityStatus.UNKNOWN)

    def to_json_list(self) -> list[dict[str, Any]]:
        return [
            {"name": e.name, "status": e.status.value, "provenance": list(e.provenance)}
            for e in self.entities
        ]


def _check_unique(names: list[str]) -> None:
    """A ValueError naming the first entity name seen twice, if any."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate entity name in ledger: {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class LabeledExample:
    """A labeled in-context demonstration for one prompt family.

    The label is stored already in the canonical output serialization, so a
    rendered example teaches the model the exact grammar the parsers expect.
    """

    kind: ExampleKind
    input_text: str
    age: int
    sex: str
    label: str

    def __post_init__(self) -> None:
        if type(self.kind) is not ExampleKind:
            object.__setattr__(self, "kind", ExampleKind(self.kind))


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One completion call: what kind, the request's content hash, and params.

    A params dict is kept as given, not copied; any other mapping is copied
    into a dict. `RunRecord.from_json_dict` gives each entry a copy of its
    decoded params, so a record never shares a dict with the data it was
    decoded from. `params_json`, when given, must be `compact_json(params)`:
    the chain passes the JSON its request params already hold, so writing
    the record does not encode them again.
    """

    prompt_kind: PromptKind
    prompt_hash: str
    params: Mapping[str, Any]
    params_json: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if type(self.prompt_kind) is not PromptKind:
            object.__setattr__(self, "prompt_kind", PromptKind(self.prompt_kind))
        if type(self.params) is not dict:
            object.__setattr__(self, "params", dict(self.params))


# `validate_encounter` builds each turn, and the chain each entity, ledger
# and trace entry, from values it has already checked, through a builder
# that sets the slots (the ledger's one field) directly: __init__ and
# __post_init__ do not run, so its caller must pass exactly what they would
# store. test_source_grammar.py keeps the builders to those callers.
_new = object.__new__
_set_turn_speaker, _set_turn_text = Turn.speaker.__set__, Turn.text.__set__
_set_entity_name, _set_entity_status, _set_entity_provenance = (
    getattr(MedicalEntity, name).__set__ for name in MedicalEntity.__slots__)
_set_trace_kind, _set_trace_hash, _set_trace_params, _set_trace_params_json = (
    getattr(TraceEntry, name).__set__ for name in TraceEntry.__slots__)


def _checked_turn(speaker: Speaker, text: str) -> Turn:
    """`Turn(speaker, text)` for a Speaker member and a str with a
    non-blank character."""
    turn = _new(Turn)
    _set_turn_speaker(turn, speaker)
    _set_turn_text(turn, text)
    return turn


def _checked_entity(name: str, status: EntityStatus, provenance: tuple[str, ...]) -> MedicalEntity:
    """`MedicalEntity(name, status, provenance)` for a name as
    `normalize_entity_name` returns it, an EntityStatus member and a tuple."""
    entity = _new(MedicalEntity)
    _set_entity_name(entity, name)
    _set_entity_status(entity, status)
    _set_entity_provenance(entity, provenance)
    return entity


def _checked_ledger(entities: tuple[MedicalEntity, ...]) -> EntityLedger:
    """`EntityLedger(entities)` for a tuple of entities with unique names."""
    ledger = _new(EntityLedger)
    object.__setattr__(ledger, "entities", entities)
    return ledger


def _checked_trace_entry(kind: PromptKind, key: str, params: dict, params_json: str) -> TraceEntry:
    """`TraceEntry(kind, key, params, params_json)` for a PromptKind member,
    a str, a dict no one else holds and `compact_json(params)`."""
    entry = _new(TraceEntry)
    _set_trace_kind(entry, kind)
    _set_trace_hash(entry, key)
    _set_trace_params(entry, params)
    _set_trace_params_json(entry, params_json)
    return entry


# Fixed pieces of a record line, in json.dumps's sorted key order; the kind
# tail also ends each cache key's hashed text (see backend.PrefixKeyer).
_STATUS_TAIL = {s: ',"status":' + _json_string(s.value) + "}" for s in EntityStatus}
_KIND_TAIL = {k: ',"prompt_kind":' + _json_string(k.value) + "}" for k in PromptKind}


@dataclass(frozen=True)
class RunRecord:
    """Audit record for one encounter run: config, ledger, summary, call trace."""

    encounter_id: str
    method: Method
    config: Mapping[str, Any]
    ledger: EntityLedger
    summary: StructuredSummary
    llm_call_trace: tuple[TraceEntry, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if type(self.method) is not Method:
            object.__setattr__(self, "method", Method(self.method))
        object.__setattr__(self, "config", dict(self.config))
        if type(self.llm_call_trace) is not tuple:
            object.__setattr__(self, "llm_call_trace", tuple(self.llm_call_trace))
        if type(self.warnings) is not tuple:
            object.__setattr__(self, "warnings", tuple(self.warnings))

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "encounter_id": self.encounter_id,
            "method": self.method.value,
            "config": dict(self.config),
            "ledger": self.ledger.to_json_list(),
            "summary": self.summary.to_dict(),
            "llm_call_trace": [
                {
                    "prompt_kind": t.prompt_kind.value,
                    "prompt_hash": t.prompt_hash,
                    "params": dict(t.params),
                }
                for t in self.llm_call_trace
            ],
            "warnings": list(self.warnings),
        }

    def to_json_line(self) -> str:
        """`json.dumps(self.to_json_dict(), sort_keys=True, separators=(",",
        ":")) + "\\n"`, joined from pieces in that key order.

        Strings go through the encoder json.dumps uses for them; config,
        summary and params (unless the trace entry holds their JSON) go
        through `compact_json`. Every str field must hold a str.
        """
        ledger = ",".join(
            [
                '{"name":'
                + _json_string(e.name)
                + ',"provenance":['
                + ",".join(map(_json_string, e.provenance))
                + "]"
                + _STATUS_TAIL[e.status]
                for e in self.ledger.entities
            ]
        )
        trace = ",".join(
            [
                '{"params":'
                + (t.params_json or _compact.encode(t.params))
                + ',"prompt_hash":'
                + _json_string(t.prompt_hash)
                + _KIND_TAIL[t.prompt_kind]
                for t in self.llm_call_trace
            ]
        )
        return "".join(
            (
                '{"config":',
                _compact.encode(self.config),
                ',"encounter_id":',
                _json_string(self.encounter_id),
                ',"ledger":[',
                ledger,
                '],"llm_call_trace":[',
                trace,
                '],"method":',
                _json_string(self.method.value),
                ',"summary":',
                _compact.encode(self.summary.to_dict()),
                ',"warnings":[',
                ",".join(map(_json_string, self.warnings)),
                "]}\n",
            )
        )

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        """The record of a decoded JSON record object, each field checked as
        `_check_record` says; each trace entry gets a copy of its params."""
        encounter_id, method, config, summary, warnings = _check_record(data)
        ledger = EntityLedger(
            MedicalEntity(e["name"], e["status"], e.get("provenance", ())) for e in data["ledger"]
        )
        trace = [
            TraceEntry(t["prompt_kind"], t["prompt_hash"], dict(t["params"]))
            for t in data["llm_call_trace"]
        ]
        return cls(encounter_id, method, config, ledger, summary, trace, warnings)


class RecordHead(NamedTuple):
    """What `eval` and `review-packets` keep of a run record line: its
    encounter id, method, config and summary."""

    encounter_id: str
    method: Method
    config: dict[str, Any]
    summary: StructuredSummary

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "RecordHead":
        """The head of a decoded JSON record object, after the checks of
        `RunRecord.from_json_dict`, which raise the same errors; builds no
        MedicalEntity or TraceEntry."""
        encounter_id, method, config, summary, _ = _check_record(data)
        return cls(encounter_id, method, config, summary)


def _check_record(
    data: Mapping[str, Any]
) -> tuple[str, Method, dict[str, Any], StructuredSummary, tuple[str, ...]]:
    """The encounter id, method, config (a copy), summary and warnings of a
    decoded JSON record object, or the first error of a field, in field
    order. Each field is checked as the constructors check it; besides,
    `encounter_id` and each `prompt_hash` must be a str, `ledger` and
    `llm_call_trace` a list, `config` and each `params` an object, and
    `warnings` and each `provenance` a list of str."""
    encounter_id = json_field("encounter_id", data["encounter_id"], str)
    method = _member(_METHOD_BY_VALUE, Method, data["method"])
    config = dict(json_field("config", data["config"], Mapping))

    names = []
    for item in json_field("ledger", data["ledger"], list):
        name = item["name"]
        _member(_STATUS_BY_VALUE, EntityStatus, item["status"])
        _strings("provenance", item.get("provenance", []))
        names.append(normalize_entity_name(json_field("entity name", name, str)))
    _check_unique(names)

    summary = StructuredSummary.from_dict(data["summary"])

    for item in json_field("llm_call_trace", data["llm_call_trace"], list):
        _member(_KIND_BY_VALUE, PromptKind, item["prompt_kind"])
        json_field("prompt_hash", item["prompt_hash"], str)
        json_field("params", item["params"], Mapping)

    warnings = _strings("warnings", data.get("warnings", []))
    return encounter_id, method, config, summary, warnings


def _strings(name: str, value: Any) -> tuple[str, ...]:
    """The tuple of a decoded JSON list of str, or a TypeError; for a value
    that is not iterable, the one `tuple()` raises, as the constructors do."""
    items = tuple(value)
    if type(value) is list:
        for item in items:
            if not isinstance(item, str):
                break
        else:
            return items
    raise TypeError(f"{name} is not a list of strings: {value!r}")


class EncounterReference(NamedTuple):
    """What `eval` keeps of a dataset line: the encounter id and its
    reference summary, if it has one."""

    id: str
    reference_summary: StructuredSummary | None


def validate_encounter(raw: Any) -> Encounter:
    """Turn a decoded dataset record into an Encounter, or raise ValidationError.

    Total over arbitrary decoded input: every record yields either an
    Encounter or a ValidationError listing every violated field.
    """
    turns: list[Turn] = []
    enc_id, rfe, age, sex, reference = _check_encounter(raw, turns)
    return Encounter(
        id=enc_id,
        rfe=rfe,
        age=age,
        sex=sex,
        turns=tuple(turns),
        reference_summary=reference,
    )


def validate_reference(raw: Any) -> EncounterReference:
    """The id and reference summary of a decoded dataset record, after the
    checks of `validate_encounter`, which raise the same ValidationError;
    builds no Turn or Encounter."""
    enc_id, _, _, _, reference = _check_encounter(raw, None)
    return EncounterReference(enc_id, reference)


def _str_problem(name: str, value: Any, problem: str) -> str:
    """How a refused field `name` is worded: `json_field`'s refusal if
    `value` is not a string, else `problem`."""
    try:
        json_field(name, value, str)
    except TypeError as exc:
        return str(exc)
    return problem


def _check_encounter(
    raw: Any, turns: list[Turn] | None
) -> tuple[str, str, int, str, StructuredSummary | None]:
    """The id, RFE, age, sex and reference summary of a decoded dataset
    record, or a ValidationError listing every violated field, a wrong
    JSON type as `json_field` words it. Each turn is appended to `turns`
    unless it is None."""
    if type(raw) is not dict and not isinstance(raw, Mapping):
        raise ValidationError(["record is not an object"])

    problems: list[str] = []
    fields = []
    for name, kind in (("id", str), ("rfe", str), ("age", int), ("sex", str), ("turns", list)):
        try:
            fields.append(json_field(name, raw.get(name), kind))
        except TypeError as exc:
            problems.append(str(exc))
            fields.append(None)
    enc_id, rfe, age, sex, turns_raw = fields
    if enc_id == "":
        problems.append("id is empty")
    if age is not None and age < 0:
        problems.append("negative age")
    if sex is not None and not sex.strip():
        problems.append("sex is blank")

    if turns_raw == []:
        problems.append("turns empty")
    elif turns_raw:
        for i, item in enumerate(turns_raw):
            if type(item) is not dict and not isinstance(item, Mapping):
                problems.append(f"turn {i}: not an object")
                continue
            speaker = item.get("speaker")
            text = item.get("text")
            member = _SPEAKER_BY_VALUE.get(speaker) if isinstance(speaker, str) else None
            if member is None:
                unknown = f"unknown speaker {speaker!r}"
                problems.append(f"turn {i}: {_str_problem('speaker', speaker, unknown)}")
            if not isinstance(text, str) or not text.strip():
                problems.append(f"turn {i}: {_str_problem('text', text, 'empty text')}")
            elif member is not None and turns is not None:
                turns.append(_checked_turn(member, text))

    reference = None
    ref_raw = raw.get("reference_summary")
    if ref_raw is not None:
        try:
            reference = StructuredSummary.from_dict(ref_raw)
        except (TypeError, ValueError) as exc:
            problems.append(f"reference_summary: {exc}")

    if problems:
        raise ValidationError(problems)
    return enc_id, rfe, age, sex, reference
