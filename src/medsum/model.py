"""Domain types shared by every pipeline stage.

Encounters and their turns, extracted medical entities and the collated
ledger, six-section structured summaries, labeled few-shot examples, and
per-run audit records. Everything here is immutable after construction and
safe to share across concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "Speaker",
    "EntityStatus",
    "PromptKind",
    "ExampleKind",
    "Method",
    "ValidationError",
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
    "validate_encounter",
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


def _member(by_value: dict[str, Enum], enum: type[Enum], value: Any) -> Any:
    """The member of `enum` with `value`: a dict hit for a known value,
    else the enum's own lookup, which raises its own error."""
    try:
        return by_value[value]
    except (KeyError, TypeError):
        return enum(value)


def normalize_entity_name(name: str) -> str:
    """Case-fold, trim, and collapse internal whitespace runs to one space.

    Raises ValueError if nothing is left afterwards. Entity identity across
    the pipeline is equality of this normalized form.
    """
    normalized = " ".join(name.casefold().split())
    if not normalized:
        raise ValueError("entity name is empty after normalization")
    return normalized


@dataclass(frozen=True)
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
        unknown = sorted(set(data) - set(SECTION_KEYS))
        if unknown:
            raise ValueError(f"unknown summary sections: {', '.join(unknown)}")
        return cls(**{key: str(data.get(key, "")) for key in SECTION_KEYS})


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


@dataclass(frozen=True)
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
        seen: set[str] = set()
        for entity in self.entities:
            if entity.name in seen:
                raise ValueError(f"duplicate entity name in ledger: {entity.name!r}")
            seen.add(entity.name)

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

    @classmethod
    def from_json_list(cls, items: Sequence[Mapping[str, Any]]) -> "EntityLedger":
        return cls(
            tuple(
                MedicalEntity(
                    name=item["name"],
                    status=_member(_STATUS_BY_VALUE, EntityStatus, item["status"]),
                    provenance=tuple(item.get("provenance", ())),
                )
                for item in items
            )
        )


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


@dataclass(frozen=True)
class TraceEntry:
    """One completion call: what kind, the request's content hash, and params.

    A params dict is kept as given, not copied; any other mapping is copied
    into a dict.
    """

    prompt_kind: PromptKind
    prompt_hash: str
    params: Mapping[str, Any]

    def __post_init__(self) -> None:
        if type(self.prompt_kind) is not PromptKind:
            object.__setattr__(self, "prompt_kind", PromptKind(self.prompt_kind))
        if type(self.params) is not dict:
            object.__setattr__(self, "params", dict(self.params))


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

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        return cls(
            encounter_id=data["encounter_id"],
            method=_member(_METHOD_BY_VALUE, Method, data["method"]),
            config=dict(data["config"]),
            ledger=EntityLedger.from_json_list(data["ledger"]),
            summary=StructuredSummary.from_dict(data["summary"]),
            llm_call_trace=tuple(
                TraceEntry(
                    prompt_kind=_member(_KIND_BY_VALUE, PromptKind, t["prompt_kind"]),
                    prompt_hash=t["prompt_hash"],
                    params=dict(t["params"]),
                )
                for t in data["llm_call_trace"]
            ),
            warnings=tuple(data.get("warnings", ())),
        )


def validate_encounter(raw: Any) -> Encounter:
    """Turn a decoded dataset record into an Encounter, or raise ValidationError.

    Total over arbitrary decoded input: every record yields either an
    Encounter or a ValidationError listing every violated field.
    """
    if type(raw) is not dict and not isinstance(raw, Mapping):
        raise ValidationError(["record is not an object"])

    problems: list[str] = []

    enc_id = raw.get("id")
    if not isinstance(enc_id, str) or not enc_id:
        problems.append("missing or empty 'id'")

    rfe = raw.get("rfe")
    if not isinstance(rfe, str):
        problems.append("missing 'rfe'")

    age = raw.get("age")
    if isinstance(age, bool) or not isinstance(age, int):
        problems.append("missing or non-integer 'age'")
    elif age < 0:
        problems.append("negative age")

    sex = raw.get("sex")
    if not isinstance(sex, str) or not sex.strip():
        problems.append("missing or empty 'sex'")

    turns_raw = raw.get("turns")
    turns: list[Turn] = []
    if not isinstance(turns_raw, list):
        problems.append("missing 'turns'")
    elif not turns_raw:
        problems.append("turns empty")
    else:
        for i, item in enumerate(turns_raw):
            if type(item) is not dict and not isinstance(item, Mapping):
                problems.append(f"turn {i}: not an object")
                continue
            speaker = item.get("speaker")
            text = item.get("text")
            member = _SPEAKER_BY_VALUE.get(speaker) if isinstance(speaker, str) else None
            if member is None:
                problems.append(f"turn {i}: unknown speaker {speaker!r}")
            if not isinstance(text, str) or not text.strip():
                problems.append(f"turn {i}: empty text")
            elif member is not None:
                turns.append(Turn(speaker=member, text=text))

    reference = None
    ref_raw = raw.get("reference_summary")
    if ref_raw is not None:
        if not isinstance(ref_raw, Mapping):
            problems.append("'reference_summary' is not an object")
        else:
            try:
                reference = StructuredSummary.from_dict(ref_raw)
            except ValueError as exc:
                problems.append(f"reference_summary: {exc}")

    if problems:
        raise ValidationError(problems)

    return Encounter(
        id=enc_id,
        rfe=rfe,
        age=age,
        sex=sex,
        turns=tuple(turns),
        reference_summary=reference,
    )
