"""Prompt template rendering, k-shot assembly under a token budget, and
strict parsers for model outputs (entity lists and six-section summaries).

The canonical entity line is `- <name> (<status>)`, one per line. Few-shot
labels are stored in exactly this serialization so rendered examples teach
the model the grammar the parsers expect back. Parsers are tolerant where
completions drift (skip + warn) but raise hard errors on degenerate output.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .model import (
    SECTION_KEYS,
    EntityStatus,
    ExampleKind,
    LabeledExample,
    MedicalEntity,
    PromptKind,
    StructuredSummary,
)

__all__ = [
    "TemplateError",
    "KindMismatchError",
    "BudgetExceededError",
    "EntityListParseError",
    "SummaryParseError",
    "TokenBudget",
    "estimate_tokens",
    "PromptTemplate",
    "TEMPLATE_IDS",
    "load_templates",
    "BoundPrompt",
    "bind",
    "render",
    "parse_entity_list",
    "serialize_entity_list",
    "serialize_ledger",
    "parse_summary",
    "serialize_summary",
    "CANONICAL_HEADERS",
]


class TemplateError(ValueError):
    """A template is malformed or missing a value for a slot it declares."""


class KindMismatchError(ValueError):
    """An example of the wrong kind was offered to a prompt."""


class BudgetExceededError(ValueError):
    """The rendered prompt does not fit the token budget."""

    def __init__(self, estimated: int, budget: int):
        self.estimated = estimated
        self.budget = budget
        super().__init__(
            f"estimated {estimated} tokens exceeds budget of {budget} "
            f"by {estimated - budget}"
        )


class EntityListParseError(ValueError):
    """A non-empty completion contained no parseable entity line."""

    def __init__(self, raw: str):
        self.raw = raw
        super().__init__(f"no parseable entity lines in completion: {raw!r}")


class SummaryParseError(ValueError):
    """A summary completion contained no recognizable section header."""

    def __init__(self, raw: str):
        self.raw = raw
        super().__init__("no recognizable section header in summary completion")


def estimate_tokens(text: str, inflation_factor: float = 1.3) -> int:
    """Whitespace token count scaled by an inflation factor, rounded up.

    The factor approximates subword inflation over whitespace tokens; with
    factor 1.0 this is the exact whitespace count.
    """
    return math.ceil(len(text.split()) * inflation_factor)


@dataclass(frozen=True)
class TokenBudget:
    """Context-size guard for rendered prompts."""

    max_context_tokens: int = 4096
    inflation_factor: float = 1.3

    def __post_init__(self) -> None:
        if self.max_context_tokens <= 0:
            raise ValueError("max_context_tokens must be positive")
        if self.inflation_factor < 1.0:
            raise ValueError("inflation_factor must be >= 1")

    def check_words(self, words: int) -> None:
        """Raise BudgetExceededError if a text of `words` whitespace words,
        estimated as `estimate_tokens` does, exceeds the budget."""
        estimated = math.ceil(words * self.inflation_factor)
        if estimated > self.max_context_tokens:
            raise BudgetExceededError(estimated, self.max_context_tokens)


_SLOTS = ("age", "sex", "input", "examples")
_SLOT_RE = re.compile(r"\{(age|sex|input|examples)\}")
DEFAULT_EXAMPLE_SEPARATOR = "\n\n---\n\n"

# Which example kind each prompt kind consumes; kinds absent here take none.
_EXAMPLE_KIND_FOR_PROMPT = {
    PromptKind.RFE_EXTRACTION: ExampleKind.RFE_EXTRACTION,
    PromptKind.DIALOGUE_EXTRACTION: ExampleKind.DIALOGUE_EXTRACTION,
    PromptKind.SUMMARIZATION: ExampleKind.SUMMARIZATION,
}

# Template ids shipped with the package. The baseline summarization prompt
# is a distinct template but issues requests of kind `summarization`.
TEMPLATE_IDS = (
    "rfe_extraction",
    "dialogue_extraction",
    "unknown_resolver",
    "summarization",
    "baseline_summarization",
    "metric_extraction",
    "metric_verification",
)


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt preamble with named slots {age}, {sex}, {input}, {examples}.

    Each slot may appear at most once, and when both appear, {examples} must
    precede {input} so the live input always comes last.
    """

    kind: PromptKind
    preamble: str
    example_separator: str = DEFAULT_EXAMPLE_SEPARATOR

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", PromptKind(self.kind))
        if not self.preamble.strip():
            raise TemplateError("template preamble is empty")
        if not self.example_separator:
            raise TemplateError("example separator is empty")
        for slot in _SLOTS:
            if self.preamble.count("{%s}" % slot) > 1:
                raise TemplateError(f"slot {{{slot}}} appears more than once")
        if "{input}" not in self.preamble:
            raise TemplateError("template has no {input} slot")
        if "{examples}" in self.preamble:
            if self.preamble.index("{examples}") > self.preamble.index("{input}"):
                raise TemplateError("{examples} must precede {input}")
        # Built once for bind: the declared slots, the preamble around
        # {input}, and that text's word counts for templates with no other slot.
        slots = tuple(s for s in _SLOTS if "{%s}" % s in self.preamble)
        head, tail = self.preamble.split("{input}")
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_parts", (head, tail))
        object.__setattr__(self, "_words", len(head.split()) + len(tail.split()))

    def slots(self) -> tuple[str, ...]:
        return self._slots


def _render_example(example: LabeledExample) -> str:
    return (
        "Example:\n"
        f"Age: {example.age}\n"
        f"Sex: {example.sex}\n"
        "Input:\n"
        f"{example.input_text}\n"
        "Output:\n"
        f"{example.label}"
    )


class BoundPrompt:
    """A template with every slot but {input} filled in; made by `bind`.

    `fill(input_text)` returns exactly the prompt `render` gives for the same
    arguments and raises the same BudgetExceededError, but counts only the
    input's words: the words of the text around it were counted once, when
    it was bound. So one bound prompt serves every input that shares its
    demographics and examples, such as the turn windows of one encounter.
    """

    __slots__ = ("head", "tail", "budget", "_words", "_head_open", "_tail_open")

    def __init__(self, head: str, tail: str, budget: TokenBudget, words: int | None = None):
        self.head = head
        self.tail = tail
        self.budget = budget
        # Whitespace words of head and tail, when the caller has counted them.
        self._words = len(head.split()) + len(tail.split()) if words is None else words
        # Whether a word at the end of head (start of tail) would run on
        # into text put right after (before) it.
        self._head_open = bool(head) and not head[-1].isspace()
        self._tail_open = bool(tail) and not tail[0].isspace()

    def fill(self, input_text: str) -> str:
        """The prompt with `input_text` in the {input} slot, checked against
        the budget."""
        words = self._words + len(input_text.split())
        if input_text:
            # A word that runs on across a join is one word, not two.
            if self._head_open and not input_text[0].isspace():
                words -= 1
            if self._tail_open and not input_text[-1].isspace():
                words -= 1
        elif self._head_open and self._tail_open:
            words -= 1
        self.budget.check_words(words)
        return self.head + input_text + self.tail


def bind(
    template: PromptTemplate,
    *,
    age: int | None = None,
    sex: str | None = None,
    examples: Sequence[LabeledExample] = (),
    budget: TokenBudget | None = None,
) -> BoundPrompt:
    """Fill every slot of a template except {input}.

    Examples render in the given order, each followed by the template's
    separator, so a k-shot prompt contains exactly k separators and the live
    input is always last. Raises KindMismatchError if an example does not
    belong to this prompt family and TemplateError if a slot the template
    declares has no value; the budget is checked when the prompt is filled.
    """
    expected = _EXAMPLE_KIND_FOR_PROMPT.get(template.kind)
    if examples and expected is None:
        raise KindMismatchError(
            f"{template.kind.value} prompts take no in-context examples"
        )
    declared = template.slots()
    if examples and "examples" not in declared:
        raise TemplateError("template has no {examples} slot but examples were given")
    for example in examples:
        if example.kind is not expected:
            raise KindMismatchError(
                f"example of kind {example.kind.value} offered to "
                f"{template.kind.value} prompt"
            )
    budget = budget or TokenBudget()
    head, tail = template._parts
    if declared == ("input",):  # nothing to substitute
        return BoundPrompt(head, tail, budget, template._words)

    values = {
        "examples": "".join(
            _render_example(e) + template.example_separator for e in examples
        )
    }
    if "age" in declared:
        if age is None:
            raise TemplateError("template declares {age} but no age given")
        values["age"] = str(age)
    if "sex" in declared:
        if sex is None:
            raise TemplateError("template declares {sex} but no sex given")
        values["sex"] = sex

    # Single-pass substitution: slot-like text inside the filled values is
    # never re-expanded, and the input is never scanned.
    def fill_slot(match: re.Match[str]) -> str:
        return values[match.group(1)]

    return BoundPrompt(_SLOT_RE.sub(fill_slot, head), _SLOT_RE.sub(fill_slot, tail), budget)


def render(
    template: PromptTemplate,
    *,
    input_text: str,
    age: int | None = None,
    sex: str | None = None,
    examples: Sequence[LabeledExample] = (),
    budget: TokenBudget | None = None,
) -> str:
    """Fill a template's slots and enforce the token budget.

    The same as `bind(...).fill(input_text)`; see both. Raises
    KindMismatchError, TemplateError, or BudgetExceededError on overflow.
    """
    return bind(template, age=age, sex=sex, examples=examples, budget=budget).fill(input_text)


def _default_template_dir() -> Path:
    return Path(str(resources.files("medsum") / "templates"))


def load_templates(directory: str | Path | None = None) -> dict[str, PromptTemplate]:
    """Load prompt templates, one `<id>.txt` per template id.

    Ships with defaults; a custom directory overrides per file and falls
    back to the default for any id it does not provide.
    """
    default_dir = _default_template_dir()
    custom_dir = Path(directory) if directory is not None else None
    templates: dict[str, PromptTemplate] = {}
    for template_id in TEMPLATE_IDS:
        path = default_dir / f"{template_id}.txt"
        if custom_dir is not None and (custom_dir / f"{template_id}.txt").exists():
            path = custom_dir / f"{template_id}.txt"
        kind = (
            PromptKind.SUMMARIZATION
            if template_id == "baseline_summarization"
            else PromptKind(template_id)
        )
        templates[template_id] = PromptTemplate(
            kind=kind, preamble=path.read_text(encoding="utf-8")
        )
    return templates


_ENTITY_LINE_RE = re.compile(
    r"^\s*-\s*(?P<name>.+?)\s*\(\s*(?P<status>present|absent|unknown)\s*\)\s*$",
    re.IGNORECASE,
)


_STATUS_BY_TOKEN = {status.value: status for status in EntityStatus}


def parse_entity_list(
    raw: str, provenance: tuple[str, ...] = ()
) -> tuple[list[MedicalEntity], list[str]]:
    """Parse `- <name> (<status>)` lines into entities with `provenance`.

    Malformed lines are skipped and reported in the returned warnings list;
    the status token matches case-insensitively. A completion with content
    but zero parseable lines signals a degenerate completion and raises
    EntityListParseError with the raw text attached.
    """
    entities: list[MedicalEntity] = []
    warnings: list[str] = []
    saw_content = False
    for line in raw.splitlines():
        if not line.strip():
            continue
        saw_content = True
        match = _ENTITY_LINE_RE.match(line)
        if match is None:
            warnings.append(f"skipped unparseable line: {line.strip()!r}")
            continue
        try:
            # The entity normalizes the name, and refuses one that is empty.
            entity = MedicalEntity(
                match.group("name"), _STATUS_BY_TOKEN[match.group("status").lower()], provenance
            )
        except ValueError:
            warnings.append(f"skipped line with empty entity name: {line.strip()!r}")
            continue
        entities.append(entity)
    if saw_content and not entities:
        raise EntityListParseError(raw)
    return entities, warnings


def serialize_entity_list(entities: Iterable[MedicalEntity]) -> str:
    """One entity per line in the canonical `- <name> (<status>)` form."""
    return "\n".join(f"- {e.name} ({e.status.value})" for e in entities)


def serialize_ledger(ledger: Iterable[MedicalEntity]) -> str:
    """Three labeled status blocks, entities sorted by name within each."""
    entities = list(ledger)
    blocks = []
    for status in (EntityStatus.PRESENT, EntityStatus.ABSENT, EntityStatus.UNKNOWN):
        members = sorted((e for e in entities if e.status is status), key=lambda e: e.name)
        lines = [f"{status.value.capitalize()}:"]
        lines.extend(f"- {e.name} ({e.status.value})" for e in members)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


CANONICAL_HEADERS: dict[str, str] = {
    "demographics_sdoh": "Demographics and Social Determinants of Health",
    "medical_intent": "Medical Intent",
    "pertinent_positives": "Pertinent Positives",
    "pertinent_negatives": "Pertinent Negatives",
    "pertinent_unknowns": "Pertinent Unknowns",
    "medical_history": "Medical History",
}

# Generated summaries sometimes title the intent section differently.
_HEADER_ALIASES: dict[str, str] = {
    "Patient Intent": "medical_intent",
}


def _header_lookup() -> dict[str, str]:
    lookup = {}
    for key, header in CANONICAL_HEADERS.items():
        lookup[" ".join(header.casefold().split())] = key
    for alias, key in _HEADER_ALIASES.items():
        lookup[" ".join(alias.casefold().split())] = key
    return lookup


_HEADER_KEY_BY_TEXT = _header_lookup()

_BOLD = r"(?:\*\*|__)?"
_HEADER_ALTS = "|".join(
    r"\s+".join(re.escape(word) for word in header.split())
    for header in sorted(
        list(CANONICAL_HEADERS.values()) + list(_HEADER_ALIASES), key=len, reverse=True
    )
)
_HEADER_LINE_RE = re.compile(
    rf"^\s*{_BOLD}\s*(?P<header>{_HEADER_ALTS})\s*{_BOLD}\s*(?P<colon>:)?"
    rf"\s*{_BOLD}\s*(?P<rest>.*?)\s*$",
    re.IGNORECASE,
)


def _match_header(line: str) -> tuple[str, str] | None:
    """Return (section key, same-line body) if the line is a section header.

    A line counts as a header only when a colon follows the name or nothing
    else is on the line, so prose that merely starts with a section name is
    left alone.
    """
    match = _HEADER_LINE_RE.match(line)
    if match is None:
        return None
    if not match.group("colon") and match.group("rest"):
        return None
    key = _HEADER_KEY_BY_TEXT[" ".join(match.group("header").casefold().split())]
    return key, match.group("rest")


def parse_summary(raw: str) -> tuple[StructuredSummary, list[str]]:
    """Split a completion on section-header lines into the six sections.

    Header matching is insensitive to case, a trailing colon, and bold
    markers, and sections are assigned by name regardless of order. Missing
    sections come back as empty text with one warning each; a completion
    with no recognizable header at all raises SummaryParseError.
    """
    bodies: dict[str, list[str]] = {}
    warnings: list[str] = []
    current: list[str] | None = None
    preamble_seen = False
    for line in raw.splitlines():
        header = _match_header(line)
        if header is not None:
            key, rest = header
            if key in bodies:
                warnings.append(f"duplicate header for section {key!r}")
            current = bodies.setdefault(key, [])
            if rest:
                current.append(rest)
        elif current is not None:
            current.append(line)
        elif line.strip():
            preamble_seen = True
    if not bodies:
        raise SummaryParseError(raw)
    if preamble_seen:
        warnings.append("ignored text before the first section header")
    for key in SECTION_KEYS:
        if key not in bodies:
            warnings.append(f"missing section {key!r}")
    summary = StructuredSummary(
        **{key: "\n".join(bodies.get(key, [])).strip() for key in SECTION_KEYS}
    )
    return summary, warnings


def serialize_summary(summary: StructuredSummary) -> str:
    """Canonical text form: each section header on its own line, body below.

    parse_summary inverts this exactly for section bodies that are trimmed
    and contain no header line of their own.
    """
    return "\n\n".join(
        f"{CANONICAL_HEADERS[key]}:\n{summary.section(key)}" for key in SECTION_KEYS
    )
