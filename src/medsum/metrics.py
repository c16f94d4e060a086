"""Concept-level summarization metrics.

Concepts are extracted from the predicted and reference text of the same
summary section, then cross-verified for presence in the other text by a
paraphrase-tolerant judge. Verified ground-truth concepts give recall,
verified predicted concepts give precision, and the harmonic mean gives F1.
A deterministic exact-match verifier stands in for the LLM judge in tests
and offline runs. Only the four finding sections are scored; demographics
and intent are not.

Degenerate denominators follow a declared convention: a side with no
concepts scores its own ratio 1.0 vacuously, and F1 is 0 whenever either
ratio is 0.
"""

from __future__ import annotations

import csv
import re
import statistics
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .backend import CompletionClient
from .model import SCORED_SECTIONS, Method, RunRecord, StructuredSummary
from .model import collapse_whitespace, json_field
from .promptkit import PromptTemplate, TokenBudget, bind, request_builder

__all__ = [
    "ConceptParseError",
    "VerificationParseError",
    "SectionScore",
    "score_from_counts",
    "ConceptExtractor",
    "Verifier",
    "LLMConceptExtractor",
    "LLMVerifier",
    "exact_match_verifier",
    "segment_concept_extractor",
    "score_section",
    "evaluate_encounter",
    "RowKey",
    "EncounterEvaluation",
    "TableRow",
    "aggregate",
    "write_csv_report",
    "write_jsonl_report",
    "CSV_COLUMNS",
]

# An extractor maps section text to concept strings; a verifier answers, per
# concept, whether the target text expresses it.
ConceptExtractor = Callable[[str], list[str]]
Verifier = Callable[[Sequence[str], str], list[bool]]


class ConceptParseError(ValueError):
    """A non-empty extractor completion yielded no concepts."""

    def __init__(self, raw: str):
        self.raw = raw
        super().__init__(f"no concepts parseable from completion: {raw!r}")


class VerificationParseError(ValueError):
    """A verifier completion was misaligned or not a yes/no verdict."""


@dataclass(frozen=True)
class SectionScore:
    """Counts and scores for one summary section.

    tp_gt/f_n come from verifying ground-truth concepts against the
    prediction; tp_pred/f_p from verifying predicted concepts against the
    ground truth. All three scores live in [0, 1].
    """

    section: str
    tp_gt: int
    f_n: int
    tp_pred: int
    f_p: int
    gpt_recall: float
    gpt_precision: float
    gpt_f1: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "section": self.section,
            "tp_gt": self.tp_gt,
            "f_n": self.f_n,
            "tp_pred": self.tp_pred,
            "f_p": self.f_p,
            "gpt_recall": self.gpt_recall,
            "gpt_precision": self.gpt_precision,
            "gpt_f1": self.gpt_f1,
        }


def score_from_counts(
    section: str, tp_gt: int, f_n: int, tp_pred: int, f_p: int
) -> SectionScore:
    """Apply the recall/precision/F1 formulas with the degenerate-denominator
    convention: an empty side is vacuously perfect, and F1 is 0 whenever
    either component is 0."""
    recall = 1.0 if tp_gt + f_n == 0 else tp_gt / (tp_gt + f_n)
    precision = 1.0 if tp_pred + f_p == 0 else tp_pred / (tp_pred + f_p)
    if recall == 0.0 or precision == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return SectionScore(section, tp_gt, f_n, tp_pred, f_p, recall, precision, f1)


_BULLET_RE = re.compile(r"^(?:[-*•]|\d+[.):])\s*")


def _strip_bullet(line: str) -> str:
    """`_BULLET_RE.sub("", line.strip()).strip()`: the line stripped, without
    a leading `-`, `*` or `•` bullet or `<digits>.`, `)` or `:` number. The
    regex runs only on a line that starts with a digit; its `\\d` is
    `str.isdecimal` and its `\\s` is `str.isspace`, which `strip` strips."""
    line = line.strip()
    if not line:
        return line
    first = line[0]
    if first in "-*•":
        return line[1:].lstrip()
    if first.isdecimal():
        return _BULLET_RE.sub("", line).strip()
    return line


def _parse_concepts(completion: str) -> list[str]:
    # Each distinct non-empty line once, in first-seen order, as
    # _strip_bullet gives it: its three cases run inline.
    concepts: dict[str, None] = {}
    for line in map(str.strip, completion.splitlines()):
        if not line:
            continue
        if line[0] in "-*•":
            line = line[1:].lstrip()
        elif line[0].isdecimal():
            line = _BULLET_RE.sub("", line).strip()
        if line:
            concepts[line] = None
    if not concepts and completion.strip():
        raise ConceptParseError(completion)
    return list(concepts)


class _Judge:
    """A metric prompt, its template bound once into one request builder of
    the template's kind. A template that declares {age} or {sex} raises
    TemplateError here."""

    def __init__(
        self,
        client: CompletionClient,
        template: PromptTemplate,
        budget: TokenBudget | None = None,
    ):
        self._client = client
        self._call = request_builder(bind(template, budget=budget))


class LLMConceptExtractor(_Judge):
    """Concept extraction through one completion call per non-empty text.

    Runs at the metric-extraction defaults (temperature 0) so repeated
    scoring of the same text is reproducible. Duplicate concept lines are
    dropped, first occurrence kept.
    """

    def __call__(self, text: str) -> list[str]:
        if not text.strip():
            return []
        return _parse_concepts(self._client.complete(self._call(text)))


_VERDICTS = {"yes": True, "true": True, "no": False, "false": False}


def _parse_verdicts(completion: str, expected: int) -> list[bool]:
    lines = completion.splitlines()
    # The usual completion, one bare verdict word on each of `expected` lines.
    bare = list(map(_VERDICTS.get, lines))
    if len(bare) == expected and None not in bare:
        return bare
    verdicts: list[bool] = []
    for line in lines:
        token = _strip_bullet(line)
        if not token:
            continue
        # A bare verdict word is its own first word, as it stands.
        verdict = _VERDICTS.get(token)
        if verdict is None:
            verdict = _VERDICTS.get(token.split(None, 1)[0].rstrip(".,").lower())
            if verdict is None:
                raise VerificationParseError(f"unparseable verdict line: {line.strip()!r}")
        verdicts.append(verdict)
    if len(verdicts) != expected:
        raise VerificationParseError(
            f"expected {expected} verdicts, got {len(verdicts)}"
        )
    return verdicts


class LLMVerifier(_Judge):
    """Paraphrase-tolerant presence judge backed by completion calls.

    All concepts for one target go into a single call, one yes/no verdict
    per line, aligned with the input order. Zero concepts means zero calls.
    """

    def __call__(self, concepts: Sequence[str], target_text: str) -> list[bool]:
        if not concepts:
            return []
        input_text = (
            "Concepts:\n- "
            + "\n- ".join(concepts)
            + "\n\nText:\n"
            + target_text
        )
        return _parse_verdicts(self._client.complete(self._call(input_text)), len(concepts))


def exact_match_verifier(concepts: Sequence[str], target_text: str) -> list[bool]:
    """Deterministic oracle: case-folded, whitespace-collapsed substring test."""
    target = collapse_whitespace(target_text)
    return [collapse_whitespace(c) in target for c in concepts]


_SEGMENT_SPLIT_RE = re.compile(r"[\n.;,]+")


def segment_concept_extractor(text: str) -> list[str]:
    """Deterministic offline extractor: clause-level segments as concepts.

    Splits on newlines and sentence/clause punctuation, normalizes, and
    dedups. Pairs with exact_match_verifier for fully offline scoring.
    """
    concepts: list[str] = []
    seen: set[str] = set()
    for fragment in _SEGMENT_SPLIT_RE.split(text):
        concept = collapse_whitespace(fragment)
        if concept and concept not in seen:
            seen.add(concept)
            concepts.append(concept)
    return concepts


def score_section(
    gt_text: str,
    pred_text: str,
    verifier: Verifier,
    extractor: ConceptExtractor,
    section: str = "",
) -> SectionScore:
    """Score one section: extract concepts from both texts, cross-verify.

    Verification against an empty target is skipped outright (all misses,
    zero calls), which pins the degenerate cases: empty-vs-empty scores 1.0
    across the board, a non-empty ground truth against an empty prediction
    scores recall 0 with vacuous precision 1.0 and F1 0.
    """
    gt_concepts = extractor(gt_text)
    pred_concepts = extractor(pred_text)

    if gt_concepts and pred_text.strip():
        gt_hits = verifier(gt_concepts, pred_text)
    else:
        gt_hits = [False] * len(gt_concepts)
    if pred_concepts and gt_text.strip():
        pred_hits = verifier(pred_concepts, gt_text)
    else:
        pred_hits = [False] * len(pred_concepts)

    tp_gt = sum(gt_hits)
    tp_pred = sum(pred_hits)
    return score_from_counts(
        section=section,
        tp_gt=tp_gt,
        f_n=len(gt_concepts) - tp_gt,
        tp_pred=tp_pred,
        f_p=len(pred_concepts) - tp_pred,
    )


def evaluate_encounter(
    pred: StructuredSummary,
    gt: StructuredSummary,
    verifier: Verifier,
    extractor: ConceptExtractor,
) -> tuple[SectionScore, ...]:
    """Score the four finding sections, in fixed report order."""
    return tuple(
        score_section(gt.section(key), pred.section(key), verifier, extractor, key)
        for key in SCORED_SECTIONS
    )


@dataclass(frozen=True)
class RowKey:
    """Identity of one report row: the method and its configuration knobs.

    Fields that do not apply to a method (extraction shots and the resolver
    for the baseline, selection for 0-shot) are None and print as "-".
    A selection that is neither a str nor None is a TypeError, so every key
    hashes and sorts, and one that is not UTF-8 text (a lone surrogate) is
    a ValueError, so every key can be written to the CSV report.
    """

    method: str
    extraction_k: int | None
    summarization_k: int
    selection: str | None
    resolver: bool | None

    def __post_init__(self) -> None:
        if self.selection is not None:
            try:
                json_field("selection_mode", self.selection, str).encode()
            except UnicodeEncodeError as exc:  # a lone surrogate
                raise ValueError(f"selection_mode is not UTF-8 text: {self.selection!r}") from exc

    @classmethod
    def from_record(cls, record: RunRecord) -> "RowKey":
        return cls.from_config(record.method, record.config)

    @classmethod
    def from_config(cls, method: Method, cfg: Mapping[str, Any]) -> "RowKey":
        """The row of a run of `method` with the config snapshot `cfg`; a
        shot count that is not an int (a bool is not), a kept selection mode
        that is not a str or a `resolver_enabled` that is not a bool is a
        TypeError."""
        summarization_k = json_field("summarization_k", cfg.get("summarization_k", 0), int)
        selection = cfg.get("selection_mode")
        if method is Method.NAIVE_BASELINE:
            return cls(
                method=method.value,
                extraction_k=None,
                summarization_k=summarization_k,
                selection=selection if summarization_k > 0 else None,
                resolver=None,
            )
        return cls(
            method=method.value,
            extraction_k=json_field("extraction_k", cfg.get("extraction_k", 0), int),
            summarization_k=summarization_k,
            selection=selection,
            resolver=json_field("resolver_enabled", cfg.get("resolver_enabled", False), bool),
        )

    def sort_key(self) -> tuple:
        return (
            self.method,
            self.extraction_k if self.extraction_k is not None else -1,
            self.summarization_k,
            self.selection or "",
            int(self.resolver) if self.resolver is not None else -1,
        )


# A JSONL report line in json.dumps's sorted key order; see to_json_line.
_EVALUATION_LINE = (
    '{"encounter_id":%s,"extraction_k":%s,"method":%s,"resolver":%s,'
    '"scores":[%s],"selection":%s,"summarization_k":%r}\n'
)
_SCORE_OBJECT = (
    '{"f_n":%r,"f_p":%r,"gpt_f1":%r,"gpt_precision":%r,"gpt_recall":%r,'
    '"section":%s,"tp_gt":%r,"tp_pred":%r}'
)
_RESOLVER_JSON = {None: "null", True: "true", False: "false"}


@dataclass(frozen=True)
class EncounterEvaluation:
    encounter_id: str
    key: RowKey
    scores: tuple[SectionScore, ...]  # SCORED_SECTIONS order

    def to_dict(self) -> dict[str, Any]:
        return {
            "encounter_id": self.encounter_id,
            "method": self.key.method,
            "extraction_k": self.key.extraction_k,
            "summarization_k": self.key.summarization_k,
            "selection": self.key.selection,
            "resolver": self.key.resolver,
            "scores": [s.to_dict() for s in self.scores],
        }

    def to_json_line(self) -> str:
        """`json.dumps(self.to_dict(), sort_keys=True, separators=(",",
        ":")) + "\\n"`, formatted from pieces in that key order.

        Strings go through the encoder json.dumps uses for them. Every
        other field must hold what `RowKey.from_config` and
        `score_from_counts` give it: an int (not a bool) or None for the
        shot counts, a bool or None for the resolver, ints for the counts
        and finite floats for the scores, whose repr is their JSON.
        """
        key, selection = self.key, self.key.selection
        scores = ",".join(
            [
                _SCORE_OBJECT % (s.f_n, s.f_p, s.gpt_f1, s.gpt_precision, s.gpt_recall,
                                 _json_string(s.section), s.tp_gt, s.tp_pred)
                for s in self.scores
            ]
        )
        return _EVALUATION_LINE % (
            _json_string(self.encounter_id),
            "null" if key.extraction_k is None else repr(key.extraction_k),
            _json_string(key.method),
            _RESOLVER_JSON[key.resolver],
            scores,
            "null" if selection is None else _json_string(selection),
            key.summarization_k,
        )


@dataclass(frozen=True)
class TableRow:
    """One aggregated report row: per-section means plus their average."""

    key: RowKey
    section_scores: Mapping[str, float]  # section key -> mean F1
    average: float
    encounter_count: int


def aggregate(
    evaluations: Sequence[EncounterEvaluation], micro: bool = False
) -> list[TableRow]:
    """Aggregate per-encounter scores into one row per configuration.

    Default is macro aggregation: per-section mean of per-encounter F1 over
    encounters, then the average of the four per-section means. micro=True
    pools tp/fn/fp counts per section across encounters first and applies
    the formulas to the pooled counts.
    """
    if not evaluations:
        raise ValueError("no evaluations to aggregate")
    grouped: dict[RowKey, list[EncounterEvaluation]] = {}
    for evaluation in evaluations:
        grouped.setdefault(evaluation.key, []).append(evaluation)

    rows: list[TableRow] = []
    for key in sorted(grouped, key=RowKey.sort_key):
        group = grouped[key]
        section_scores: dict[str, float] = {}
        for i, section in enumerate(SCORED_SECTIONS):
            if micro:
                pooled = score_from_counts(
                    section,
                    tp_gt=sum(e.scores[i].tp_gt for e in group),
                    f_n=sum(e.scores[i].f_n for e in group),
                    tp_pred=sum(e.scores[i].tp_pred for e in group),
                    f_p=sum(e.scores[i].f_p for e in group),
                )
                section_scores[section] = pooled.gpt_f1
            else:
                section_scores[section] = statistics.fmean(
                    e.scores[i].gpt_f1 for e in group
                )
        average = statistics.fmean(section_scores[s] for s in SCORED_SECTIONS)
        rows.append(TableRow(key, section_scores, average, len(group)))
    return rows


CSV_COLUMNS = (
    "method",
    "extraction_k",
    "summarization_k",
    "selection",
    "resolver",
    *SCORED_SECTIONS,
    "average",
)


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _pct(score: float) -> str:
    return f"{score * 100:.1f}"


def write_csv_report(rows: Sequence[TableRow], path: str | Path) -> None:
    """One row per configuration; scores are percentages with one decimal."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.key.method,
                    _cell(row.key.extraction_k),
                    _cell(row.key.summarization_k),
                    _cell(row.key.selection),
                    _cell(row.key.resolver),
                    *(_pct(row.section_scores[section]) for section in SCORED_SECTIONS),
                    _pct(row.average),
                ]
            )


def write_jsonl_report(
    evaluations: Sequence[EncounterEvaluation], path: str | Path
) -> None:
    """Per-encounter detail, one JSON object per line."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines([evaluation.to_json_line() for evaluation in evaluations])
