"""Stand-in completion endpoint for the benchmark.

`StandInEndpoint` is a medsum `Transport` whose every response is derived
from the live input of its prompt, the way a model's would be:

* extraction prompts get one `- <term> (<status>)` line per term of
  `corpus.ALL_TERMS` found in the input, with the status read from the
  patient's answer (or from the RFE clause);
* resolver prompts get a verdict for every listed unknown, fixed by a hash
  of the entity and the conversation;
* summarization prompts get a six-section summary built from the ledger,
  demographics and history answers in the prompt;
* metric prompts get the concepts of the text, and one yes/no per listed
  concept, aligned with the list.

It sleeps a fixed latency on every attempt and fails the first attempt of
an exact share of the distinct requests it receives, spread evenly over
them from a seeded phase, with `TransientBackendError`.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time

from medsum.backend import CompletionRequest, TransientBackendError
from medsum.model import PromptKind

from corpus import ALL_TERMS, ANSWERS

_TERM_RE = re.compile(
    r"\b(" + "|".join(re.escape(t) for t in sorted(ALL_TERMS, key=len, reverse=True)) + r")\b"
)
_ENTITY_RE = re.compile(r"^- (.+) \((present|absent|unknown)\)$", re.MULTILINE)
_HISTORY_RE = re.compile(r"^Doctor: Any history of (.+)\?\nPatient: Yes, (\d+) years ago", re.MULTILINE)
_AGE_SEX_RE = re.compile(r"Patient age: (\d+)\nPatient sex: (\S+)\n")
_CONCEPT_SPLIT_RE = re.compile(r"[;,.\n]+| and ")
_CONCEPT_PREFIXES = (
    "unclear whether the patient has ", "patient reports ", "patient denies ",
    "history of ", "reports ", "denies ", "unsure about ", "visit for ",
)
_YEARS_RE = re.compile(r" \d+ years ago$")
_UNKNOWN_ANSWERS = frozenset(ANSWERS["unknown"])


def _live_input(prompt: str, start: str, end: str) -> str:
    """The text between the last `start` marker and the closing `end`."""
    body = prompt.rpartition(start)[2].rstrip()
    return body[: -len(end)] if body.endswith(end) else body


def _entity_lines(entities: list[tuple[str, str]]) -> str:
    seen: dict[str, str] = {}
    for name, status in entities:
        seen.setdefault(name, status)
    return "\n".join(f"- {name} ({status})" for name, status in seen.items())


def _answer_status(answer: str) -> str:
    if answer.startswith("Yes"):
        return "present"
    if answer.startswith("No") and answer not in _UNKNOWN_ANSWERS:
        return "absent"
    return "unknown"


def extract_rfe(text: str) -> str:
    entities = []
    for clause in text.split(";"):
        clause = clause.strip()
        status = "absent" if clause.startswith("no ") else "present"
        entities.extend((term, status) for term in _TERM_RE.findall(clause))
    return _entity_lines(entities)


def extract_exchange(text: str) -> str:
    answers = [line[len("Patient: "):] for line in text.splitlines() if line.startswith("Patient: ")]
    status = _answer_status(answers[-1]) if answers else "unknown"
    return _entity_lines([(term, status) for term in _TERM_RE.findall(text)])


def _digest(*parts: str) -> int:
    h = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big")


def resolve(text: str) -> str:
    listed, _, conversation = text.partition("\n\nConversation:\n")
    verdicts = ("present", "absent", "unknown")
    return "\n".join(
        f"- {name} ({verdicts[_digest(name, conversation) % 3]})"
        for name, _status in _ENTITY_RE.findall(listed)
    )


def summarize(prompt: str) -> str:
    age, sex = _AGE_SEX_RE.findall(prompt)[-1]
    body = prompt.rpartition("Conversation:\n")[2]
    conversation, _, ledger = body.partition("\n\nExtracted medical entities:\n")
    by_status: dict[str, list[str]] = {"present": [], "absent": [], "unknown": []}
    for name, status in _ENTITY_RE.findall(ledger):
        by_status[status].append(name)
    history = [f"{term} {years} years ago" for term, years in _HISTORY_RE.findall(conversation)]
    rfe = conversation.partition("\n")[0].removeprefix("Reason for encounter: ")
    intent = (_TERM_RE.findall(rfe) or [rfe])[0]
    return (
        "Demographics and Social Determinants of Health:\n"
        f"A {age} year old {sex}.\n\n"
        f"Medical Intent:\nVisit for {intent}.\n\n"
        f"Pertinent Positives:\n{'; '.join(by_status['present'])}\n\n"
        f"Pertinent Negatives:\n{'; '.join(by_status['absent'])}\n\n"
        f"Pertinent Unknowns:\n{'; '.join(by_status['unknown'])}\n\n"
        f"Medical History:\n{'; '.join(history)}\n"
    )


def concepts_of(text: str) -> list[str]:
    concepts: list[str] = []
    for fragment in _CONCEPT_SPLIT_RE.split(text.casefold()):
        fragment = fragment.strip()
        for prefix in _CONCEPT_PREFIXES:
            fragment = fragment.removeprefix(prefix)
        fragment = _YEARS_RE.sub("", fragment).strip()
        if fragment and fragment not in concepts:
            concepts.append(fragment)
    return concepts


def verify(text: str) -> str:
    listed, _, target = text.partition("\n\nText:\n")
    target = target.casefold()
    concepts = [line[2:] for line in listed.splitlines() if line.startswith("- ")]
    return "\n".join("yes" if c.casefold() in target else "no" for c in concepts)


def respond(req: CompletionRequest) -> str:
    """The completion text for one request; pure function of the prompt."""
    kind, prompt = req.prompt_kind, req.prompt
    if kind is PromptKind.RFE_EXTRACTION:
        return extract_rfe(_live_input(prompt, "First message:\n", "\nEntities:"))
    if kind is PromptKind.DIALOGUE_EXTRACTION:
        return extract_exchange(_live_input(prompt, "Exchange:\n", "\nEntities:"))
    if kind is PromptKind.UNKNOWN_RESOLVER:
        return resolve(_live_input(prompt, "Unresolved entities:\n", "\nEntities:"))
    if kind is PromptKind.SUMMARIZATION:
        return summarize(prompt)
    if kind is PromptKind.METRIC_EXTRACTION:
        text = _live_input(prompt, "Text:\n", "\nConcepts:")
        return "\n".join(f"- {c}" for c in concepts_of(text))
    if kind is PromptKind.METRIC_VERIFICATION:
        return verify(_live_input(prompt, "\nConcepts:\n", "\nAnswers:"))
    raise ValueError(f"no stand-in response for prompt kind {kind}")


class StandInEndpoint:
    """Transport with injected latency and evenly spread first-attempt failures.

    `answered` lists every request that got a completion, in answer order.
    """

    def __init__(self, latency_s: float = 0.0, failure_share: float = 0.0, seed: int | str = 0):
        self.latency_s = latency_s
        self.failure_share = failure_share
        self.answered: list[CompletionRequest] = []
        self._seen: set[int] = set()
        self._credit = _digest(str(seed)) / 2**64  # the seeded phase, in [0, 1)
        self._lock = threading.Lock()

    def _fails(self, req: CompletionRequest) -> bool:
        """Whether to fail this attempt: the first attempt of each distinct
        request adds failure_share to a credit, and the one that brings it
        to 1 fails. Drawing failures independently per request would let
        their count, and how they bunch in the longest encounters, vary
        from seed to seed; that made enc_p95_ms spread 0.059 over eight
        seeds, where this spreads 0.025."""
        if not self.failure_share:
            return False
        digest = _digest(req.prompt_kind.value, req.prompt)
        with self._lock:
            if digest in self._seen:
                return False
            self._seen.add(digest)
            self._credit += self.failure_share
            if self._credit < 1:
                return False
            self._credit -= 1
        return True

    def send(self, req: CompletionRequest) -> str:
        if self.latency_s:
            time.sleep(self.latency_s)
        if self._fails(req):
            raise TransientBackendError("stand-in endpoint: injected first-attempt failure")
        text = respond(req)
        self.answered.append(req)
        return text
