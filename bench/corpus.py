"""Seeded synthetic corpus and example pools for the benchmark.

Every encounter is a run of doctor-then-patient exchanges. Each exchange is
one of four types:

* content: the doctor asks about a term from VOCAB and the patient affirms
  or denies it;
* unknown: the doctor asks about a term and the patient leaves it open, so
  the entity extracts as unknown and the resolver has work to do;
* history: the doctor asks about a past condition from HISTORY;
* boilerplate: one of STOCK_EXCHANGES, word for word identical in every
  encounter, so identical prompts recur across encounters that share the
  patient's age and sex.

Terms are drawn without replacement inside an encounter, so an unknown
mention is never settled by another mention of the same term and the
resolver fires exactly on the encounters given unknown exchanges.

Beside each encounter the generator returns the facts its conversation
states (`content_problems` checks a run's record against them), so the
benchmark can check medsum's output against something medsum did not
compute.

Turn counts and unknown-bearing encounters follow one fixed sequence, so
every seed gives the same amount of work, the same call counts and the same
order of long and short encounters; only the words differ. The same seed
gives the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

SITES = (
    "left knee", "right knee", "lower back", "upper back", "neck",
    "left shoulder", "right shoulder", "left hip", "right ankle", "left wrist",
    "jaw", "chest wall",
)
FEELINGS = ("pain", "swelling", "stiffness", "numbness", "tingling")
STANDALONE = (
    "fever", "chills", "night sweats", "fatigue", "dizziness", "headache",
    "nausea", "vomiting", "diarrhea", "constipation", "heartburn", "bloating",
    "dry cough", "productive cough", "sore throat", "runny nose",
    "nasal congestion", "ear pain", "blurred vision", "shortness of breath",
    "wheezing", "palpitations", "insomnia", "weight loss", "loss of appetite",
    "frequent urination", "burning with urination", "blood in urine",
    "skin rash", "hives", "muscle cramps", "anxiety", "low mood", "hair loss",
    "easy bruising", "swollen glands", "hoarse voice", "sneezing", "itchy eyes",
    "leg cramps",
)
VOCAB = tuple(f"{site} {feeling}" for site in SITES for feeling in FEELINGS) + STANDALONE
HISTORY = (
    "asthma", "type 2 diabetes", "hypertension", "migraine", "kidney stones",
    "pneumonia", "appendicitis", "eczema", "gout", "hypothyroidism",
    "gallstones", "shingles", "anemia", "bronchitis", "sinusitis",
)
# (doctor line, patient line, entity term or None, status of the term)
STOCK_EXCHANGES = (
    ("Do you have any drug allergies?", "No, none that I know of.", "drug allergies", "absent"),
    ("Do you have any tobacco use?", "No, never have.", "tobacco use", "absent"),
    ("Any alcohol use?", "Yes, a glass of wine on weekends.", "alcohol use", "present"),
    ("Any recent travel outside the country?", "No, I have been at home.", "recent travel", "absent"),
    ("Any family history of heart disease?", "No, not that I know of.", "heart disease", "absent"),
    ("Have you had any recent surgery?", "No, not in years.", "recent surgery", "absent"),
    ("Are you taking any medications right now?", "No, nothing regular.", None, None),
    ("Is there anything else you would like to mention?", "No, that is everything.", None, None),
)
STOCK_TERMS = tuple(term for _, _, term, _ in STOCK_EXCHANGES if term)
ALL_TERMS = VOCAB + HISTORY + STOCK_TERMS
# Share of the encounters that get the unknown exchanges (and so the resolver).
RESOLVER_SHARE = 0.75

# A few ages and two sexes, so boilerplate prompts repeat across encounters.
AGES = (24, 37, 46, 58, 71)
SEXES = ("female", "male")

QUESTIONS = (
    "Have you noticed any {t} lately?",
    "Are you having any {t}?",
    "Any {t} since this started?",
    "Do you get {t} at all?",
)
# The first word of a patient answer carries the status: Yes / No / other.
ANSWERS = {
    "present": ("Yes, it started about {n} days ago.", "Yes, mostly in the evenings.", "Yes, it comes and goes."),
    "absent": ("No, not at all.", "No, nothing like that.", "No."),
    "unknown": ("I am not sure, maybe a little.", "Hard to say, I have not paid attention.", "I really could not tell you."),
}
HISTORY_QUESTION = "Any history of {t}?"
HISTORY_ANSWERS = {
    "present": "Yes, {n} years ago, it was treated.",
    "absent": "No, never.",
}
RFE_CLAUSES = {
    "present": ("I have had {t} for {n} days", "there is also some {t}", "I keep getting {t}"),
    "absent": ("no {t} so far", "no {t} though"),
}


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a generated corpus.

    Turn counts are even and spread evenly over [min_turns, max_turns].
    unknown_share is the share of all exchanges that leave their term open;
    they go to RESOLVER_SHARE of the encounters. boilerplate_share is the
    share of exchanges taken from STOCK_EXCHANGES.
    """

    encounters: int
    min_turns: int = 20
    max_turns: int = 60
    unknown_share: float = 1 / 3
    boilerplate_share: float = 0.25

    def __post_init__(self) -> None:
        if self.encounters <= 0:
            raise ValueError("encounters must be positive")
        if self.min_turns < 8 or self.min_turns % 2 or self.max_turns % 2:
            raise ValueError("turn counts must be even and at least 8")
        if self.max_turns < self.min_turns:
            raise ValueError("max_turns below min_turns")


def _shapes(spec: CorpusSpec) -> list[tuple[int, bool]]:
    """(turn count, has unknown exchanges) per encounter, the same for every
    seed: turn counts cycle through the even values of the range, and
    unknown-bearing encounters are spread evenly over the sequence, so long
    encounters get the resolver as often as short ones. The order matters on
    record-latency, where an encounter's memory-cache hits depend on the
    encounters before it: a seeded shuffle moved enc_p95_ms with the seed
    (spread 0.063 over eight seeds, against 0.023 for this sequence)."""
    values = range(spec.min_turns, spec.max_turns + 1, 2)
    share = RESOLVER_SHARE
    return [(values[i % len(values)], int((i + 1) * share) > int(i * share))
            for i in range(spec.encounters)]


def _exchange(rng: random.Random, term: str, status: str) -> tuple[str, str]:
    question = rng.choice(QUESTIONS).format(t=term)
    answer = rng.choice(ANSWERS[status]).format(n=rng.randint(2, 14))
    return question, answer


def _join(items: list[str]) -> str:
    return ", ".join(items)


def _reference(age, sex, intent, positives, negatives, unknowns, history) -> dict[str, str]:
    return {
        "demographics_sdoh": f"A {age} year old {sex}.",
        "medical_intent": f"Patient came in for {intent}.",
        "pertinent_positives": f"Patient reports {_join(positives)}." if positives else "",
        "pertinent_negatives": f"Patient denies {_join(negatives)}." if negatives else "",
        "pertinent_unknowns": f"Unclear whether the patient has {_join(unknowns)}." if unknowns else "",
        "medical_history": f"History of {_join(history)}." if history else "",
    }


def _encounter(
    rng: random.Random, enc_id: str, n_turns: int, n_unknown: int, spec: CorpusSpec
) -> tuple[dict[str, Any], dict[str, Any]]:
    age, sex = rng.choice(AGES), rng.choice(SEXES)
    windows = n_turns // 2
    n_stock = min(round(spec.boilerplate_share * windows), len(STOCK_EXCHANGES))
    n_history = 1
    n_content = windows - n_stock - n_history - n_unknown
    if n_content < 1:
        raise ValueError(f"{n_turns} turns leave no room for content exchanges")

    terms = rng.sample(VOCAB, 3 + n_content + n_unknown)
    rfe_terms, content_terms, unknown_terms = terms[:3], terms[3:3 + n_content], terms[3 + n_content:]
    rfe_status = ["present", rng.choice(["present", "absent"]), "absent"]
    rfe = "; ".join(
        rng.choice(RFE_CLAUSES[status]).format(t=term, n=rng.randint(2, 14))
        for term, status in zip(rfe_terms, rfe_status)
    )
    truth: dict[str, list[str]] = {"present": [], "absent": [], "unknown": []}
    stated: dict[str, str] = dict(zip(rfe_terms, rfe_status))
    for term, status in stated.items():
        truth[status].append(term)

    kinds = ["content"] * n_content + ["unknown"] * n_unknown + ["history"] * n_history
    kinds += ["stock"] * n_stock
    rng.shuffle(kinds)
    stock = iter(rng.sample(STOCK_EXCHANGES, n_stock))
    content, unknown = iter(content_terms), iter(unknown_terms)
    history: list[str] = []
    turns: list[tuple[str, str]] = []
    for kind in kinds:
        if kind == "content":
            term, status = next(content), rng.choice(["present", "absent"])
            turns.append(_exchange(rng, term, status))
            truth[status].append(term)
            stated[term] = status
        elif kind == "unknown":
            term = next(unknown)
            turns.append(_exchange(rng, term, "unknown"))
            # What the conversation would settle, had it been asked again.
            truth[rng.choice(["unknown", "unknown", "present", "absent"])].append(term)
        elif kind == "history":
            term, status = rng.choice(HISTORY), rng.choice(["present", "absent"])
            years = rng.randint(1, 20)
            turns.append((HISTORY_QUESTION.format(t=term), HISTORY_ANSWERS[status].format(n=years)))
            stated[term] = status
            if status == "present":
                history.append(f"{term} {years} years ago")
            else:
                truth["absent"].append(term)
        else:
            doctor, patient, term, status = next(stock)
            turns.append((doctor, patient))
            if term is not None:
                truth[status].append(term)
                stated[term] = status

    record: dict[str, Any] = {
        "id": enc_id,
        "rfe": rfe,
        "age": age,
        "sex": sex,
        "turns": [
            {"speaker": speaker, "text": text}
            for doctor, patient in turns
            for speaker, text in (("doctor", doctor), ("patient", patient))
        ],
    }
    record["reference_summary"] = _reference(
        age, sex, rfe_terms[0], truth["present"], truth["absent"], truth["unknown"], history
    )
    facts = {
        "stated": stated,
        "open": unknown_terms,
        "history": bool(history),
        # RFE + one per exchange + resolver (when an answer left a term open) + summary.
        "calls": 2 + windows + int(n_unknown > 0),
    }
    return record, facts


def generate_corpus(seed: int, spec: CorpusSpec) -> tuple[list[dict[str, Any]], dict[str, dict[str, Any]]]:
    """Dataset records (the decoded JSONL form `medsum validate` checks), and
    the facts each encounter's conversation states, by encounter id:
    `stated` maps each term the RFE, a content, history or boilerplate
    exchange settles to its status; `open` lists the terms left open;
    `history` says whether a past condition was affirmed; `calls` is the
    number of completion calls the staged chain makes."""
    rng = random.Random(seed)
    records, facts = [], {}
    for i, (n_turns, fires) in enumerate(_shapes(spec)):
        windows = n_turns // 2
        n_unknown = max(1, round(spec.unknown_share * windows / RESOLVER_SHARE)) if fires else 0
        enc_id = f"s{seed}-e{i:04d}"
        record, facts[enc_id] = _encounter(rng, enc_id, n_turns, n_unknown, spec)
        records.append(record)
    return records, facts


def content_problems(record, facts: dict[str, Any]) -> list[str]:
    """How a `RunRecord` of the staged chain disagrees with what its
    encounter's conversation states: the ledger must hold exactly the stated
    and open terms, each stated term with its stated status, and the summary
    must list each stated term under its status and fill every section the
    conversation gives content for."""
    problems = []
    ledger = {entity.name: entity.status.value for entity in record.ledger}
    expected = set(facts["stated"]) | set(facts["open"])
    if set(ledger) != expected:
        problems.append(f"ledger terms {sorted(set(ledger) ^ expected)} differ from the conversation's")
    section = {"present": "pertinent_positives", "absent": "pertinent_negatives"}
    summary = record.summary.to_dict()
    for term, status in facts["stated"].items():
        if ledger.get(term, status) != status:
            problems.append(f"ledger has {term!r} as {ledger[term]}, the conversation says {status}")
        if term not in summary[section[status]]:
            problems.append(f"{term!r} missing from the summary's {section[status]}")
    filled = ["demographics_sdoh", "medical_intent", *section.values()]
    filled += ["medical_history"] if facts["history"] else []
    problems.extend(f"summary section {key} is empty" for key in filled if not summary[key].strip())
    return [f"{record.encounter_id}: {p}" for p in problems]


def _ledger_block(entities: list[tuple[str, str]]) -> str:
    blocks = []
    for status in ("present", "absent", "unknown"):
        lines = [f"{status.capitalize()}:"]
        lines.extend(f"- {name} ({s})" for name, s in sorted(entities) if s == status)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _summary_label(age, sex, intent, entities, history) -> str:
    by = {s: [n for n, st in entities if st == s] for s in ("present", "absent", "unknown")}
    return (
        "Demographics and Social Determinants of Health:\n"
        f"A {age} year old {sex}.\n\n"
        f"Medical Intent:\nVisit for {intent}.\n\n"
        f"Pertinent Positives:\n{'; '.join(by['present'])}\n\n"
        f"Pertinent Negatives:\n{'; '.join(by['absent'])}\n\n"
        f"Pertinent Unknowns:\n{'; '.join(by['unknown'])}\n\n"
        f"Medical History:\n{'; '.join(history)}"
    )


def generate_pools(seed: int, size: int = 300, summaries: int = 60) -> list[dict[str, Any]]:
    """Example-pool records: `size` RFE and dialogue examples each, and
    `summaries` one-shot summarization examples. Labels use the canonical
    `- <name> (<status>)` grammar."""
    rng = random.Random(seed ^ 0x5EED)
    records: list[dict[str, Any]] = []

    def demo() -> tuple[int, str]:
        return rng.randint(18, 85), rng.choice(SEXES)

    for _ in range(size):
        age, sex = demo()
        terms = rng.sample(VOCAB, 2)
        statuses = ["present", rng.choice(["present", "absent"])]
        text = "; ".join(
            rng.choice(RFE_CLAUSES[s]).format(t=t, n=rng.randint(2, 14)) for t, s in zip(terms, statuses)
        )
        label = "\n".join(f"- {t} ({s})" for t, s in zip(terms, statuses))
        records.append({"kind": "rfe_extraction", "input_text": text, "age": age, "sex": sex, "label": label})
    for _ in range(size):
        age, sex = demo()
        term, status = rng.choice(VOCAB), rng.choice(["present", "absent", "unknown"])
        question, answer = _exchange(rng, term, status)
        records.append({
            "kind": "dialogue_extraction",
            "input_text": f"Doctor: {question}\nPatient: {answer}",
            "age": age, "sex": sex, "label": f"- {term} ({status})",
        })
    for _ in range(summaries):
        age, sex = demo()
        terms = rng.sample(VOCAB, 3)
        statuses = ["present", "absent", "unknown"]
        lines = []
        for t, s in zip(terms, statuses):
            question, answer = _exchange(rng, t, s)
            lines += [f"Doctor: {question}", f"Patient: {answer}"]
        entities = list(zip(terms, statuses))
        text = (
            "Conversation:\nReason for encounter: "
            + RFE_CLAUSES["present"][0].format(t=terms[0], n=rng.randint(2, 14))
            + "\n" + "\n".join(lines)
            + "\n\nExtracted medical entities:\n" + _ledger_block(entities)
        )
        records.append({
            "kind": "summarization", "input_text": text, "age": age, "sex": sex,
            "label": _summary_label(age, sex, terms[0], entities, []),
        })
    return records


def write_jsonl(path: str | Path, records: Iterable[dict[str, Any]]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
