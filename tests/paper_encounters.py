"""Seeded encounters shaped like the paper's data set.

The paper reports 100 encounters of 8 to 92 dialogue turns, 46 on average,
and 2,342 unigram tokens on average; it gives no other moment of either.
The distributions chosen here meet those figures:

- the turn count is a triangular distribution on [8, 92] with mode 38,
  rounded, whose mean is (8 + 38 + 92) / 3 = 46;
- each turn has a uniform 20 to 82 words, 51 on average, so an encounter
  has about 46 * 51 = 2,346 words;
- the first turn is the doctor's, and each later turn changes speaker with
  probability 0.85, so doctor and patient mostly alternate and some runs
  of one speaker occur (`pair_turns` makes pairs and singletons of them);
- half the encounters, drawn, have one doctor turn that asks about the
  belly, the word on which the tests' scripted responder extracts an
  unknown-status entity and so makes the resolver fire.

The presentations are the paper's: urinary tract infections, back or
abdominal pain and toothaches. Only the stdlib `random` module is used, so
a stdlib-only script can draw the same encounters.
"""

from __future__ import annotations

import random

from medsum.model import Encounter, Speaker, StructuredSummary, Turn

MIN_TURNS, MODE_TURNS, MAX_TURNS = 8, 38, 92
MIN_WORDS, MAX_WORDS = 20, 82
SWITCH_SPEAKER = 0.85
BELLY_SHARE = 0.5
BELLY_QUESTION = "Does your belly hurt"

# (reason for encounter, the summary's medical intent)
PRESENTATIONS = (
    ("Burning when I pee for a few days, I think it is a UTI again", "urinary tract infection"),
    ("My lower back has hurt since I lifted boxes last week", "low back pain"),
    ("Pain in my stomach after meals for three days now", "abdominal pain"),
    ("A toothache on the lower left side that keeps me up at night", "toothache"),
)

# The words a turn is drawn from; "belly" is not one of them.
VOCABULARY = tuple(
    """
    pain burning urinate urine frequency fever chills nausea vomiting back
    lower upper left right side tooth cold water swallow cough sore throat
    rash itching days week weeks since started worse better after before
    meals night morning medication ibuprofen antibiotics allergy history
    blood pressure sleep work lifting boxes walking sitting standing
    yes no maybe sometimes often never a little much more less the and
    it is was have has had do does did any you your my I when how long
    """.split()
)


def paper_encounter(rng: random.Random, enc_id: str) -> Encounter:
    """One encounter drawn from `rng` as the module docstring describes."""
    rfe, intent = rng.choice(PRESENTATIONS)
    age, sex = rng.randint(18, 90), rng.choice(("female", "male"))
    n_turns = round(rng.triangular(MIN_TURNS, MAX_TURNS, MODE_TURNS))
    speakers = [Speaker.DOCTOR]
    for _ in range(n_turns - 1):
        if rng.random() < SWITCH_SPEAKER:
            speakers.append(Speaker.PATIENT if speakers[-1] is Speaker.DOCTOR else Speaker.DOCTOR)
        else:
            speakers.append(speakers[-1])
    texts = [
        " ".join(rng.choice(VOCABULARY) for _ in range(rng.randint(MIN_WORDS, MAX_WORDS)))
        for _ in speakers
    ]
    if rng.random() < BELLY_SHARE:
        doctor = [i for i, speaker in enumerate(speakers) if speaker is Speaker.DOCTOR]
        i = rng.choice(doctor)
        texts[i] = BELLY_QUESTION + " " + texts[i].split(" ", 4)[-1]
    reference = StructuredSummary(
        demographics_sdoh=f"A {age} year old {sex}.",
        medical_intent=f"Patient came for {intent}.",
        pertinent_positives=f"{intent.capitalize()}.",
        pertinent_negatives="No fever.",
        pertinent_unknowns="Unsure about nausea.",
        medical_history="No prior history given.",
    )
    turns = tuple(Turn(speaker, text) for speaker, text in zip(speakers, texts))
    return Encounter(enc_id, rfe, age, sex, turns, reference)


def paper_encounters(count: int = 100, seed: int = 0) -> list[Encounter]:
    """`count` encounters drawn from one `random.Random(seed)`, with ids
    `paper-<seed>-<index>`."""
    rng = random.Random(seed)
    return [paper_encounter(rng, f"paper-{seed}-{i:03d}") for i in range(count)]
