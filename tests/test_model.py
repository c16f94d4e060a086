import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medsum.model import (
    SECTION_KEYS,
    Encounter,
    EntityLedger,
    EntityStatus,
    MedicalEntity,
    Method,
    PromptKind,
    RunRecord,
    StructuredSummary,
    TraceEntry,
    Turn,
    ValidationError,
    normalize_entity_name,
    validate_encounter,
)


def raw_record(**overrides):
    record = {
        "id": "enc-001",
        "rfe": "UTI",
        "age": 46,
        "sex": "female",
        "turns": [
            {"speaker": "doctor" if i % 2 == 0 else "patient", "text": f"turn {i}"}
            for i in range(8)
        ],
    }
    record.update(overrides)
    return record


class TestValidateEncounter:
    def test_wellformed_record(self):
        enc = validate_encounter(raw_record())
        assert isinstance(enc, Encounter)
        assert len(enc.turns) == 8
        assert enc.age == 46
        assert enc.sex == "female"

    def test_zero_turns(self):
        with pytest.raises(ValidationError, match="turns empty"):
            validate_encounter(raw_record(turns=[]))

    def test_unknown_speaker_names_turn_index(self):
        turns = raw_record()["turns"]
        turns[2] = {"speaker": "nurse", "text": "hello"}
        with pytest.raises(ValidationError, match="turn 2.*nurse"):
            validate_encounter(raw_record(turns=turns))

    def test_negative_age(self):
        with pytest.raises(ValidationError, match="negative age"):
            validate_encounter(raw_record(age=-1))

    def test_collects_every_problem(self):
        record = raw_record(age=-1, sex="", turns=[])
        del record["id"]
        with pytest.raises(ValidationError) as excinfo:
            validate_encounter(record)
        problems = excinfo.value.problems
        assert len(problems) == 4

    def test_empty_turn_text(self):
        turns = raw_record()["turns"]
        turns[3] = {"speaker": "patient", "text": "   "}
        with pytest.raises(ValidationError, match="turn 3: empty text"):
            validate_encounter(raw_record(turns=turns))

    def test_not_an_object(self):
        with pytest.raises(ValidationError):
            validate_encounter([1, 2, 3])

    def test_reference_summary_roundtrip(self):
        ref = {key: f"text for {key}" for key in SECTION_KEYS}
        enc = validate_encounter(raw_record(reference_summary=ref))
        assert enc.reference_summary == StructuredSummary(**ref)

    def test_reference_summary_unknown_key(self):
        with pytest.raises(ValidationError, match="reference_summary"):
            validate_encounter(raw_record(reference_summary={"bogus": "x"}))

    @given(
        st.one_of(
            st.none(),
            st.integers(),
            st.text(),
            st.dictionaries(st.text(max_size=8), st.one_of(st.none(), st.integers(), st.text())),
        )
    )
    def test_total_over_arbitrary_input(self, raw):
        # Every decoded value yields an Encounter or ValidationError, never a crash.
        try:
            validate_encounter(raw)
        except ValidationError:
            pass


class TestNormalizeEntityName:
    def test_collapses_whitespace_and_case(self):
        assert normalize_entity_name("  Back   Pain ") == "back pain"

    def test_case_fold_only(self):
        assert normalize_entity_name("COVID-19") == "covid-19"

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            normalize_entity_name("")
        with pytest.raises(ValueError):
            normalize_entity_name("   ")

    @given(st.text())
    def test_idempotent(self, name):
        try:
            once = normalize_entity_name(name)
        except ValueError:
            return
        assert normalize_entity_name(once) == once


class TestDomainTypes:
    def test_entity_normalizes_on_construction(self):
        entity = MedicalEntity(name=" Fever  Chills ", status="present")
        assert entity.name == "fever chills"
        assert entity.status is EntityStatus.PRESENT

    def test_ledger_rejects_duplicate_names(self):
        a = MedicalEntity("fever", EntityStatus.PRESENT)
        b = MedicalEntity("FEVER", EntityStatus.ABSENT)
        with pytest.raises(ValueError, match="duplicate"):
            EntityLedger((a, b))

    def test_ledger_lookup_and_unknowns(self):
        ledger = EntityLedger(
            (
                MedicalEntity("fever", EntityStatus.ABSENT),
                MedicalEntity("back pain", EntityStatus.UNKNOWN),
            )
        )
        assert ledger.get("Back  Pain").status is EntityStatus.UNKNOWN
        assert [e.name for e in ledger.unknowns()] == ["back pain"]

    def test_turn_requires_text(self):
        with pytest.raises(ValueError):
            Turn(speaker="doctor", text="  ")

    def test_encounter_requires_turns(self):
        with pytest.raises(ValueError):
            Encounter(id="x", rfe="r", age=1, sex="f", turns=())

    def test_summary_from_dict_fills_missing(self):
        summary = StructuredSummary.from_dict({"medical_intent": "refill"})
        assert summary.medical_intent == "refill"
        assert summary.pertinent_positives == ""

    def test_run_record_json_round_trip(self):
        from medsum.model import Method, RunRecord, TraceEntry

        record = RunRecord(
            encounter_id="enc-9",
            method=Method.MEDSUM_ENT,
            config={"extraction_k": 3, "summarization_k": 1},
            ledger=EntityLedger(
                (
                    MedicalEntity("fever", EntityStatus.ABSENT, ("turn-pair 0",)),
                    MedicalEntity("cough", EntityStatus.PRESENT, ("rfe", "resolver")),
                )
            ),
            summary=StructuredSummary(medical_history="asthma"),
            llm_call_trace=(
                TraceEntry(
                    prompt_kind="rfe_extraction",
                    prompt_hash="ab" * 32,
                    params={"temperature": 0.1, "max_tokens": 200, "top_p": 1.0},
                ),
            ),
            warnings=("rfe: something odd",),
        )
        assert RunRecord.from_json_dict(record.to_json_dict()) == record


# Strings with quotes, backslashes, control characters, non-ASCII, astral
# characters and lone surrogates, all of which the encoder escapes.
_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=10),
    st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\u2028é—😀\ud800\udfff'), max_size=10),
)
# Values that compare equal but encode apart, and the floats JSON spells out.
_TRICKY = st.sampled_from(
    [True, 1, 1.0, False, 0, 0.0, -0.0, math.nan, math.inf, -math.inf, None, "1"]
)
_SCALAR = st.one_of(_TRICKY, st.integers(), st.floats(), _TEXT)
_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_TEXT, inner, max_size=3)
    ),
    max_leaves=4,
)
# Mostly two names and the values above, so params dicts often differ only
# in the type or sign of a value.
_PARAMS = st.one_of(
    st.dictionaries(st.sampled_from(["temperature", "top_p"]), _TRICKY, max_size=2),
    st.dictionaries(_TEXT, _VALUE, max_size=3),
)


@st.composite
def run_records(draw):
    names = draw(st.lists(_TEXT, max_size=4))
    entities = {}
    for name in names:
        try:
            entity = MedicalEntity(
                name, draw(st.sampled_from(EntityStatus)), tuple(draw(st.lists(_TEXT, max_size=3)))
            )
        except ValueError:  # nothing left after normalization
            continue
        entities.setdefault(entity.name, entity)
    trace = draw(
        st.lists(
            st.builds(TraceEntry, st.sampled_from(PromptKind), _TEXT, _PARAMS), max_size=8
        )
    )
    return RunRecord(
        encounter_id=draw(_TEXT),
        method=draw(st.sampled_from(Method)),
        config=draw(st.dictionaries(_TEXT, _VALUE, max_size=3)),
        ledger=EntityLedger(tuple(entities.values())),
        summary=StructuredSummary(**draw(st.fixed_dictionaries({k: _TEXT for k in SECTION_KEYS}))),
        llm_call_trace=tuple(trace),
        warnings=tuple(draw(st.lists(_TEXT, max_size=3))),
    )


@given(run_records())
def test_run_record_line_is_the_json_dumps_reference(record):
    line = record.to_json_line()
    reference = json.dumps(record.to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert line == reference + "\n"
    assert RunRecord.from_json_dict(json.loads(line)).to_json_line() == line
