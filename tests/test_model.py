import dataclasses
import json
import math
from collections import OrderedDict
from types import MappingProxyType
from typing import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medsum.model import (
    SECTION_KEYS,
    Encounter,
    EntityLedger,
    EntityStatus,
    MedicalEntity,
    Method,
    PromptKind,
    RecordHead,
    RunRecord,
    Speaker,
    StructuredSummary,
    TraceEntry,
    Turn,
    ValidationError,
    _checked_entity,
    _checked_ledger,
    _checked_trace_entry,
    collapse_whitespace,
    compact_json,
    json_field,
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
def run_record_fields(draw):
    """The constructor arguments of a RunRecord."""
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
    return dict(
        encounter_id=draw(_TEXT),
        method=draw(st.sampled_from(Method)),
        config=draw(st.dictionaries(_TEXT, _VALUE, max_size=3)),
        ledger=EntityLedger(tuple(entities.values())),
        summary=StructuredSummary(**draw(st.fixed_dictionaries({k: _TEXT for k in SECTION_KEYS}))),
        llm_call_trace=tuple(trace),
        warnings=tuple(draw(st.lists(_TEXT, max_size=3))),
    )


def json_dumps_line(record):
    return json.dumps(record.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def decoded(line):
    """A line's JSON value, with NaN and the infinities as their names so
    that equal lines decode to equal values."""
    return json.loads(line, parse_constant=str)


# A surrogate pair held as two code units in a key decodes as the one
# character it encodes, so the decoded record sorts that key elsewhere. The
# example holds constructor arguments, so no RunRecord outlives the test.
@example(
    dict(
        encounter_id="",
        method=Method.MEDSUM_ENT,
        config={"\ud801": True, "\ud800\udc00": []},
        ledger=EntityLedger(),
        summary=StructuredSummary(),
        llm_call_trace=(),
    )
)
@given(run_record_fields())
def test_run_record_line_is_the_json_dumps_reference(fields):
    record = RunRecord(**fields)
    line = record.to_json_line()
    assert line == json_dumps_line(record)
    again = RunRecord.from_json_dict(json.loads(line))
    assert again.to_json_line() == json_dumps_line(again)
    assert decoded(again.to_json_line()) == decoded(line)


@pytest.mark.parametrize(
    "value, field, new, bad",
    [
        (Turn(Speaker.DOCTOR, "hello"), "text", "bye", {"text": " "}),
        (
            MedicalEntity("Fever", EntityStatus.PRESENT, ("rfe",)),
            "status",
            EntityStatus.ABSENT,
            {"name": " "},
        ),
        (
            TraceEntry(PromptKind.SUMMARIZATION, "ab", {"top_p": 1.0}, '{"top_p":1.0}'),
            "prompt_hash",
            "cd",
            {"prompt_kind": "x"},
        ),
    ],
    ids=["Turn", "MedicalEntity", "TraceEntry"],
)
def test_hot_value_types_are_slotted_and_frozen(value, field, new, bad):
    assert not hasattr(value, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, new)
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1
    same, changed = dataclasses.replace(value), dataclasses.replace(value, **{field: new})
    assert same == value and same is not value
    assert getattr(changed, field) == new and changed != value
    if isinstance(value, TraceEntry):  # its params are a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(same) == hash(value) and len({value, same, changed}) == 2
    # replace builds through the constructor, so its checks run.
    with pytest.raises(ValueError):
        dataclasses.replace(value, **bad)


def assert_same(built, expected):
    """Equal field for field, and each field of the same type."""
    assert type(built) is type(expected)
    if dataclasses.is_dataclass(expected):
        for f in dataclasses.fields(expected):
            assert_same(getattr(built, f.name), getattr(expected, f.name))
    elif isinstance(expected, (tuple, list)):
        assert len(built) == len(expected)
        for b, e in zip(built, expected):
            assert_same(b, e)
    elif isinstance(expected, dict):
        assert built.keys() == expected.keys()
        for key in expected:
            assert_same(built[key], expected[key])
    else:
        assert built == expected


_NAME = st.text(st.sampled_from("aB \tßİé"), max_size=6)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), _TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_TEXT, inner, max_size=3)
    ),
    max_leaves=4,
)


_RAW_TURN = st.fixed_dictionaries(
    {"speaker": st.sampled_from(["doctor", "patient"]), "text": _TEXT.filter(str.strip)}
)


@st.composite
def raw_encounters(draw):
    raw = {
        "id": draw(_TEXT.filter(bool)),
        "rfe": draw(_TEXT),
        "age": draw(st.integers(min_value=0)),
        "sex": draw(_TEXT.filter(str.strip)),
        "turns": draw(st.lists(_RAW_TURN, min_size=1, max_size=6)),
    }
    if draw(st.booleans()):
        raw["reference_summary"] = draw(
            st.dictionaries(st.sampled_from(SECTION_KEYS), _TEXT, max_size=6)
        )
    return json.loads(json.dumps(raw))  # as a dataset line decodes


@st.composite
def raw_run_records(draw, min_size=0):
    """A decoded JSON record object that every check accepts."""
    ledger, names = [], set()
    for _ in range(draw(st.integers(min_size, 4))):
        name = draw(_NAME.filter(lambda n: n.strip() and collapse_whitespace(n) not in names))
        names.add(collapse_whitespace(name))
        item = {"name": name, "status": draw(st.sampled_from([s.value for s in EntityStatus]))}
        if draw(st.booleans()):
            item["provenance"] = draw(st.lists(_TEXT, max_size=3))
        ledger.append(item)
    trace = [
        {
            "prompt_kind": draw(st.sampled_from([k.value for k in PromptKind])),
            "prompt_hash": draw(_TEXT),
            "params": draw(st.dictionaries(_TEXT, _JSON, max_size=3)),
        }
        for _ in range(draw(st.integers(min_size, 4)))
    ]
    raw = {
        "encounter_id": draw(_TEXT),
        "method": draw(st.sampled_from([m.value for m in Method])),
        "config": draw(st.dictionaries(_TEXT, _JSON, max_size=3)),
        "ledger": ledger,
        "summary": draw(st.dictionaries(st.sampled_from(SECTION_KEYS), _TEXT, max_size=6)),
        "llm_call_trace": trace,
    }
    if draw(st.booleans()):
        raw["warnings"] = draw(st.lists(_TEXT, max_size=3))
    # As a record line decodes: JSON text cannot tell a surrogate pair held
    # as two code units from the character it encodes, and decodes the latter.
    return json.loads(json.dumps(raw))


def build_record(raw):
    """`raw` built through the public constructors, the decoder's reference."""
    return RunRecord(
        encounter_id=raw["encounter_id"],
        method=raw["method"],
        config=raw["config"],
        ledger=EntityLedger(
            tuple(
                MedicalEntity(item["name"], item["status"], item.get("provenance", ()))
                for item in raw["ledger"]
            )
        ),
        summary=StructuredSummary(**raw["summary"]),
        llm_call_trace=tuple(
            TraceEntry(t["prompt_kind"], t["prompt_hash"], t["params"])
            for t in raw["llm_call_trace"]
        ),
        warnings=tuple(raw.get("warnings", ())),
    )


@given(raw_encounters())
def test_validate_encounter_builds_what_the_constructors_build(raw):
    reference = raw.get("reference_summary")
    expected = Encounter(
        id=raw["id"],
        rfe=raw["rfe"],
        age=raw["age"],
        sex=raw["sex"],
        turns=tuple(Turn(t["speaker"], t["text"]) for t in raw["turns"]),
        reference_summary=None if reference is None else StructuredSummary(**reference),
    )
    assert_same(validate_encounter(raw), expected)


@given(raw_run_records())
def test_record_decoder_builds_what_the_constructors_build(raw):
    record, expected = RunRecord.from_json_dict(raw), build_record(raw)
    assert_same(record, expected)
    # The record shares no dict with the data it was decoded from.
    assert record.config is not raw["config"]
    for entry, item in zip(record.llm_call_trace, raw["llm_call_trace"]):
        assert entry.params is not item["params"]
    line = record.to_json_line()
    assert line == expected.to_json_line()
    again = RunRecord.from_json_dict(json.loads(line))
    assert_same(again, record)
    assert again.to_json_line() == line


# Each `_checked_*` builder, given what the public constructor stores,
# builds what the constructor builds.
_ODD_NAME = st.text(st.sampled_from("aB \tßİé\u00a0"), max_size=8).filter(str.strip)


@given(
    _ODD_NAME,
    st.sampled_from([*EntityStatus, *(s.value for s in EntityStatus)]),
    st.lists(_TEXT, max_size=3),
    st.booleans(),
)
def test_entity_builder_builds_what_the_constructor_builds(name, status, tags, as_list):
    expected = MedicalEntity(name, status, tags if as_list else tuple(tags))
    built = _checked_entity(normalize_entity_name(name), EntityStatus(status), tuple(tags))
    assert_same(built, expected)
    assert not hasattr(built, "__dict__")


@given(st.lists(_ODD_NAME, max_size=5, unique_by=collapse_whitespace), st.data())
def test_ledger_builder_builds_what_the_constructor_builds(names, data):
    entities = [
        MedicalEntity(name, data.draw(st.sampled_from(list(EntityStatus))), ("rfe",))
        for name in names
    ]
    expected = EntityLedger(entity for entity in entities)
    built = _checked_ledger(tuple(entities))
    assert_same(built, expected)
    assert vars(built) == vars(expected)


@given(
    st.sampled_from([*PromptKind, *(k.value for k in PromptKind)]),
    _TEXT,
    st.dictionaries(_TEXT, _JSON, max_size=3),
    st.sampled_from([dict, OrderedDict, MappingProxyType]),
)
def test_trace_entry_builder_builds_what_the_constructor_builds(kind, key, params, as_mapping):
    given_params = as_mapping(params)
    expected = TraceEntry(kind, key, given_params, compact_json(params))
    built = _checked_trace_entry(PromptKind(kind), key, dict(given_params), compact_json(params))
    assert_same(built, expected)
    assert built.params_json == expected.params_json
    assert not hasattr(built, "__dict__")


def _raised(build, raw):
    try:
        build(raw)
    except Exception as exc:  # compared below, whatever it is
        return type(exc), str(exc)
    return None


# Faults that the constructors refuse too, then faults only the decoders
# refuse: record fields that must be objects, strings or lists of strings.
_SHARED_FAULTS = ["status", "kind", "blank name", "duplicate name", "provenance"]
_DECODER_FAULTS = [
    "config pairs",
    "params pairs",
    "config string",
    "encounter_id",
    "entity name",
    "prompt_hash",
    "summary",
    "warnings",
    "missing field",
]


def _inject(raw, fault, data):
    """`raw` with one fault put in, in place; `raw` has every required
    field, an entity and a trace entry."""
    item = data.draw(st.sampled_from(raw["ledger"]))
    call = data.draw(st.sampled_from(raw["llm_call_trace"]))
    if fault == "status":
        item["status"] = "maybe"
    elif fault == "kind":
        call["prompt_kind"] = "bogus"
    elif fault == "blank name":
        item["name"] = " \t "
    elif fault == "duplicate name":
        twin = {**item, "name": "  " + str(item["name"]).upper() + " "}
        raw["ledger"].insert(data.draw(st.integers(0, len(raw["ledger"]))), twin)
    elif fault == "provenance":
        item["provenance"] = 5
    elif fault == "config pairs":
        raw["config"] = [["extraction_k", 3]]
    elif fault == "params pairs":
        call["params"] = ["ab"]
    elif fault == "config string":
        raw["config"] = "ab"
    elif fault == "encounter_id":
        raw["encounter_id"] = 7
    elif fault == "entity name":
        item["name"] = 7
    elif fault == "prompt_hash":
        call["prompt_hash"] = None
    elif fault == "summary":
        raw["summary"] = []
    elif fault == "warnings":
        raw["warnings"] = "abc"
    else:
        del raw[data.draw(st.sampled_from(_REQUIRED_FIELDS))]


_REQUIRED_FIELDS = ["encounter_id", "method", "config", "ledger", "summary", "llm_call_trace"]


def _missing_field_last(fault):
    """Sort key that puts a missing field after the faults that need it."""
    return fault == "missing field"


@given(raw_run_records(min_size=1), st.sampled_from(_SHARED_FAULTS), st.data())
def test_record_decoder_refuses_what_the_constructors_refuse(raw, fault, data):
    _inject(raw, fault, data)
    refused = _raised(RunRecord.from_json_dict, raw)
    assert refused is not None
    assert refused == _raised(build_record, raw)


@pytest.mark.parametrize("fault", [None, *_SHARED_FAULTS, *_DECODER_FAULTS])
@settings(max_examples=25)
@given(
    raw_run_records(min_size=1),
    st.lists(st.sampled_from(_SHARED_FAULTS + _DECODER_FAULTS), max_size=2),
    st.data(),
)
def test_record_head_is_what_the_record_decoder_keeps(fault, raw, more, data):
    """`RecordHead.from_json_dict` refuses what `RunRecord.from_json_dict`
    refuses, with the same error, and keeps the same fields of the rest."""
    faults = [] if fault is None else dict.fromkeys([fault, *more])
    faults = sorted(faults, key=_missing_field_last)
    for injected in faults:
        _inject(raw, injected, data)
    refused = _raised(RunRecord.from_json_dict, raw)
    assert refused == _raised(RecordHead.from_json_dict, raw)
    assert (refused is None) == (not faults)
    if refused is None:
        record, head = RunRecord.from_json_dict(raw), RecordHead.from_json_dict(raw)
        assert head == (record.encounter_id, record.method, record.config, record.summary)
        assert type(head.method) is Method and type(head.config) is dict
        assert head.config is not raw["config"]


_KIND_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "a boolean", Mapping: "an object"
}


@given(st.one_of(_VALUE, st.builds(MappingProxyType, st.dictionaries(_TEXT, _SCALAR))))
@example(True)
@example(2)
def test_json_field_keeps_a_value_of_its_kind_and_refuses_the_rest(value):
    """A bool is only a boolean, an int is an integer and a number, and any
    Mapping is an object; a refusal names the field and the value."""
    for kind, name in _KIND_NAMES.items():
        if isinstance(value, bool):
            accepted = kind is bool
        else:
            accepted = isinstance(value, (int, float) if kind is float else kind)
        if accepted:
            assert json_field("f", value, kind) is value
        else:
            with pytest.raises(TypeError) as refused:
                json_field("f", value, kind)
            assert str(refused.value) == f"f is not {name}: {value!r}"
