import json
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import medsum.metrics as metrics
from medsum.backend import default_params
from medsum.metrics import (
    ConceptParseError,
    EncounterEvaluation,
    LLMConceptExtractor,
    LLMVerifier,
    RowKey,
    SectionScore,
    VerificationParseError,
    aggregate,
    evaluate_encounter,
    exact_match_verifier,
    score_from_counts,
    score_section,
    segment_concept_extractor,
)
from medsum.model import (
    SCORED_SECTIONS,
    EntityLedger,
    Method,
    PromptKind,
    RunRecord,
    StructuredSummary,
)
from medsum.promptkit import PromptTemplate, TemplateError, load_templates

from conftest import make_client


def line_extractor(text):
    return [line.strip() for line in text.splitlines() if line.strip()]


class TestExactMatchVerifier:
    def test_plain_presence(self):
        assert exact_match_verifier(["back pain"], "patient has back pain") == [True]

    def test_case_fold_substring(self):
        assert exact_match_verifier(["covid"], "COVID-19 positive") == [True]

    def test_absence(self):
        assert exact_match_verifier(["fever"], "no chills") == [False]

    def test_whitespace_collapsed(self):
        assert exact_match_verifier(["back  pain"], "some back\npain here") == [True]


class TestScoreFromCounts:
    def test_formulas(self):
        score = score_from_counts("s", tp_gt=3, f_n=1, tp_pred=2, f_p=1)
        assert score.gpt_recall == 3 / 4
        assert score.gpt_precision == 2 / 3
        harmonic = 2 * (3 / 4) * (2 / 3) / ((3 / 4) + (2 / 3))
        assert score.gpt_f1 == harmonic

    def test_zero_recall_zeroes_f1(self):
        assert score_from_counts("s", 0, 3, 2, 0).gpt_f1 == 0.0

    def test_zero_precision_zeroes_f1(self):
        assert score_from_counts("s", 2, 0, 0, 3).gpt_f1 == 0.0

    def test_vacuous_sides(self):
        score = score_from_counts("s", 0, 0, 0, 0)
        assert (score.gpt_recall, score.gpt_precision, score.gpt_f1) == (1.0, 1.0, 1.0)

    @given(
        tp_gt=st.integers(0, 20),
        f_n=st.integers(0, 20),
        tp_pred=st.integers(0, 20),
        f_p=st.integers(0, 20),
    )
    def test_scores_always_within_unit_interval(self, tp_gt, f_n, tp_pred, f_p):
        score = score_from_counts("s", tp_gt, f_n, tp_pred, f_p)
        for value in (score.gpt_recall, score.gpt_precision, score.gpt_f1):
            assert 0.0 <= value <= 1.0


class TestScoreSection:
    def test_derived_counts_example(self):
        # Ground truth has 4 concepts, 3 of which the (paraphrase-tolerant)
        # judge verifies in the prediction; prediction has 3 concepts, 2 of
        # which verify in the ground truth.
        # Hand-computed: recall 3/4, precision 2/3,
        # F1 = 2*(3/4)*(2/3) / ((3/4)+(2/3)) = 12/17.
        gt_text = "a\nb\nc\nd"
        pred_text = "a\nb\ne"

        def scripted_verifier(concepts, target):
            if list(concepts) == ["a", "b", "c", "d"]:
                return [True, True, True, False]
            assert list(concepts) == ["a", "b", "e"]
            return [True, True, False]

        score = score_section(gt_text, pred_text, scripted_verifier, line_extractor)
        assert score.tp_gt == 3 and score.f_n == 1
        assert score.tp_pred == 2 and score.f_p == 1
        assert score.gpt_recall == 0.75
        assert score.gpt_precision == 2 / 3
        assert abs(score.gpt_f1 - 12 / 17) < 1e-12

    def test_identical_texts_score_perfectly(self):
        text = "pain when urinating\nlow back pain"
        score = score_section(text, text, exact_match_verifier, line_extractor)
        assert (score.gpt_recall, score.gpt_precision, score.gpt_f1) == (1.0, 1.0, 1.0)

    def test_empty_both_sides_is_vacuously_perfect(self):
        score = score_section("", "", exact_match_verifier, line_extractor)
        assert (score.gpt_recall, score.gpt_precision, score.gpt_f1) == (1.0, 1.0, 1.0)

    def test_nonempty_gt_empty_pred(self):
        score = score_section("fever", "", exact_match_verifier, line_extractor)
        assert score.gpt_recall == 0.0
        assert score.gpt_precision == 1.0
        assert score.gpt_f1 == 0.0

    def test_empty_gt_nonempty_pred(self):
        score = score_section("", "fever", exact_match_verifier, line_extractor)
        assert score.gpt_recall == 1.0
        assert score.gpt_precision == 0.0
        assert score.gpt_f1 == 0.0

    def test_paraphrase_tolerant_verifier_contract(self):
        # Scripted judge reproducing the paraphrase scenario: both
        # ground-truth concepts count as present in the prediction even
        # though neither occurs verbatim.
        pred_text = "Patient has back pain and COVID-19"
        gt_text = "Patient has COVID and some pain in the backside"
        gt_concepts = ["COVID", "pain in the back"]
        pred_concepts = ["back pain", "COVID-19"]

        def extractor(text):
            return gt_concepts if text == gt_text else pred_concepts

        def scripted_verifier(concepts, target):
            return [True] * len(concepts)

        score = score_section(gt_text, pred_text, scripted_verifier, extractor)
        assert score.tp_gt == 2 and score.f_n == 0
        assert score.gpt_recall == 1.0


class TestLLMConceptExtractor:
    def make(self, responder):
        client, transport = make_client(responder)
        templates = load_templates()
        return LLMConceptExtractor(client, templates["metric_extraction"]), transport

    def test_one_concept_per_line(self):
        extractor, _ = self.make(lambda req: "back pain\nCOVID-19")
        assert extractor("Patient has back pain and COVID-19") == ["back pain", "COVID-19"]

    def test_empty_section_means_zero_calls(self):
        extractor, transport = self.make(lambda req: pytest.fail("should not be called"))
        assert extractor("") == []
        assert extractor("   \n ") == []
        assert transport.requests == []

    def test_duplicates_dropped_order_kept(self):
        extractor, _ = self.make(lambda req: "fever\ncough\nfever\nnausea")
        assert extractor("whatever") == ["fever", "cough", "nausea"]

    def test_bullets_stripped(self):
        extractor, _ = self.make(lambda req: "- fever\n* cough\n2. nausea")
        assert extractor("whatever") == ["fever", "cough", "nausea"]

    def test_degenerate_completion_raises(self):
        extractor, _ = self.make(lambda req: "-\n- \n")
        with pytest.raises(ConceptParseError):
            extractor("something")

    def test_runs_at_temperature_zero(self):
        extractor, transport = self.make(lambda req: "fever")
        extractor("text")
        params = transport.requests[0].params
        assert params == default_params(PromptKind.METRIC_EXTRACTION)
        assert params.temperature == 0.0


class TestLLMVerifier:
    def make(self, responder, **kwargs):
        client, transport = make_client(responder)
        templates = load_templates()
        return LLMVerifier(client, templates["metric_verification"], **kwargs), transport

    def test_batched_alignment(self):
        verifier, transport = self.make(lambda req: "yes\nno\nyes")
        assert verifier(["a", "b", "c"], "target text") == [True, False, True]
        assert len(transport.requests) == 1

    def test_no_concepts_no_calls(self):
        verifier, transport = self.make(lambda req: pytest.fail("should not be called"))
        assert verifier([], "anything") == []
        assert transport.requests == []

    def test_count_mismatch_is_hard_error(self):
        verifier, _ = self.make(lambda req: "yes")
        with pytest.raises(VerificationParseError):
            verifier(["a", "b"], "target")

    def test_unparseable_verdict_is_hard_error(self):
        verifier, _ = self.make(lambda req: "maybe\nyes")
        with pytest.raises(VerificationParseError):
            verifier(["a", "b"], "target")

    def test_numbered_verdicts_accepted(self):
        verifier, _ = self.make(lambda req: "1. yes\n2) No\n3: true")
        assert verifier(["a", "b", "c"], "t") == [True, False, True]

    def test_runs_at_temperature_zero(self):
        verifier, transport = self.make(lambda req: "yes")
        verifier(["a"], "t")
        assert transport.requests[0].params == default_params(
            PromptKind.METRIC_VERIFICATION
        )



@pytest.mark.parametrize(
    "judge, kind, ask",
    [
        (LLMConceptExtractor, PromptKind.METRIC_EXTRACTION, lambda judge: judge("fever")),
        (LLMVerifier, PromptKind.METRIC_VERIFICATION, lambda judge: judge(["fever"], "fever")),
    ],
)
def test_metric_template_declaring_age_is_template_error(judge, kind, ask):
    """Metric prompts carry no demographics, so a custom template that
    declares {age} fails with the TemplateError that rendering it gives."""
    client, transport = make_client(lambda req: pytest.fail("should not be called"))
    template = PromptTemplate(kind, "Patient age: {age}\nText:\n{input}\nAnswer:")
    with pytest.raises(TemplateError, match=re.escape("template declares {age} but no age given")):
        ask(judge(client, template))
    assert transport.requests == []


class TestEvaluateEncounter:
    def summary(self, **kwargs):
        base = {key: f"content {key}" for key in SCORED_SECTIONS}
        base.update(kwargs)
        return StructuredSummary(
            demographics_sdoh="45 year old",
            medical_intent="checkup",
            **base,
        )

    def test_identical_summaries_all_ones(self):
        summary = self.summary()
        scores = evaluate_encounter(
            summary, summary, exact_match_verifier, line_extractor
        )
        assert [s.section for s in scores] == list(SCORED_SECTIONS)
        assert all(s.gpt_f1 == 1.0 for s in scores)

    def test_empty_predicted_unknowns_zero_recall(self):
        pred = self.summary(pertinent_unknowns="")
        gt = self.summary()
        scores = evaluate_encounter(pred, gt, exact_match_verifier, line_extractor)
        unknowns = scores[SCORED_SECTIONS.index("pertinent_unknowns")]
        assert unknowns.gpt_recall == 0.0

    def test_demographics_and_intent_never_scored(self):
        calls = []

        def recording_extractor(text):
            calls.append(text)
            return line_extractor(text)

        pred = self.summary()
        gt = self.summary()
        evaluate_encounter(pred, gt, exact_match_verifier, recording_extractor)
        assert all("45 year old" not in text for text in calls)
        assert all("checkup" not in text for text in calls)


def evaluation(encounter_id, key, f1s):
    scores = tuple(
        SectionScore(section, 1, 0, 1, 0, f1, f1, f1)
        for section, f1 in zip(SCORED_SECTIONS, f1s)
    )
    return EncounterEvaluation(encounter_id, key, scores)


MEDSUM_KEY = RowKey("medsum_ent", 3, 1, "random", True)
NAIVE_KEY = RowKey("naive_baseline", None, 0, None, None)


class TestAggregate:
    def test_single_encounter_average(self):
        rows = aggregate([evaluation("e1", MEDSUM_KEY, (0.8, 0.6, 0.4, 0.2))])
        assert len(rows) == 1
        assert rows[0].average == pytest.approx(0.5)

    def test_macro_means_sections_before_average(self):
        rows = aggregate(
            [
                evaluation("e1", MEDSUM_KEY, (1.0, 1.0, 0.0, 0.0)),
                evaluation("e2", MEDSUM_KEY, (0.0, 1.0, 1.0, 0.0)),
            ]
        )
        row = rows[0]
        assert row.section_scores["pertinent_positives"] == pytest.approx(0.5)
        assert row.section_scores["pertinent_negatives"] == pytest.approx(1.0)
        assert row.average == pytest.approx((0.5 + 1.0 + 0.5 + 0.0) / 4)

    def test_one_row_per_configuration(self):
        rows = aggregate(
            [
                evaluation("e1", MEDSUM_KEY, (1.0, 1.0, 1.0, 1.0)),
                evaluation("e1", NAIVE_KEY, (0.5, 0.5, 0.5, 0.5)),
            ]
        )
        assert len(rows) == 2
        assert {row.key.method for row in rows} == {"medsum_ent", "naive_baseline"}

    def test_empty_corpus_is_error(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_micro_pools_counts(self):
        a = EncounterEvaluation(
            "e1",
            MEDSUM_KEY,
            tuple(SectionScore(s, 1, 1, 1, 1, 0.5, 0.5, 0.5) for s in SCORED_SECTIONS),
        )
        b = EncounterEvaluation(
            "e2",
            MEDSUM_KEY,
            tuple(SectionScore(s, 3, 0, 3, 0, 1.0, 1.0, 1.0) for s in SCORED_SECTIONS),
        )
        rows = aggregate([a, b], micro=True)
        # Pooled: tp_gt 4, f_n 1, tp_pred 4, f_p 1 -> r = p = 0.8, f1 = 0.8.
        assert rows[0].section_scores["medical_history"] == pytest.approx(0.8)


class TestRowKey:
    def test_naive_zero_shot_blanks_irrelevant_fields(self):
        record = RunRecord(
            encounter_id="e",
            method=Method.NAIVE_BASELINE,
            config={"summarization_k": 0, "selection_mode": "random"},
            ledger=EntityLedger(),
            summary=StructuredSummary(),
            llm_call_trace=(),
        )
        key = RowKey.from_record(record)
        assert key.extraction_k is None
        assert key.selection is None
        assert key.resolver is None

    def test_naive_one_shot_keeps_selection(self):
        record = RunRecord(
            encounter_id="e",
            method=Method.NAIVE_BASELINE,
            config={"summarization_k": 1, "selection_mode": "semantic"},
            ledger=EntityLedger(),
            summary=StructuredSummary(),
            llm_call_trace=(),
        )
        assert RowKey.from_record(record).selection == "semantic"

    def test_medsum_key_carries_everything(self):
        record = RunRecord(
            encounter_id="e",
            method=Method.MEDSUM_ENT,
            config={
                "extraction_k": 3,
                "summarization_k": 1,
                "selection_mode": "random",
                "resolver_enabled": True,
            },
            ledger=EntityLedger(),
            summary=StructuredSummary(),
            llm_call_trace=(),
        )
        key = RowKey.from_record(record)
        assert key == RowKey("medsum_ent", 3, 1, "random", True)


# The regex parsers that `_parse_concepts` and `_parse_verdicts` replaced,
# kept as the reference they must agree with.
_REFERENCE_BULLET_RE = re.compile(r"^(?:[-*•]|\d+[.):])\s*")


def reference_parse_concepts(completion):
    concepts, seen = [], set()
    for line in completion.splitlines():
        concept = _REFERENCE_BULLET_RE.sub("", line.strip()).strip()
        if concept and concept not in seen:
            seen.add(concept)
            concepts.append(concept)
    if completion.strip() and not concepts:
        raise ConceptParseError(completion)
    return concepts


def reference_parse_verdicts(completion, expected):
    verdicts = []
    for line in completion.splitlines():
        token = _REFERENCE_BULLET_RE.sub("", line.strip()).strip()
        if not token:
            continue
        word = token.split()[0].rstrip(".,").lower()
        if word in ("yes", "true"):
            verdicts.append(True)
        elif word in ("no", "false"):
            verdicts.append(False)
        else:
            raise VerificationParseError(f"unparseable verdict line: {line.strip()!r}")
    if len(verdicts) != expected:
        raise VerificationParseError(f"expected {expected} verdicts, got {len(verdicts)}")
    return verdicts


def outcome(parse, *args):
    """What `parse(*args)` returns, or the type and text of what it raises."""
    try:
        return parse(*args)
    except (ConceptParseError, VerificationParseError) as exc:
        return type(exc), str(exc)


# Whitespace that str.strip strips: ASCII, Latin-1, Unicode spaces, and the
# separators that str.splitlines also splits on.
_SPACE = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x1f\x85\xa0  　"), max_size=2)
# Bullets, numbers (ASCII and other decimal digits, which \d matches too),
# and look-alikes the bullet pattern does not take.
_MARK = st.sampled_from(
    ["", "", "-", "*", "•", "1.", "12)", "3:", "٣.", "１)", "٣", "1", "1-", "².", "Ⅻ.", "--", "-*"]
)
_WORD = st.one_of(
    st.sampled_from(
        ["yes", "no", "Yes.", "TRUE,", "false", "No,", "yes.,", "nope", "y", "", "fever", "-"]
    ),
    st.text(max_size=6),
)
_LINE = st.builds(
    lambda *parts: "".join(parts), _SPACE, _MARK, _SPACE, _WORD, _SPACE, _WORD, _SPACE
)
_BREAK = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1e", " "])
_COMPLETION = st.builds(
    lambda lines, breaks: "".join(l + b for l, b in zip(lines, breaks)) + lines[-1],
    st.lists(_LINE, min_size=1, max_size=6),
    st.lists(_BREAK, min_size=6, max_size=6),
)


@given(_COMPLETION)
def test_concept_parser_matches_the_regex_reference(completion):
    assert outcome(metrics._parse_concepts, completion) == outcome(
        reference_parse_concepts, completion
    )


# Mostly lines that parse as verdicts.
_VERDICT_LINE = st.builds(
    lambda *parts: "".join(parts),
    _SPACE,
    st.sampled_from(["", "", "-", "*", "•", "1.", "12)", "3:", "٣.", "１)"]),
    _SPACE,
    st.sampled_from(["yes", "no", "Yes.", "TRUE,", "False", "NO.", "true", "yes,.", ""]),
    st.sampled_from(["", "", " it is", "\tstated.", "."]),
    _SPACE,
)
_VERDICT_COMPLETION = st.builds(
    lambda lines, breaks: "".join(l + b for l, b in zip(lines, breaks)) + lines[-1],
    st.lists(_VERDICT_LINE, min_size=1, max_size=6),
    st.lists(st.sampled_from(["\n", "\r\n", "\x1e"]), min_size=6, max_size=6),
)


@given(st.one_of(_VERDICT_COMPLETION, _COMPLETION), st.one_of(st.just(-1), st.integers(0, 7)))
def test_verdict_parser_matches_the_regex_reference(completion, expected):
    if expected < 0:  # as many as the non-blank lines, so that verdicts parse
        expected = sum(
            1 for line in completion.splitlines() if _REFERENCE_BULLET_RE.sub("", line.strip()).strip()
        )
    assert outcome(metrics._parse_verdicts, completion, expected) == outcome(
        reference_parse_verdicts, completion, expected
    )


@pytest.fixture
def bullet_strips(monkeypatch):
    """The lines `_parse_verdicts` hands to `_strip_bullet`: its general loop."""
    calls = []
    strip = metrics._strip_bullet
    monkeypatch.setattr(metrics, "_strip_bullet", lambda line: calls.append(line) or strip(line))
    return calls


def test_too_few_bare_verdicts_is_still_a_count_error(bullet_strips):
    with pytest.raises(VerificationParseError, match=r"^expected 3 verdicts, got 2$"):
        metrics._parse_verdicts("yes\nno", 3)
    assert bullet_strips == ["yes", "no"]


@pytest.mark.parametrize("completion, expected", [("yes\n\nno", [True, False]), ("Yes", [True])])
def test_verdicts_that_are_not_all_bare_words_take_the_general_loop(
    bullet_strips, completion, expected
):
    assert metrics._parse_verdicts(completion, len(expected)) == expected
    assert bullet_strips == completion.splitlines()


def test_a_thousand_bare_verdict_lines_parse_in_one_pass(bullet_strips):
    words = ["yes", "no", "true", "false", "no"] * 200
    verdicts = metrics._parse_verdicts("\n".join(words), len(words))
    assert verdicts == [word in ("yes", "true") for word in words]
    assert bullet_strips == []


def test_bullet_regex_classes_are_the_str_predicates():
    """The parsers test `str.isdecimal` where the bullet pattern has `\\d`,
    and `strip` strips what it has as `\\s`; both agree on every code point."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\d", every) == list(filter(str.isdecimal, every))
    assert re.findall(r"\s", every) == list(filter(str.isspace, every))


_JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=4,
)
# Keys `RowKey.from_config` reads, with every selection mode it accepts.
_RUN_CONFIG = st.fixed_dictionaries(
    {},
    optional={
        "extraction_k": st.integers(-2, 9),
        "summarization_k": st.integers(-1, 3),
        "selection_mode": st.one_of(st.none(), st.text()),
        "resolver_enabled": st.booleans(),
    },
)


@given(st.sampled_from(Method), _RUN_CONFIG, _JSON_VALUE)
def test_row_key_refuses_a_kept_selection_that_is_not_a_string(method, config, selection):
    config = {**config, "selection_mode": selection}
    try:
        key = RowKey.from_config(method, config)
    except TypeError as exc:
        assert str(exc) == f"selection_mode is not a string: {selection!r}"
        kept = method is Method.MEDSUM_ENT or config.get("summarization_k", 0) > 0
        assert kept and not isinstance(selection, (str, type(None)))
    else:
        assert key.selection is None or isinstance(key.selection, str)
        hash(key)
_COUNT = st.integers(0, 10**6)
_SECTION_SCORE = st.one_of(
    st.builds(score_from_counts, st.text(), _COUNT, _COUNT, _COUNT, _COUNT),
    st.builds(
        SectionScore,
        st.text(),
        *[_COUNT] * 4,
        *[st.floats(allow_nan=False, allow_infinity=False)] * 3,
    ),
)


@given(
    st.text(),
    st.sampled_from(Method),
    _RUN_CONFIG,
    st.lists(_SECTION_SCORE, max_size=4),
)
def test_report_line_is_the_json_dumps_reference(encounter_id, method, config, scores):
    record = RunRecord(encounter_id, method, config, EntityLedger(), StructuredSummary(), ())
    evaluation = EncounterEvaluation(encounter_id, RowKey.from_record(record), tuple(scores))
    reference = json.dumps(evaluation.to_dict(), sort_keys=True, separators=(",", ":"))
    assert evaluation.to_json_line() == reference + "\n"


def test_report_line_of_unset_row_fields():
    evaluation = EncounterEvaluation(
        "eé", NAIVE_KEY, (score_from_counts("pertinent_positives", 1, 2, 0, 0),)
    )
    assert evaluation.to_json_line() == (
        '{"encounter_id":"e\\u00e9","extraction_k":null,"method":"naive_baseline",'
        '"resolver":null,"scores":[{"f_n":2,"f_p":0,"gpt_f1":0.5,"gpt_precision":1.0,'
        '"gpt_recall":0.3333333333333333,"section":"pertinent_positives","tp_gt":1,'
        '"tp_pred":0}],"selection":null,"summarization_k":0}\n'
    )
