import dataclasses
import gc
import math
import re
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from medsum.backend import (
    CompletionClient,
    CompletionRequest,
    RecordingTransport,
    ReplayStore,
    ScriptedTransport,
    cache_key,
    default_params,
)
from medsum.cli import CliError, _leave_room
from medsum.model import (
    SECTION_KEYS,
    EntityStatus,
    ExampleKind,
    LabeledExample,
    MedicalEntity,
    PromptKind,
    StructuredSummary,
)
from medsum.promptkit import (
    _ENTITY_LINE_RE,
    CANONICAL_HEADERS,
    TEMPLATE_IDS,
    BoundPrompt,
    BudgetExceededError,
    EntityListParseError,
    KindMismatchError,
    PromptTemplate,
    SummaryParseError,
    TemplateError,
    TokenBudget,
    bind,
    estimate_tokens,
    load_templates,
    parse_entity_list,
    parse_summary,
    render,
    request_builder,
    serialize_entity_list,
    serialize_ledger,
    serialize_summary,
)

from conftest import make_pool


class TestEstimateTokens:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_hundred_words_factor_13(self):
        text = " ".join(["word"] * 100)
        assert estimate_tokens(text, 1.3) == 130

    def test_identity_factor(self):
        text = "one two  three\nfour"
        assert estimate_tokens(text, 1.0) == len(text.split()) == 4

    @given(st.text(), st.floats(min_value=1.0, max_value=3.0, allow_nan=False))
    def test_never_below_whitespace_count(self, text, factor):
        assert estimate_tokens(text, factor) >= len(text.split())


class TestRender:
    def test_zero_shot_is_preamble_plus_input(self, templates):
        template = templates["summarization"]
        prompt = render(template, input_text="DIALOGUE", age=30, sex="male")
        assert "DIALOGUE" in prompt
        assert template.example_separator not in prompt
        assert "Example:" not in prompt

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_k_examples_mean_k_separators(self, templates, k):
        template = templates["rfe_extraction"]
        pool = make_pool(ExampleKind.RFE_EXTRACTION, size=5)
        prompt = render(
            template,
            input_text="live input",
            age=30,
            sex="male",
            examples=pool.examples[:k],
        )
        assert prompt.count(template.example_separator) == k
        assert prompt.count("Example:") == k

    def test_examples_keep_given_order_and_input_is_last(self, templates):
        template = templates["rfe_extraction"]
        pool = make_pool(ExampleKind.RFE_EXTRACTION, size=3)
        prompt = render(
            template,
            input_text="THE LIVE INPUT",
            age=30,
            sex="male",
            examples=list(pool.examples),
        )
        positions = [prompt.index(e.input_text) for e in pool.examples]
        assert positions == sorted(positions)
        assert prompt.index("THE LIVE INPUT") > positions[-1]

    def test_kind_mismatch(self, templates):
        example = make_pool(ExampleKind.SUMMARIZATION, size=1).examples[0]
        with pytest.raises(KindMismatchError):
            render(
                templates["rfe_extraction"],
                input_text="x",
                age=1,
                sex="f",
                examples=[example],
            )

    def test_examples_refused_by_exampleless_prompts(self, templates):
        example = make_pool(ExampleKind.SUMMARIZATION, size=1).examples[0]
        with pytest.raises(KindMismatchError):
            render(
                templates["unknown_resolver"],
                input_text="x",
                age=1,
                sex="f",
                examples=[example],
            )

    def test_budget_exceeded_names_overflow(self, templates):
        template = templates["metric_extraction"]
        reserve = default_params(template.kind).max_tokens
        budget = TokenBudget(max_context_tokens=reserve + 10, inflation_factor=1.0)
        with pytest.raises(BudgetExceededError) as excinfo:
            render(template, input_text=" ".join(["tok"] * 50), budget=budget)
        assert excinfo.value.estimated > excinfo.value.budget == 10
        assert str(excinfo.value.estimated - 10) in str(excinfo.value)

    def test_two_shot_summarization_overflows_default_budget(self, templates):
        # A typical encounter runs ~2342 whitespace tokens; two in-context
        # examples of the same size cannot fit the default context window,
        # which is why summarization is capped at 1-shot.
        dialogue = " ".join(f"w{i}" for i in range(2342))
        examples = [
            LabeledExample(
                kind=ExampleKind.SUMMARIZATION,
                input_text=dialogue,
                age=40 + i,
                sex="female",
                label="Medical History:\nnone",
            )
            for i in range(2)
        ]
        with pytest.raises(BudgetExceededError):
            render(
                templates["summarization"],
                input_text=dialogue,
                age=46,
                sex="female",
                examples=examples,
                budget=TokenBudget(),
            )

    def test_deterministic(self, templates):
        kwargs = dict(input_text="same", age=40, sex="female")
        a = render(templates["summarization"], **kwargs)
        b = render(templates["summarization"], **kwargs)
        assert a == b

    def test_missing_age_for_template_that_wants_it(self, templates):
        with pytest.raises(TemplateError):
            render(templates["summarization"], input_text="x")

    def test_slot_like_text_in_input_not_expanded(self):
        template = PromptTemplate(
            kind=PromptKind.METRIC_EXTRACTION, preamble="Text: {input}\nGo:"
        )
        prompt = render(template, input_text="literal {examples} stays")
        assert "literal {examples} stays" in prompt

    def test_duplicate_slot_rejected(self):
        with pytest.raises(TemplateError):
            PromptTemplate(kind=PromptKind.SUMMARIZATION, preamble="{input} {input}")

    def test_examples_must_precede_input(self):
        with pytest.raises(TemplateError):
            PromptTemplate(
                kind=PromptKind.SUMMARIZATION, preamble="{input} then {examples}"
            )

    def test_input_slot_required(self):
        with pytest.raises(TemplateError):
            PromptTemplate(kind=PromptKind.SUMMARIZATION, preamble="no slots at all")

    def test_examples_without_slot_is_error(self):
        template = PromptTemplate(
            kind=PromptKind.SUMMARIZATION, preamble="Summarize: {input}"
        )
        example = make_pool(ExampleKind.SUMMARIZATION, size=1).examples[0]
        with pytest.raises(TemplateError, match="examples"):
            render(template, input_text="x", examples=[example])


_REFERENCE_SLOT_RE = re.compile(r"\{(age|sex|input|examples)\}")
_REFERENCE_EXAMPLE_KIND = {
    PromptKind.RFE_EXTRACTION: ExampleKind.RFE_EXTRACTION,
    PromptKind.DIALOGUE_EXTRACTION: ExampleKind.DIALOGUE_EXTRACTION,
    PromptKind.SUMMARIZATION: ExampleKind.SUMMARIZATION,
}


def reference_render(template, *, input_text, age=None, sex=None, examples=(), budget=None):
    """Single-pass renderer: every slot, {input} included, filled by one
    regex substitution over the whole preamble, then the whole prompt's
    words counted against the budget less the kind's `max_tokens`."""
    expected = _REFERENCE_EXAMPLE_KIND.get(template.kind)
    if examples and expected is None:
        raise KindMismatchError(f"{template.kind.value} prompts take no in-context examples")
    if examples and "{examples}" not in template.preamble:
        raise TemplateError("template has no {examples} slot but examples were given")
    for example in examples:
        if example.kind is not expected:
            raise KindMismatchError(
                f"example of kind {example.kind.value} offered to {template.kind.value} prompt"
            )
    values = {
        "input": input_text,
        "examples": "".join(
            "Example:\n"
            f"Age: {e.age}\nSex: {e.sex}\nInput:\n{e.input_text}\nOutput:\n{e.label}"
            + template.example_separator
            for e in examples
        ),
    }
    if "{age}" in template.preamble:
        if age is None:
            raise TemplateError("template declares {age} but no age given")
        values["age"] = str(age)
    if "{sex}" in template.preamble:
        if sex is None:
            raise TemplateError("template declares {sex} but no sex given")
        values["sex"] = sex
    prompt = _REFERENCE_SLOT_RE.sub(lambda m: values.get(m.group(1), ""), template.preamble)
    budget = budget or TokenBudget()
    estimated = math.ceil(len(prompt.split()) * budget.inflation_factor)
    reserve = default_params(template.kind).max_tokens
    if estimated + reserve > budget.max_context_tokens:
        raise BudgetExceededError(estimated, budget.max_context_tokens - reserve)
    return prompt


def checked_join(bound, input_text):
    """The prompt of `input_text`, filled as `render` fills it: checked, then joined."""
    bound.check(input_text)
    return bound.join(input_text)


def _outcome(fn):
    """A call's prompt, or its error's type, message and token estimate."""
    try:
        return fn()
    except (BudgetExceededError, KindMismatchError, TemplateError) as exc:
        return type(exc), str(exc), getattr(exc, "estimated", None)


# Text that stresses the word count at the joins around {input}: words that
# run on into the template text, unicode whitespace str.split() honours,
# and slot-like text that must stay literal.
_JOIN_PIECES = [
    "a", "word", "x.", " ", "\n", "\t", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f",
    "\x85", "\xa0", "\u1680", "\u2003", "\u2028", "\u2029", "\u202f", "\u3000",
    "\u200b", "{", "}", "{input}", "{examples}", "{age}", "{sex}", "{ag", "e}", "é",
]
join_text = st.lists(
    st.sampled_from(_JOIN_PIECES) | st.characters(max_codepoint=0x3000), max_size=12
).map("".join)
# A slot's name without its braces is literal text, never a slot.
_TEMPLATE_TEXT = st.sampled_from(["age", "sex", "examples", "input"]) | st.lists(
    st.sampled_from([p for p in _JOIN_PIECES if p not in ("{input}", "{examples}", "{age}", "{sex}")]),
    max_size=6,
).map("".join)
# Text whose word count its length bounds exactly (one-character words one
# space apart), and text whose length overstates it most (whitespace alone).
_ONE_CHARACTER_WORDS = st.integers(min_value=1, max_value=40).map(lambda n: " ".join("a" * n))
_BOUND_EDGE_TEXT = _ONE_CHARACTER_WORDS | st.text(
    alphabet=" \n\t\x0b\x85\u3000", min_size=1, max_size=30
)


@st.composite
def templates_to_bind(draw):
    """A shipped template, or one built around {input} from join text or
    from one-character words."""
    shipped = sorted(load_templates().items())
    if draw(st.booleans()):
        return draw(st.sampled_from(shipped))[1]
    kind = draw(st.sampled_from(list(PromptKind)))
    if draw(st.booleans()):  # a prompt whose words its length bounds exactly
        head, tail = draw(_ONE_CHARACTER_WORDS), draw(_ONE_CHARACTER_WORDS)
        return PromptTemplate(kind=kind, preamble=f"{head} {{input}} {tail}")
    parts = [draw(_TEMPLATE_TEXT)]
    for slot in ("{age}", "{sex}"):
        if draw(st.booleans()):
            parts += [slot, draw(_TEMPLATE_TEXT)]
    if kind in _REFERENCE_EXAMPLE_KIND and draw(st.booleans()):
        parts += ["{examples}", draw(_TEMPLATE_TEXT)]
    parts += ["{input}", draw(_TEMPLATE_TEXT)]
    if draw(st.booleans()):
        parts += ["{sex}" if "{sex}" not in parts else "{age}", draw(_TEMPLATE_TEXT)]
    try:
        return PromptTemplate(kind=kind, preamble="".join(parts))
    except TemplateError:
        assume(False)


def _length_bound(*texts):
    """Whitespace words that texts of these lengths can hold at most."""
    return sum((len(text) + 1) // 2 for text in texts)


class _SplitError(Exception):
    pass


class _Unsplittable(str):
    """A text whose words must not be counted."""

    def split(self, *args, **kwargs):
        raise _SplitError(str(self))


@pytest.fixture
def estimate_calls(monkeypatch):
    """The texts that `promptkit` passes to `estimate_tokens`, in order."""
    calls = []

    def spy(text, inflation_factor=1.3):
        calls.append(text)
        return estimate_tokens(text, inflation_factor)

    monkeypatch.setattr("medsum.promptkit.estimate_tokens", spy)
    return calls


class TestBind:
    @settings(max_examples=300, deadline=None)
    @given(
        template=templates_to_bind(),
        inputs=st.lists(join_text | _BOUND_EDGE_TEXT, min_size=1, max_size=4),
        age=st.integers(min_value=0, max_value=120),
        sex=join_text,
        shots=st.sampled_from([0, 0, 1, 2, 3]),
        example_text=join_text,
        factor=st.floats(min_value=1.0, max_value=2.5, allow_nan=False),
        data=st.data(),
    )
    def test_checked_join_matches_single_pass_render(
        self, template, inputs, age, sex, shots, example_text, factor, data
    ):
        # The template's kind fixes the tokens left for the completion: 200 or 512.
        reserve = default_params(template.kind).max_tokens
        kind = _REFERENCE_EXAMPLE_KIND.get(template.kind, ExampleKind.SUMMARIZATION)
        examples = [
            LabeledExample(kind, example_text + str(i), 30 + i, sex, example_text)
            for i in range(shots)
        ]
        sizes = st.integers(min_value=1, max_value=reserve + 1500)
        unbudgeted = _outcome(lambda: bind(template, age=age, sex=sex, examples=examples))
        if not isinstance(unbudgeted, tuple):
            # Around the context size where an input's length bound stops proving the fit.
            edge_input = data.draw(st.sampled_from(inputs), label="edge_input")
            bound = _length_bound(unbudgeted.head, unbudgeted.tail, edge_input)
            edge = math.ceil(bound * factor) + reserve
            sizes |= st.integers(min_value=max(1, edge - 1), max_value=edge + 1)
        max_tokens = data.draw(sizes, label="max_tokens")
        budget = TokenBudget(max_context_tokens=max_tokens, inflation_factor=factor)
        kwargs = dict(age=age, sex=sex, examples=examples, budget=budget)
        bound = _outcome(lambda: bind(template, **kwargs))
        # One bound prompt serves every input, as the turn windows share one.
        for input_text in inputs:
            expected = _outcome(
                lambda: reference_render(template, input_text=input_text, **kwargs)
            )
            if isinstance(bound, tuple):
                assert bound == expected
                continue
            assert _outcome(lambda: checked_join(bound, input_text)) == expected
            assert _outcome(lambda: render(template, input_text=input_text, **kwargs)) == expected

    def test_word_running_into_the_template_counts_once(self):
        template = PromptTemplate(kind=PromptKind.METRIC_EXTRACTION, preamble="Text:{input}:end")
        reserve = default_params(template.kind).max_tokens
        exact = TokenBudget(max_context_tokens=reserve + 1, inflation_factor=1.0)
        assert checked_join(bind(template, budget=exact), "one") == "Text:one:end"
        assert checked_join(bind(template, budget=exact), "") == "Text::end"
        with pytest.raises(BudgetExceededError) as excinfo:
            checked_join(bind(template, budget=exact), "one two")
        assert excinfo.value.estimated == 2

    def test_an_input_the_lengths_prove_fits_is_never_split(self, templates, estimate_calls):
        template = templates["metric_extraction"]
        params = default_params(template.kind)
        unbudgeted = bind(template)
        text = "fever, chills " * 5
        words = _length_bound(unbudgeted.head, unbudgeted.tail, text)
        budget = TokenBudget(words + params.max_tokens, inflation_factor=1.0)
        bound = bind(template, budget=budget)
        expected = render(template, input_text=text, budget=budget)
        assert checked_join(bound, _Unsplittable(text)) == expected
        call = request_builder(bound)(_Unsplittable(text))
        assert call.key == cache_key(CompletionRequest(expected, params, template.kind))
        assert estimate_calls == []

        longer = text + "x"  # one code point past the bound
        assert _length_bound(longer) == _length_bound(text) + 1
        no_room = TokenBudget(params.max_tokens, inflation_factor=1.0)
        for tried in (budget, no_room):  # fits, then overflows
            reference = _outcome(lambda: reference_render(template, input_text=longer, budget=tried))
            tried_bound = bind(template, budget=tried)
            estimate_calls.clear()
            assert _outcome(lambda: checked_join(tried_bound, _Unsplittable(longer))) == reference
            assert estimate_calls == [tried_bound.join(longer)]
        estimate_calls.clear()
        call = request_builder(bound)(_Unsplittable(longer))
        assert estimate_calls == [bound.join(longer)]
        assert call.key == cache_key(CompletionRequest(bound.join(longer), params, template.kind))

    def test_the_text_around_the_input_is_split_only_past_the_bound(self, estimate_calls):
        head, tail = _Unsplittable("Text:\n"), _Unsplittable("\nConcepts:")
        kind = PromptKind.METRIC_EXTRACTION
        reserve = default_params(kind).max_tokens

        def budget(limit):
            return TokenBudget(max_context_tokens=reserve + limit, inflation_factor=1.0)

        bound = BoundPrompt(head, tail, budget(25), kind)
        assert checked_join(bound, "fever and chills") == "Text:\nfever and chills\nConcepts:"
        assert estimate_calls == []
        template = PromptTemplate(kind=kind, preamble="Text:\n{input}\nConcepts:")
        longer = "fever and chills " * 3
        for limit in (25, 10):  # fits, then overflows
            reference = _outcome(lambda: reference_render(
                template, input_text=longer, budget=budget(limit)
            ))
            bound = BoundPrompt(head, tail, budget(limit), kind)
            estimate_calls.clear()
            assert _outcome(lambda: checked_join(bound, longer)) == reference
            assert len(estimate_calls) == 1

    def test_missing_demographics_fail_at_bind(self, templates):
        with pytest.raises(TemplateError, match="age"):
            bind(templates["dialogue_extraction"], sex="female")


class TestBudgetFloor:
    @settings(max_examples=150, deadline=None)
    @given(
        template=templates_to_bind(),
        pool_texts=st.lists(st.tuples(join_text, join_text, join_text), max_size=5),
        age=st.integers(min_value=0, max_value=120),
        sex=join_text,
        input_text=join_text | _BOUND_EDGE_TEXT,
        factor=st.floats(min_value=1.0, max_value=2.5, allow_nan=False),
        data=st.data(),
    )
    def test_a_budget_some_prompt_fits_is_never_refused(
        self, template, pool_texts, age, sex, input_text, factor, data
    ):
        """`cli._leave_room`'s floor is a lower bound: a budget that one real
        prompt of the template fits beside its completion passes it."""
        kind = _REFERENCE_EXAMPLE_KIND.get(template.kind)
        pool = [LabeledExample(kind, text, 30 + i, example_sex, label)
                for i, (text, example_sex, label) in enumerate(pool_texts if kind else [])]
        if "{examples}" not in template.preamble:
            pool = []
        k = data.draw(st.integers(min_value=0, max_value=len(pool)), label="k")
        examples = data.draw(st.permutations(pool), label="order")[:k]
        prompt = bind(template, age=age, sex=sex, examples=examples).join(input_text)
        reserve = default_params(template.kind).max_tokens
        need = estimate_tokens(prompt, factor) + reserve
        assume(need > reserve)  # a budget not above the reserve is refused outright
        _leave_room(TokenBudget(need, factor), [template.kind], [(template, pool, k)])
        with pytest.raises(CliError, match="must be"):
            _leave_room(TokenBudget(reserve, factor), [template.kind], [(template, pool, k)])


class TestRequestBuilder:
    @pytest.mark.parametrize("template_id", TEMPLATE_IDS)
    @settings(max_examples=50, deadline=None)
    @given(
        inputs=st.lists(join_text, min_size=1, max_size=3),
        age=st.integers(min_value=0, max_value=120),
        sex=join_text,
        shots=st.integers(min_value=0, max_value=3),
        example_text=join_text,
        context=st.integers(min_value=1, max_value=1500),
    )
    def test_call_matches_render_and_cache_key(
        self, templates, template_id, inputs, age, sex, shots, example_text, context
    ):
        template = templates[template_id]
        kind = _REFERENCE_EXAMPLE_KIND.get(template.kind)
        examples = [
            LabeledExample(kind, example_text + str(i), 30 + i, sex, example_text)
            for i in range(shots if kind is not None else 0)
        ]
        params = default_params(template.kind)
        kwargs = dict(age=age, sex=sex, examples=examples, budget=TokenBudget(context))
        # One builder serves every input, as the turn windows share one.
        build = request_builder(bind(template, **kwargs))
        for input_text in inputs:
            prompt = _outcome(lambda: render(template, input_text=input_text, **kwargs))
            call = _outcome(lambda: build(input_text))
            if isinstance(prompt, tuple):  # the budget, less the completion's tokens, overflows
                assert call == prompt
                continue
            expected = CompletionRequest(prompt, params, template.kind)
            assert call.prompt_kind is template.kind
            assert (call.key, call.params) == (cache_key(expected), params)
            assert call.build() == expected

    def _sent_and_recorded(self, tmp_path):
        sent = []
        store = ReplayStore(tmp_path / "store.jsonl", create=True)
        inner = ScriptedTransport(lambda req: sent.append(req) or "- fever")
        return CompletionClient(RecordingTransport(inner, store)), store, sent

    @pytest.mark.parametrize("through", ["complete", "gather"])
    def test_a_miss_sends_the_rendered_request_and_records_it_under_its_key(
        self, templates, tmp_path, through
    ):
        template, input_text = templates["metric_extraction"], "Patient reports fever."
        build = request_builder(bind(template))
        client, store, sent = self._sent_and_recorded(tmp_path)
        call = build(input_text)
        text = client.complete(call) if through == "complete" else next(client.gather([call]))
        expected = CompletionRequest(
            render(template, input_text=input_text), default_params(template.kind), template.kind
        )
        assert text == "- fever"
        assert sent == [expected] and sent[0].prompt == expected.prompt
        assert store.get(cache_key(expected)) == text
        client.close()

    def test_a_hit_never_joins_its_prompt(self, templates, tmp_path):
        class Unjoinable(BoundPrompt):
            __slots__ = ()

            def join(self, input_text):
                pytest.fail(f"the prompt of {input_text!r} was joined")

        template, input_text = templates["metric_extraction"], "Patient reports fever."
        client, _, sent = self._sent_and_recorded(tmp_path)
        assert client.complete(request_builder(bind(template))(input_text)) == "- fever"
        bound = bind(template)
        build = request_builder(Unjoinable(bound.head, bound.tail, bound.budget, bound.kind))
        assert client.complete(build(input_text)) == "- fever"
        assert list(client.gather([build(input_text)] * 2)) == ["- fever"] * 2
        assert len(sent) == 1
        client.close()

    def test_budget_is_checked_when_the_call_is_made_even_if_its_key_is_stored(
        self, templates, tmp_path
    ):
        template, input_text = templates["metric_extraction"], " ".join(["tok"] * 50)
        client, _, _ = self._sent_and_recorded(tmp_path)
        client.complete(request_builder(bind(template))(input_text))
        tight = bind(template, budget=TokenBudget(max_context_tokens=10, inflation_factor=1.0))
        with pytest.raises(BudgetExceededError):
            request_builder(tight)(input_text)
        client.close()

    def test_the_budget_leaves_room_for_the_completion(self, templates):
        template, input_text = templates["metric_extraction"], "Patient reports fever."
        words = len(render(template, input_text=input_text).split())
        reserve = default_params(template.kind).max_tokens

        def call(context):
            budget = TokenBudget(max_context_tokens=context, inflation_factor=1.0)
            return request_builder(bind(template, budget=budget))(input_text)

        assert call(words + reserve).build().prompt == render(template, input_text=input_text)
        with pytest.raises(BudgetExceededError) as excinfo:
            call(words + reserve - 1)
        assert (excinfo.value.estimated, excinfo.value.budget) == (words, words - 1)

    def test_a_built_request_lets_its_bound_prompt_go(self, templates):
        class Tracked(BoundPrompt):
            __slots__ = ("__weakref__",)

        template = templates["metric_extraction"]
        bound = bind(template)
        bound = Tracked(bound.head, bound.tail, bound.budget, bound.kind)
        alive = weakref.ref(bound)
        call = request_builder(bound)("fever")
        del bound
        assert alive() is not None  # the pending call builds through it
        req = call.build()
        del call
        assert req.prompt == render(template, input_text="fever")
        gc.collect()
        assert alive() is None


class TestLoadTemplates:
    def test_ships_all_seven_defaults(self, templates):
        from medsum.promptkit import TEMPLATE_IDS

        assert set(templates) == set(TEMPLATE_IDS)
        assert templates["baseline_summarization"].kind is PromptKind.SUMMARIZATION
        assert templates["rfe_extraction"].kind is PromptKind.RFE_EXTRACTION

    def test_custom_directory_overrides_per_file(self, tmp_path):
        from medsum.promptkit import load_templates

        (tmp_path / "rfe_extraction.txt").write_text(
            "CUSTOM PREAMBLE\n{examples}{age} {sex}\n{input}\n"
        )
        loaded = load_templates(tmp_path)
        assert loaded["rfe_extraction"].preamble.startswith("CUSTOM PREAMBLE")
        # Everything the directory does not provide falls back to the default.
        assert "CUSTOM" not in loaded["summarization"].preamble


class TestParseEntityList:
    def test_wellformed_lines(self):
        entities, warnings = parse_entity_list("- back pain (present)\n- fever (absent)")
        assert [(e.name, e.status) for e in entities] == [
            ("back pain", EntityStatus.PRESENT),
            ("fever", EntityStatus.ABSENT),
        ]
        assert warnings == []

    def test_status_case_insensitive(self):
        entities, _ = parse_entity_list("- vaginal discharge (Unknown)")
        assert entities[0].status is EntityStatus.UNKNOWN
        assert entities[0].name == "vaginal discharge"

    def test_malformed_line_skipped_with_warning(self):
        entities, warnings = parse_entity_list(
            "- cough (present)\nnot an entity line\n- nausea (present)"
        )
        assert len(entities) == 2
        assert len(warnings) == 1
        assert "not an entity line" in warnings[0]

    def test_degenerate_completion_is_hard_error(self):
        with pytest.raises(EntityListParseError) as excinfo:
            parse_entity_list("no entities mentioned")
        assert excinfo.value.raw == "no entities mentioned"

    def test_empty_input_is_empty_result(self):
        assert parse_entity_list("") == ([], [])
        assert parse_entity_list("  \n \n") == ([], [])

    def test_name_normalized(self):
        entities, _ = parse_entity_list("-   Back   PAIN   (present)")
        assert entities[0].name == "back pain"


entity_lines = st.lists(
    st.sampled_from(
        [
            "- back pain (present)",
            "-   Back   PAIN   (Absent)",
            "- fever ( unknown )",
            "-  (present)",
            "- \u00a0 (absent)",
            "not an entity line",
            "",
            "   ",
            "- cough (maybe)",
        ]
    ),
    max_size=8,
).map("\n".join)


class TestParseWithProvenance:
    @given(raw=entity_lines, provenance=st.lists(st.sampled_from(["rfe", "turn-pair 3"]), max_size=2))
    def test_equals_parse_then_replace(self, raw, provenance):
        provenance = tuple(provenance)
        try:
            plain, plain_warnings = parse_entity_list(raw)
        except EntityListParseError:
            with pytest.raises(EntityListParseError):
                parse_entity_list(raw, provenance)
            return
        entities, warnings = parse_entity_list(raw, provenance)
        assert entities == [dataclasses.replace(e, provenance=provenance) for e in plain]
        assert all(type(e.status) is EntityStatus for e in entities)
        assert warnings == plain_warnings


def test_provenance_becomes_one_tuple_that_every_entity_shares():
    entities, _ = parse_entity_list("- fever (absent)\n- Back \t Pain (PRESENT)", ["rfe"])
    expected = [
        MedicalEntity("fever", "absent", ["rfe"]), MedicalEntity("back pain", "present", ["rfe"])
    ]
    assert repr(entities) == repr(expected)
    assert entities[0].provenance is entities[1].provenance


def reference_parse_entity_list(raw, provenance=()):
    """`parse_entity_list` with every line through `_ENTITY_LINE_RE`."""
    entities, warnings, saw_content = [], [], False
    for line in raw.splitlines():
        if not line.strip():
            continue
        saw_content = True
        match = _ENTITY_LINE_RE.match(line)
        if match is None:
            warnings.append(f"skipped unparseable line: {line.strip()!r}")
            continue
        try:
            status = EntityStatus(match.group("status").lower())
            entities.append(MedicalEntity(match.group("name"), status, provenance))
        except ValueError:
            warnings.append(f"skipped line with empty entity name: {line.strip()!r}")
    if saw_content and not entities:
        raise EntityListParseError(raw)
    return entities, warnings


def _outcome_of(fn):
    """A call's result, or the type and message of the ValueError it raised."""
    try:
        return fn()
    except ValueError as exc:
        return type(exc), str(exc)


# Whitespace that str.split(), str.strip() and the regex's \s all honour,
# non-ASCII spaces among it.
_LINE_SPACES = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\u2003", "\u3000", " \u202f"])
# Entity lines near the canonical `- <name> (<status>)`: a dash with or
# without a space after it, names with inner whitespace, a nested " (" or
# none at all, upper-case and unknown tokens, and whitespace around each part.
# The canonical choice of each part comes first, so shrinking moves to it,
# and is drawn as often as the others together.
_ENTITY_LINE_PARTS = st.tuples(
    st.just("") | _LINE_SPACES,
    st.just("- ") | st.sampled_from(["-", "-  ", "-\xa0", "- \u3000", "* ", ""]),
    st.lists(
        st.sampled_from(["back", "Pain", " ", "\xa0", "(", " (", "present", ")", "x"]), max_size=5
    ).map("".join),
    st.just(" (") | st.sampled_from(["(", "  (", "\xa0(", " ( ", " (\u2003"]),
    st.sampled_from(["present", "absent", "unknown"])
    | st.sampled_from(["PRESENT", "Absent", "maybe", "presentx", ""]),
    st.just(")") | st.sampled_from([" )", "", "]", "))", ") x"]),
    st.just("") | _LINE_SPACES,
).map("".join)


class TestEntityLineShortcut:
    @settings(max_examples=400)
    @given(
        lines=st.lists(_ENTITY_LINE_PARTS | st.text(max_size=12), max_size=6),
        provenance=st.sampled_from([(), ("turn-pair 3",)]),
    )
    def test_matches_the_regex_on_every_line(self, lines, provenance):
        raw = "\n".join(lines)
        expected = _outcome_of(lambda: reference_parse_entity_list(raw, provenance))
        assert _outcome_of(lambda: parse_entity_list(raw, provenance)) == expected


entity_names = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=0x7F),
        min_size=1,
        max_size=12,
    ).map(lambda s: s.strip()).filter(bool),
    min_size=0,
    max_size=8,
    unique=True,
)


class TestEntityRoundTrip:
    @given(
        names=entity_names,
        statuses=st.lists(st.sampled_from(list(EntityStatus)), min_size=8, max_size=8),
    )
    def test_parse_inverts_serialize(self, names, statuses):
        entities = [
            MedicalEntity(name=name, status=status)
            for name, status in zip(names, statuses)
        ]
        parsed, warnings = (
            parse_entity_list(serialize_entity_list(entities)) if entities else ([], [])
        )
        assert warnings == []
        assert parsed == entities


class TestSerializeLedger:
    def test_empty_ledger_three_blocks(self):
        text = serialize_ledger([])
        assert text == "Present:\n\nAbsent:\n\nUnknown:"

    def test_grouping(self):
        entities = [
            MedicalEntity("fever", EntityStatus.ABSENT),
            MedicalEntity("back pain", EntityStatus.PRESENT),
        ]
        text = serialize_ledger(entities)
        present_block = text.split("\n\n")[0]
        absent_block = text.split("\n\n")[1]
        assert present_block == "Present:\n- back pain (present)"
        assert absent_block == "Absent:\n- fever (absent)"

    def test_lexicographic_within_block(self):
        entities = [
            MedicalEntity("nausea", EntityStatus.PRESENT),
            MedicalEntity("back pain", EntityStatus.PRESENT),
        ]
        text = serialize_ledger(entities)
        assert text.index("back pain") < text.index("nausea")

    def test_flattened_ledger_reparses(self):
        entities = [
            MedicalEntity("fever", EntityStatus.ABSENT),
            MedicalEntity("back pain", EntityStatus.PRESENT),
            MedicalEntity("chills", EntityStatus.UNKNOWN),
        ]
        parsed, _ = parse_entity_list(serialize_ledger(entities))
        assert sorted(e.name for e in parsed) == ["back pain", "chills", "fever"]


class TestParseSummary:
    def test_bold_headers_with_colons(self):
        text = (
            "**Demographics and Social Determinants of Health:**\n"
            "A 52 year old male.\n\n"
            "**Patient Intent:**\n"
            "Medication refill.\n\n"
            "**Pertinent Positives:**\n"
            "Wheezing.\n\n"
            "**Pertinent Unknowns**:\n"
            "Steroid inhaler name unknown.\n\n"
            "**Pertinent Negatives**:\n"
            "No chest pain.\n\n"
            "**Medical History:**\n"
            "Asthma since childhood.\n"
        )
        summary, warnings = parse_summary(text)
        assert summary.demographics_sdoh == "A 52 year old male."
        assert summary.medical_intent == "Medication refill."
        assert summary.pertinent_positives == "Wheezing."
        assert summary.pertinent_negatives == "No chest pain."
        assert summary.pertinent_unknowns == "Steroid inhaler name unknown."
        assert summary.medical_history == "Asthma since childhood."
        assert warnings == []

    def test_single_header_five_warnings(self):
        summary, warnings = parse_summary("Medical History:\nHad a UTI last year.")
        assert summary.medical_history == "Had a UTI last year."
        missing = [w for w in warnings if w.startswith("missing section")]
        assert len(missing) == 5
        assert summary.pertinent_positives == ""

    def test_headers_out_of_order(self):
        text = (
            "Medical History:\nnone\n"
            "Pertinent Positives:\ncough\n"
            "Demographics and Social Determinants of Health:\n30 year old\n"
        )
        summary, _ = parse_summary(text)
        assert summary.medical_history == "none"
        assert summary.pertinent_positives == "cough"
        assert summary.demographics_sdoh == "30 year old"

    def test_no_header_is_hard_error(self):
        with pytest.raises(SummaryParseError):
            parse_summary("just a flat paragraph of text with no structure")

    def test_same_line_body_after_colon(self):
        summary, _ = parse_summary("Medical Intent: wants a refill")
        assert summary.medical_intent == "wants a refill"

    def test_prose_starting_with_section_name_is_not_a_header(self):
        text = "Medical History:\nMedical history shows nothing relevant\nstill history\n"
        summary, _ = parse_summary(text)
        assert "still history" in summary.medical_history
        assert "shows nothing relevant" in summary.medical_history

    def test_duplicate_header_warns_and_concatenates(self):
        text = "Medical Intent:\nrefill\nMedical Intent:\nalso advice"
        summary, warnings = parse_summary(text)
        assert any("duplicate" in w for w in warnings)
        assert "refill" in summary.medical_intent
        assert "also advice" in summary.medical_intent


def _decorate(header: str, bold: int, colon: bool, case: int) -> str:
    if case == 1:
        header = header.upper()
    elif case == 2:
        header = header.lower()
    if colon:
        header += ":"
    if bold == 1:
        header = f"**{header}**"
    elif bold == 2:
        header = f"__{header}__"
    return header


class TestHeaderDecorationProperty:
    @settings(max_examples=60)
    @given(
        bolds=st.lists(st.integers(0, 2), min_size=6, max_size=6),
        colons=st.lists(st.booleans(), min_size=6, max_size=6),
        cases=st.lists(st.integers(0, 2), min_size=6, max_size=6),
    )
    def test_decoration_insensitive(self, bolds, colons, cases):
        lines = []
        for i, key in enumerate(SECTION_KEYS):
            lines.append(_decorate(CANONICAL_HEADERS[key], bolds[i], colons[i], cases[i]))
            lines.append(f"body {i}")
        summary, warnings = parse_summary("\n".join(lines))
        for i, key in enumerate(SECTION_KEYS):
            assert summary.section(key) == f"body {i}"
        assert warnings == []


section_bodies = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), max_codepoint=0x7F),
    max_size=40,
).map(lambda s: s.strip())


class TestSummaryRoundTrip:
    @given(bodies=st.lists(section_bodies, min_size=6, max_size=6))
    def test_parse_inverts_serialize(self, bodies):
        # Bodies here never contain a header line, the documented condition
        # for a lossless round trip.
        summary = StructuredSummary(**dict(zip(SECTION_KEYS, bodies)))
        parsed, _ = parse_summary(serialize_summary(summary))
        assert parsed == summary

    def test_multiline_bodies_survive(self):
        summary = StructuredSummary(
            medical_history="line one\nline two\n\nline four",
            pertinent_positives="cough",
        )
        parsed, _ = parse_summary(serialize_summary(summary))
        assert parsed == summary
