import json
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medsum.backend as backend
import medsum.chain as chain
from medsum.backend import (
    CompletionClient,
    RecordingTransport,
    ReplayStore,
    ScriptedTransport,
    TransientBackendError,
    default_params,
)
from medsum.chain import (
    ChainConfig,
    ChainDeps,
    ChainError,
    RunLog,
    SelectionMode,
    collate,
    encounter_seed,
    encounter_text,
    extract_rfe_entities,
    extract_turn_entities,
    pair_turns,
    resolve_unknowns,
    run_medsum_ent,
    run_naive_baseline,
    run_many,
    summarize,
)
from medsum.model import (
    EntityLedger,
    EntityStatus,
    ExampleKind,
    MedicalEntity,
    Method,
    PromptKind,
    RunRecord,
    Speaker,
    Turn,
    normalize_entity_name,
)
from medsum.promptkit import (
    BudgetExceededError,
    EntityListParseError,
    SummaryParseError,
    TokenBudget,
    render,
    serialize_ledger,
)
from medsum.selection import build_index, select_random
from medsum.backend import HashEmbedder
from medsum.model import Encounter

from conftest import (
    SIX_SECTION_SUMMARY,
    make_client,
    make_encounter,
    make_pool,
    scripted_pipeline_responder,
)


def D(text="doctor turn"):
    return Turn(Speaker.DOCTOR, text)


def P(text="patient turn"):
    return Turn(Speaker.PATIENT, text)


class TestPairTurns:
    def test_alternating(self):
        turns = [D(), P(), D("d2"), P("p2")]
        windows = pair_turns(turns)
        assert windows == [(turns[0], turns[1]), (turns[2], turns[3])]

    def test_doubled_speaker_makes_singleton(self):
        turns = [D("d1"), D("d2"), P("p1")]
        windows = pair_turns(turns)
        assert windows == [(turns[0],), (turns[1], turns[2])]

    def test_single_patient_turn(self):
        turns = [P("only")]
        assert pair_turns(turns) == [(turns[0],)]

    @given(
        st.lists(st.sampled_from(["doctor", "patient"]), min_size=1, max_size=30)
    )
    def test_every_turn_in_exactly_one_window(self, speakers):
        turns = [Turn(Speaker(s), f"t{i}") for i, s in enumerate(speakers)]
        windows = pair_turns(turns)
        flattened = [t for w in windows for t in w]
        assert flattened == turns
        assert all(1 <= len(w) <= 2 for w in windows)
        for window in windows:
            if len(window) == 2:
                assert window[0].speaker is Speaker.DOCTOR
                assert window[1].speaker is Speaker.PATIENT


class TestConfig:
    def test_extraction_k_must_be_1_3_or_5(self):
        for k in (1, 3, 5):
            ChainConfig(extraction_k=k)
        with pytest.raises(ValueError):
            ChainConfig(extraction_k=2)
        with pytest.raises(ValueError):
            ChainConfig(extraction_k=0)

    def test_summarization_k_capped_at_one(self):
        ChainConfig(summarization_k=1)
        with pytest.raises(ValueError):
            ChainConfig(summarization_k=2)

    def test_seed_policy_stable_and_distinct(self):
        a = encounter_seed("enc-001", 7)
        assert a == encounter_seed("enc-001", 7)
        assert a != encounter_seed("enc-002", 7)
        assert a != encounter_seed("enc-001", 8)
        assert 0 <= a < 2**64


class TestExtraction:
    def test_rfe_extraction(self, scripted_deps):
        deps, transport = scripted_deps
        enc = make_encounter()
        log = RunLog()
        entities = extract_rfe_entities(enc, ChainConfig(), deps, log)
        assert entities == [
            MedicalEntity("urinary tract infection", EntityStatus.PRESENT, ("rfe",))
        ]
        assert log.trace[0].prompt_kind is PromptKind.RFE_EXTRACTION
        assert log.trace[0].params == default_params("rfe_extraction").as_dict()
        # The params JSON the entry carries for the record writer is theirs.
        assert log.trace[0].params_json == json.dumps(
            log.trace[0].params, sort_keys=True, separators=(",", ":")
        )
        # The trace hash is the content hash of the request actually sent.
        from medsum.backend import cache_key

        assert log.trace[0].prompt_hash == cache_key(transport.requests[0])

    def test_empty_completion_warns(self, templates, pools):
        client, _ = make_client(lambda req: "")
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        log = RunLog()
        entities = extract_rfe_entities(make_encounter(), ChainConfig(), deps, log)
        assert entities == []
        assert any("empty" in w for w in log.warnings)

    def test_three_shot_prompt_has_three_example_blocks(self, templates, pools):
        captured = {}

        def capture(req):
            captured["prompt"] = req.prompt
            return "- x (present)"

        client, _ = make_client(capture)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        extract_rfe_entities(make_encounter(), ChainConfig(extraction_k=3), deps, RunLog())
        separator = templates["rfe_extraction"].example_separator
        assert captured["prompt"].count(separator) == 3

    def test_turn_extraction_provenance(self, scripted_deps):
        deps, _ = scripted_deps
        enc = make_encounter()
        window = (D("Do you have a fever ?"), P("absent"))
        entities = extract_turn_entities(window, 1, enc, ChainConfig(), deps, RunLog())
        assert entities == [
            MedicalEntity("fever", EntityStatus.ABSENT, ("turn-pair 1",))
        ]

    def test_small_talk_window_yields_nothing(self, templates, pools):
        client, _ = make_client(lambda req: "")
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        log = RunLog()
        entities = extract_turn_entities(
            (D("How is the weather?"), P("fine")), 0, make_encounter(), ChainConfig(), deps, log
        )
        assert entities == []
        assert any(w.startswith("turn-pair 0") for w in log.warnings)


class TestBoundWindowPrompt:
    def test_overflows_at_the_window_render_would(self, scripted_deps):
        deps, _ = scripted_deps
        turns = []
        for i in range(6):
            turns += [D(" ".join(["word"] * (10 * i + 1))), P("yes")]
        enc = Encounter(id="enc-grow", rfe="UTI", age=46, sex="female", turns=tuple(turns))
        windows = pair_turns(enc.turns)
        examples = select_random(
            deps.pools[ExampleKind.DIALOGUE_EXTRACTION], 3, encounter_seed(enc.id, 5)
        )
        template = deps.templates["dialogue_extraction"]

        reserve = default_params(PromptKind.DIALOGUE_EXTRACTION).max_tokens

        def rendered(window, budget):
            return render(
                template,
                input_text=chain.window_text(window),
                age=enc.age,
                sex=enc.sex,
                examples=examples,
                budget=budget,
            )

        # Room for the first three windows' prompts and their completions only.
        fits = max(len(rendered(w, None).split()) for w in windows[:3])
        cfg = ChainConfig(
            extraction_k=3, run_seed=5, budget=TokenBudget(fits + reserve, inflation_factor=1.0)
        )
        calls, failure = chain._extraction_calls(enc, cfg, deps)
        assert [call.build().prompt for call in calls[1:]] == [
            rendered(w, cfg.budget) for w in windows[:3]
        ]
        assert isinstance(failure, BudgetExceededError)
        with pytest.raises(BudgetExceededError) as direct:
            rendered(windows[3], cfg.budget)
        assert failure.estimated == direct.value.estimated > fits

        with pytest.raises(ChainError) as failed:
            run_medsum_ent(enc, cfg, deps)
        assert failed.value.stage == "turn extraction"

    @pytest.mark.parametrize("long_at", [0, 2, 4], ids=["first", "middle", "last"])
    def test_a_window_over_budget_fails_after_the_windows_before_it(self, scripted_deps, long_at):
        deps, transport = scripted_deps
        turns = []
        for i in range(5):
            question = " ".join(["word"] * 3000) if i == long_at else f"Any symptom {i}?"
            turns += [D(f"window-{i} {question}"), P("yes")]
        enc = Encounter(id="enc-long", rfe="UTI", age=46, sex="female", turns=tuple(turns))
        cfg = ChainConfig(budget=TokenBudget(2048, inflation_factor=1.0))
        with pytest.raises(ChainError) as failed:
            run_medsum_ent(enc, cfg, deps)
        assert failed.value.stage == "turn extraction"
        assert isinstance(failed.value.__cause__, BudgetExceededError)
        assert failed.value.__cause__.estimated > failed.value.__cause__.budget
        # The fan-out threads may send in any order.
        kinds = sorted(req.prompt_kind.value for req in transport.requests)
        assert kinds == sorted(["rfe_extraction"] + ["dialogue_extraction"] * long_at)
        windows_sent = [i for req in transport.requests for i in range(5)
                        if f"window-{i} " in req.prompt]
        assert sorted(windows_sent) == list(range(long_at))


class TestSummaryBudget:
    @pytest.mark.parametrize("runner", [run_medsum_ent, run_naive_baseline])
    def test_the_summary_prompt_leaves_room_for_its_completion(self, scripted_deps, runner):
        """A completions API counts the prompt plus `max_tokens` against the
        context, so a prompt that fits alone but not with them is refused."""
        deps, transport = scripted_deps
        enc = make_encounter()

        def cfg(context):
            return ChainConfig(budget=TokenBudget(context, inflation_factor=1.0))

        runner(enc, cfg(4096), deps)
        words = len(transport.requests[-1].prompt.split())
        reserve = default_params(PromptKind.SUMMARIZATION).max_tokens
        assert transport.requests[-1].prompt_kind is PromptKind.SUMMARIZATION
        runner(enc, cfg(words + reserve), deps)
        with pytest.raises(ChainError) as failed:
            runner(enc, cfg(words + reserve - 1), deps)
        assert failed.value.stage == "summarization"
        budget = failed.value.__cause__
        assert isinstance(budget, BudgetExceededError)
        assert (budget.estimated, budget.budget) == (words, words - 1)


class TestCollate:
    def test_later_definite_overrides_unknown(self):
        lists = [
            [MedicalEntity("fever", EntityStatus.UNKNOWN, ("turn-pair 2",))],
            [MedicalEntity("fever", EntityStatus.ABSENT, ("turn-pair 7",))],
        ]
        ledger = collate(lists)
        assert ledger.get("fever").status is EntityStatus.ABSENT

    def test_unknown_never_demotes_definite(self):
        lists = [
            [MedicalEntity("fever", EntityStatus.ABSENT, ("turn-pair 2",))],
            [MedicalEntity("fever", EntityStatus.UNKNOWN, ("turn-pair 7",))],
        ]
        ledger = collate(lists)
        entity = ledger.get("fever")
        assert entity.status is EntityStatus.ABSENT
        assert entity.provenance == ("turn-pair 2", "turn-pair 7")

    def test_idempotent_merge_unions_provenance(self):
        entities = [
            MedicalEntity("cough", EntityStatus.PRESENT, ("rfe",)),
            MedicalEntity("cough", EntityStatus.PRESENT, ("turn-pair 0",)),
        ]
        ledger = collate([entities])
        assert len(ledger) == 1
        assert ledger.get("cough").provenance == ("rfe", "turn-pair 0")

    def test_first_mention_order(self):
        ledger = collate(
            [
                [MedicalEntity("b entity", EntityStatus.PRESENT)],
                [MedicalEntity("a entity", EntityStatus.PRESENT)],
                [MedicalEntity("b entity", EntityStatus.ABSENT)],
            ]
        )
        assert [e.name for e in ledger] == ["b entity", "a entity"]

    def test_later_definite_wins_over_earlier_definite(self):
        ledger = collate(
            [
                [MedicalEntity("fever", EntityStatus.PRESENT)],
                [MedicalEntity("fever", EntityStatus.ABSENT)],
            ]
        )
        assert ledger.get("fever").status is EntityStatus.ABSENT

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.sampled_from(list(EntityStatus)),
            ),
            max_size=12,
        )
    )
    def test_merging_result_with_itself_is_identity(self, pairs):
        entities = [
            MedicalEntity(name, status, (f"turn-pair {i}",))
            for i, (name, status) in enumerate(pairs)
        ]
        once = collate([entities])
        twice = collate([list(once), list(once)])
        assert twice == once


def reference_collate(entity_lists):
    """`collate`'s merge, built through the public constructors."""
    merged, order = {}, []
    for entities in entity_lists:
        for entity in entities:
            current = merged.get(entity.name)
            if current is None:
                merged[entity.name] = entity
                order.append(entity.name)
                continue
            provenance = current.provenance + tuple(
                tag for tag in entity.provenance if tag not in current.provenance
            )
            status = current.status if entity.status is EntityStatus.UNKNOWN else entity.status
            merged[entity.name] = MedicalEntity(entity.name, status, provenance)
    return EntityLedger([merged[name] for name in order])


def reference_resolve(ledger, lines):
    """`resolve_unknowns`'s update for a resolver completion of `lines`,
    built through the public constructors."""
    unknown_names = {e.name for e in ledger if e.status is EntityStatus.UNKNOWN}
    verdicts = {}
    for name, status in lines:
        if normalize_entity_name(name) in unknown_names:
            verdicts[normalize_entity_name(name)] = status
    resolved = []
    for entity in ledger:
        verdict = verdicts.get(entity.name)
        if entity.status is EntityStatus.UNKNOWN and verdict not in (None, entity.status):
            entity = MedicalEntity(entity.name, verdict, entity.provenance + ("resolver",))
        resolved.append(entity)
    return EntityLedger(resolved)


_ODD_NAMES = st.text(st.sampled_from("aB \t"), max_size=4).filter(str.strip)
_ENTITIES = st.builds(
    MedicalEntity,
    _ODD_NAMES,
    st.sampled_from(list(EntityStatus)),
    st.lists(st.sampled_from(["rfe", "turn-pair 0", "turn-pair 1"]), max_size=2, unique=True),
)


@given(st.lists(st.lists(_ENTITIES, max_size=6), max_size=4))
def test_collate_builds_what_the_constructors_build(entity_lists):
    built, expected = collate(entity_lists), reference_collate(entity_lists)
    assert built == expected
    assert repr(built) == repr(expected)  # each status a member, each provenance a tuple


@given(
    st.lists(_ENTITIES, max_size=6, unique_by=lambda e: e.name),
    st.lists(st.tuples(_ODD_NAMES, st.sampled_from(list(EntityStatus))), max_size=6),
)
@settings(deadline=None)
def test_resolve_unknowns_builds_what_the_constructors_build(templates, entities, lines):
    completion = "\n".join(f"- {name} ({status.value})" for name, status in lines)
    client, _ = make_client(lambda req: completion)
    deps = ChainDeps(client=client, templates=templates)
    ledger = EntityLedger(entities)
    built = resolve_unknowns(ledger, make_encounter(), ChainConfig(), deps, RunLog())
    expected = reference_resolve(ledger, lines)
    assert built == expected
    assert repr(built) == repr(expected)


class TestResolveUnknowns:
    def ledger(self):
        return EntityLedger(
            (
                MedicalEntity("abdominal pain", EntityStatus.UNKNOWN, ("turn-pair 1",)),
                MedicalEntity("fever", EntityStatus.ABSENT, ("turn-pair 2",)),
            )
        )

    def test_promotes_unknown_and_appends_provenance(self, scripted_deps):
        deps, _ = scripted_deps
        log = RunLog()
        resolved = resolve_unknowns(
            self.ledger(), make_encounter(), ChainConfig(), deps, log
        )
        pain = resolved.get("abdominal pain")
        assert pain.status is EntityStatus.PRESENT
        assert pain.provenance == ("turn-pair 1", "resolver")
        # Definite entries are bit-identical, field for field.
        assert resolved.get("fever") == self.ledger().get("fever")
        assert len(log.trace) == 1
        assert log.trace[0].prompt_kind is PromptKind.UNKNOWN_RESOLVER

    def test_no_unknowns_no_call(self, scripted_deps):
        deps, transport = scripted_deps
        ledger = EntityLedger((MedicalEntity("fever", EntityStatus.ABSENT),))
        log = RunLog()
        resolved = resolve_unknowns(ledger, make_encounter(), ChainConfig(), deps, log)
        assert resolved == ledger
        assert log.trace == []
        assert transport.requests == []

    def test_disabled_resolver_is_identity(self, scripted_deps):
        deps, transport = scripted_deps
        ledger = self.ledger()
        resolved = resolve_unknowns(
            ledger, make_encounter(), ChainConfig(resolver_enabled=False), deps, RunLog()
        )
        assert resolved == ledger
        assert transport.requests == []

    def test_out_of_scope_entity_ignored_with_warning(self, templates, pools):
        client, _ = make_client(lambda req: "- brand new thing (present)")
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        log = RunLog()
        ledger = self.ledger()
        resolved = resolve_unknowns(ledger, make_encounter(), ChainConfig(), deps, log)
        assert resolved == ledger
        assert any("brand new thing" in w for w in log.warnings)

    def test_parse_failure_fails_open(self, templates, pools):
        client, _ = make_client(lambda req: "cannot determine anything")
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        log = RunLog()
        ledger = self.ledger()
        resolved = resolve_unknowns(ledger, make_encounter(), ChainConfig(), deps, log)
        assert resolved == ledger
        assert any("unparseable" in w for w in log.warnings)

    def test_parse_failure_fail_closed_raises(self, templates, pools):
        client, _ = make_client(lambda req: "cannot determine anything")
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        with pytest.raises(Exception):
            resolve_unknowns(
                self.ledger(),
                make_encounter(),
                ChainConfig(resolver_fail_closed=True),
                deps,
                RunLog(),
            )

    def test_resolver_unknown_verdict_keeps_unknown_untouched(self, templates, pools):
        client, _ = make_client(lambda req: "- abdominal pain (unknown)")
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        ledger = self.ledger()
        resolved = resolve_unknowns(ledger, make_encounter(), ChainConfig(), deps, RunLog())
        assert resolved.get("abdominal pain") == ledger.get("abdominal pain")


class TestSummarize:
    def test_scripted_summary_parses_into_six_sections(self, scripted_deps):
        deps, _ = scripted_deps
        summary = summarize(
            make_encounter(), EntityLedger(), ChainConfig(), deps, RunLog()
        )
        assert summary.pertinent_unknowns == "Unsure about abdominal pain."
        assert summary.medical_history != ""

    def test_ledger_serialization_appears_verbatim_in_prompt(self, templates, pools):
        captured = {}

        def capture(req):
            captured["prompt"] = req.prompt
            return SIX_SECTION_SUMMARY

        client, _ = make_client(capture)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        ledger = EntityLedger(
            (
                MedicalEntity("back pain", EntityStatus.PRESENT),
                MedicalEntity("fever", EntityStatus.ABSENT),
            )
        )
        summarize(make_encounter(), ledger, ChainConfig(), deps, RunLog())
        assert serialize_ledger(ledger) in captured["prompt"]

    def test_summary_depends_on_ledger_only_through_serialization(self, templates, pools):
        # No hidden state: the rendered prompt is exactly the template filled
        # with the conversation plus the serialized ledger, so two ledgers
        # that serialize identically produce identical prompts.
        from medsum.chain import encounter_text
        from medsum.promptkit import render

        captured = {}

        def capture(req):
            captured["prompt"] = req.prompt
            return SIX_SECTION_SUMMARY

        client, _ = make_client(capture)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        enc = make_encounter()
        ledger = EntityLedger(
            (
                MedicalEntity("chills", EntityStatus.UNKNOWN, ("turn-pair 0",)),
                MedicalEntity("fever", EntityStatus.ABSENT, ("rfe",)),
            )
        )
        summarize(enc, ledger, ChainConfig(resolver_enabled=False), deps, RunLog())
        expected_input = (
            "Conversation:\n"
            + encounter_text(enc)
            + "\n\nExtracted medical entities:\n"
            + serialize_ledger(ledger)
        )
        expected_prompt = render(
            templates["summarization"],
            input_text=expected_input,
            age=enc.age,
            sex=enc.sex,
        )
        assert captured["prompt"] == expected_prompt

    def test_one_shot_prompt_has_one_example_block(self, templates, pools):
        captured = {}

        def capture(req):
            captured["prompt"] = req.prompt
            return SIX_SECTION_SUMMARY

        client, _ = make_client(capture)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        summarize(
            make_encounter(),
            EntityLedger(),
            ChainConfig(summarization_k=1),
            deps,
            RunLog(),
        )
        assert captured["prompt"].count("Example:") == 1


class TestRunMedsumEnt:
    def test_trace_length_with_resolver_fired(self, scripted_deps):
        deps, _ = scripted_deps
        # 8 alternating turns -> 4 windows; "belly" window extracts an
        # unknown, so the resolver fires: 1 + 4 + 1 + 1 = 7.
        enc = make_encounter(n_turns=8, with_belly=True)
        record = run_medsum_ent(enc, ChainConfig(), deps)
        assert len(record.llm_call_trace) == 7

    def test_trace_length_with_resolver_disabled(self, scripted_deps):
        deps, _ = scripted_deps
        enc = make_encounter(n_turns=8, with_belly=True)
        record = run_medsum_ent(enc, ChainConfig(resolver_enabled=False), deps)
        assert len(record.llm_call_trace) == 6

    def test_trace_length_without_unknowns(self, scripted_deps):
        deps, _ = scripted_deps
        enc = make_encounter(n_turns=8, with_belly=False)
        record = run_medsum_ent(enc, ChainConfig(), deps)
        assert len(record.llm_call_trace) == 6

    def test_record_contents(self, scripted_deps):
        deps, _ = scripted_deps
        enc = make_encounter(n_turns=8, with_belly=True)
        cfg = ChainConfig(extraction_k=3, run_seed=11)
        record = run_medsum_ent(enc, cfg, deps)
        assert record.method is Method.MEDSUM_ENT
        assert record.encounter_id == enc.id
        assert record.config == cfg.snapshot()
        assert record.ledger.get("urinary tract infection").status is EntityStatus.PRESENT
        assert record.ledger.get("abdominal pain").status is EntityStatus.PRESENT
        kinds = [t.prompt_kind for t in record.llm_call_trace]
        assert kinds[0] is PromptKind.RFE_EXTRACTION
        assert kinds[-1] is PromptKind.SUMMARIZATION
        assert PromptKind.UNKNOWN_RESOLVER in kinds

    def test_stage_error_carries_encounter_context(self, templates, pools):
        client, _ = make_client(lambda req: "degenerate text, never parseable")
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        enc = make_encounter(enc_id="enc-bad")
        with pytest.raises(ChainError, match="enc-bad"):
            run_medsum_ent(enc, ChainConfig(), deps)

    def test_identical_runs_are_byte_identical(self, templates, pools):
        records = []
        for _ in range(2):
            client, _ = make_client(scripted_pipeline_responder)
            deps = ChainDeps(client=client, templates=templates, pools=pools)
            record = run_medsum_ent(
                make_encounter(with_belly=True), ChainConfig(run_seed=3), deps
            )
            records.append(json.dumps(record.to_json_dict(), sort_keys=True))
        assert records[0] == records[1]

    def test_parser_warnings_reach_the_record(self, templates, pools):
        def responder(req):
            if req.prompt_kind is PromptKind.DIALOGUE_EXTRACTION:
                return "- fever (absent)\nsome stray commentary line"
            return scripted_pipeline_responder(req)

        client, _ = make_client(responder)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        record = run_medsum_ent(make_encounter(), ChainConfig(), deps)
        assert any("stray commentary" in w for w in record.warnings)
        assert record.ledger.get("fever") is not None

    def test_semantic_mode_uses_indexed_pools(self, templates):
        embedder = HashEmbedder(16)
        pools = {
            kind: build_index(make_pool(kind, 4), embedder) for kind in ExampleKind
        }
        client, _ = make_client(scripted_pipeline_responder)
        deps = ChainDeps(
            client=client, templates=templates, pools=pools, embedder=embedder
        )
        record = run_medsum_ent(
            make_encounter(), ChainConfig(selection_mode=SelectionMode.SEMANTIC), deps
        )
        assert record.method is Method.MEDSUM_ENT

    def test_semantic_windows_are_all_embedded_before_the_first_send(self, templates):
        """The extraction stage goes out only once it is built: every window
        query is embedded before the transport sees the RFE request."""
        lock, events, sent = threading.Lock(), [], threading.Event()
        hash_embedder = HashEmbedder(16)

        class LoggingEmbedder:
            dimension = 16

            def embed_many(self, texts):
                windows = [("embed", text) for text in texts if "Doctor: " in text]
                if windows and not events:  # room for a request sent early to arrive
                    sent.wait(timeout=0.2)
                with lock:
                    events.extend(windows)
                return hash_embedder.embed_many(texts)

        def respond(req):
            with lock:
                events.append(("send", req.prompt_kind))
            sent.set()
            return scripted_pipeline_responder(req)

        pools = {kind: build_index(make_pool(kind, 4), hash_embedder) for kind in ExampleKind}
        client, _ = make_client(respond)
        deps = ChainDeps(
            client=client, templates=templates, pools=pools, embedder=LoggingEmbedder()
        )
        enc = make_encounter(n_turns=8)
        run_medsum_ent(enc, ChainConfig(selection_mode=SelectionMode.SEMANTIC), deps)
        first_send = events.index(("send", PromptKind.RFE_EXTRACTION))
        assert [kind for kind, _ in events[:first_send]] == ["embed"] * len(pair_turns(enc.turns))

    def test_window_selection_failure_is_a_turn_extraction_failure(self, templates):
        hash_embedder = HashEmbedder(16)

        class WindowRefusingEmbedder:
            dimension = 16

            def embed_many(self, texts):
                if any("Doctor: " in text for text in texts):
                    raise RuntimeError("embedding service down")
                return hash_embedder.embed_many(texts)

        pools = {kind: build_index(make_pool(kind, 4), hash_embedder) for kind in ExampleKind}
        client, transport = make_client(scripted_pipeline_responder)
        deps = ChainDeps(
            client=client, templates=templates, pools=pools, embedder=WindowRefusingEmbedder()
        )
        cfg = ChainConfig(selection_mode=SelectionMode.SEMANTIC)
        with pytest.raises(ChainError) as failed:
            run_medsum_ent(make_encounter(), cfg, deps)
        assert failed.value.stage == "turn extraction"
        assert str(failed.value.__cause__) == "embedding service down"
        # The RFE request before the failure was still sent.
        assert [req.prompt_kind for req in transport.requests] == [PromptKind.RFE_EXTRACTION]


class TestRunNaiveBaseline:
    def test_zero_shot_trace_and_empty_ledger(self, scripted_deps):
        deps, transport = scripted_deps
        record = run_naive_baseline(make_encounter(), ChainConfig(), deps)
        assert len(record.llm_call_trace) == 1
        assert record.llm_call_trace[0].prompt_kind is PromptKind.SUMMARIZATION
        assert len(record.ledger) == 0
        assert record.method is Method.NAIVE_BASELINE
        assert "Example:" not in transport.requests[0].prompt

    def test_one_shot_semantic_selects_nearest_example(self, templates):
        embedder = HashEmbedder(16)
        pool = build_index(make_pool(ExampleKind.SUMMARIZATION, 4), embedder)
        captured = {}

        def capture(req):
            captured["prompt"] = req.prompt
            return SIX_SECTION_SUMMARY

        client, _ = make_client(capture)
        deps = ChainDeps(
            client=client,
            templates=templates,
            pools={ExampleKind.SUMMARIZATION: pool},
            embedder=embedder,
        )
        enc = make_encounter()
        record = run_naive_baseline(
            enc,
            ChainConfig(summarization_k=1, selection_mode=SelectionMode.SEMANTIC),
            deps,
        )
        assert len(record.llm_call_trace) == 1
        assert captured["prompt"].count("Example:") == 1
        # The example block embeds exactly one pool member's input text.
        assert sum(ex.input_text in captured["prompt"] for ex in pool.examples) == 1

    def test_baseline_prompt_has_no_entity_blocks(self, scripted_deps):
        deps, transport = scripted_deps
        run_naive_baseline(make_encounter(), ChainConfig(), deps)
        assert "Extracted medical entities" not in transport.requests[0].prompt


def _replying(kind, text):
    """The scripted pipeline, with `text` as the completion of every `kind` call."""
    return lambda req: text if req.prompt_kind is kind else scripted_pipeline_responder(req)


_DEGENERATE = "degenerate text, never parseable"


def _broken_collate(entity_lists):
    raise RuntimeError("collation broke")


@pytest.mark.parametrize(
    "stage, runner, cfg, responder, cause",
    [
        ("example selection", run_naive_baseline, ChainConfig(summarization_k=1),
         scripted_pipeline_responder, ValueError),
        ("rfe extraction", run_medsum_ent, ChainConfig(),
         _replying(PromptKind.RFE_EXTRACTION, _DEGENERATE), EntityListParseError),
        ("turn extraction", run_medsum_ent, ChainConfig(),
         _replying(PromptKind.DIALOGUE_EXTRACTION, _DEGENERATE), EntityListParseError),
        ("collation", run_medsum_ent, ChainConfig(), scripted_pipeline_responder, RuntimeError),
        ("unknown resolution", run_medsum_ent, ChainConfig(resolver_fail_closed=True),
         _replying(PromptKind.UNKNOWN_RESOLVER, _DEGENERATE), EntityListParseError),
        ("summarization", run_medsum_ent, ChainConfig(),
         _replying(PromptKind.SUMMARIZATION, "no section header here"), SummaryParseError),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_chain_error_names_the_failing_stage(
    stage, runner, cfg, responder, cause, templates, pools, monkeypatch
):
    """Each of the six stage names, raised at that stage's own failure point."""
    if stage == "example selection":
        del pools[ExampleKind.SUMMARIZATION]
    if stage == "collation":
        monkeypatch.setattr(chain, "collate", _broken_collate)
    client, _ = make_client(responder)
    deps = ChainDeps(client=client, templates=templates, pools=pools)
    with pytest.raises(ChainError) as excinfo:
        runner(make_encounter(enc_id="enc-stage", with_belly=True), cfg, deps)
    assert (excinfo.value.encounter_id, excinfo.value.stage) == ("enc-stage", stage)
    assert str(excinfo.value).startswith(f"encounter enc-stage: {stage} failed: ")
    assert type(excinfo.value.__cause__) is cause


class TestRunMany:
    def test_results_in_input_order_despite_workers(self, templates, pools):
        client, _ = make_client(scripted_pipeline_responder)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        encounters = [make_encounter(enc_id=f"enc-{i:03d}") for i in range(6)]
        outcomes = list(
            run_many(encounters, ChainConfig(), deps, Method.MEDSUM_ENT, workers=4)
        )
        assert [o.encounter_id for o in outcomes] == [e.id for e in encounters]
        assert all(o.record is not None for o in outcomes)

    def test_one_failure_does_not_poison_others(self, templates, pools):
        def responder(req):
            # Degenerate extraction for the poisoned encounter only.
            if req.prompt_kind is PromptKind.RFE_EXTRACTION and "POISON" in req.prompt:
                return "nothing useful here"
            return scripted_pipeline_responder(req)

        client, _ = make_client(responder)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        good = make_encounter(enc_id="enc-good")
        bad = make_encounter(enc_id="enc-bad", rfe="POISON")

        outcomes = list(run_many([bad, good], ChainConfig(), deps, Method.MEDSUM_ENT))
        assert outcomes[0].record is None
        assert isinstance(outcomes[0].error, ChainError)
        assert outcomes[1].record is not None


    def test_yields_outcome_0_while_later_encounters_run(self, monkeypatch):
        """Outcome 0 comes out while later encounters still run; closing the
        iterator starts no more encounters and waits for the running ones."""
        workers, n = 3, 20
        release = threading.Event()
        lock = threading.Lock()
        started, finished = [], set()

        def runner(enc, cfg, deps):
            with lock:
                started.append(enc.id)
            if enc.id != "enc-000":
                assert release.wait(timeout=10)
            with lock:
                finished.add(enc.id)
            return enc.id

        monkeypatch.setattr(chain, "run_medsum_ent", runner)
        encounters = [make_encounter(enc_id=f"enc-{i:03d}") for i in range(n)]
        outcomes = run_many(encounters, ChainConfig(), None, Method.MEDSUM_ENT, workers=workers)
        assert next(outcomes).record == "enc-000"
        deadline = time.monotonic() + 10
        while len(started) < workers + 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.02)
        assert started == [e.id for e in encounters[: workers + 1]]
        assert finished == {"enc-000"}

        # close() cancels the queued encounters at once, then waits for the
        # running ones, which the timer lets finish.
        threading.Timer(0.05, release.set).start()
        outcomes.close()
        assert started == [e.id for e in encounters[: workers + 1]]
        assert finished == set(started)


def run_in_thread(fn, timeout=30):
    """Run fn on a thread and return its result; fail if it is still
    running after `timeout` seconds (a deadlock)."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:  # handed to the test thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestFanOut:
    def test_windows_are_in_flight_together(self, templates, pools):
        # Four windows; each window call waits until all four have arrived,
        # which one-after-another calls never would.
        arrived = threading.Barrier(4, timeout=5)

        def responder(req):
            if req.prompt_kind is PromptKind.DIALOGUE_EXTRACTION:
                arrived.wait()
            return scripted_pipeline_responder(req)

        client, _ = make_client(responder)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        record = run_medsum_ent(make_encounter(n_turns=8), ChainConfig(), deps)
        assert len(record.llm_call_trace) == 6

    def test_default_width_sends_an_average_encounters_extractions_at_once(
        self, templates, pools
    ):
        # The source corpus's mean encounter: 46 turns, 23 doctor/patient
        # windows. Each extraction call waits until the RFE call and all 23
        # window calls have arrived, which a narrower fan-out never lets happen.
        arrived = threading.Barrier(24, timeout=2)

        def responder(req):
            if req.prompt_kind in (PromptKind.RFE_EXTRACTION, PromptKind.DIALOGUE_EXTRACTION):
                arrived.wait()
            return scripted_pipeline_responder(req)

        client, transport = make_client(responder)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        encounter = make_encounter(n_turns=46)
        assert len(pair_turns(encounter.turns)) == 23
        record = run_in_thread(lambda: run_medsum_ent(encounter, ChainConfig(), deps))
        assert len(transport.requests) == len(record.llm_call_trace) == 25
        assert not arrived.broken

    def test_max_in_flight_bounds_one_encounter(self, templates, pools):
        lock = threading.Lock()
        state = {"current": 0, "peak": 0}

        def slow(req):
            with lock:
                state["current"] += 1
                state["peak"] = max(state["peak"], state["current"])
            time.sleep(0.005)
            with lock:
                state["current"] -= 1
            return scripted_pipeline_responder(req)

        client, transport = make_client(slow, max_in_flight=2)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        record = run_medsum_ent(make_encounter(n_turns=20), ChainConfig(), deps)
        assert len(transport.requests) == len(record.llm_call_trace) == 12
        assert state["peak"] <= 2

    def test_run_many_with_one_slot_does_not_deadlock(self, templates, pools):
        client, _ = make_client(scripted_pipeline_responder, max_in_flight=1)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        encounters = [
            make_encounter(enc_id=f"enc-{i:03d}", n_turns=12, with_belly=True) for i in range(8)
        ]
        outcomes = run_in_thread(
            lambda: list(
                run_many(encounters, ChainConfig(), deps, Method.MEDSUM_ENT, workers=4)
            )
        )
        assert all(o.record is not None for o in outcomes)

    def test_degenerate_rfe_fails_while_windows_are_in_flight(self, templates, pools):
        release = threading.Event()

        def responder(req):
            if req.prompt_kind is PromptKind.RFE_EXTRACTION:
                return "degenerate text, never parseable"
            release.wait(timeout=5)
            return scripted_pipeline_responder(req)

        client, _ = make_client(responder)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        try:
            with pytest.raises(ChainError) as excinfo:
                run_medsum_ent(make_encounter(n_turns=8), ChainConfig(), deps)
            assert excinfo.value.stage == "rfe extraction"
            assert not release.is_set()
        finally:
            release.set()

    def test_failing_window_build_reports_the_first_failing_stage(self, templates, pools):
        del pools[ExampleKind.DIALOGUE_EXTRACTION]
        enc = make_encounter()
        client, transport = make_client(scripted_pipeline_responder)
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        with pytest.raises(ChainError) as excinfo:
            run_medsum_ent(enc, ChainConfig(), deps)
        assert excinfo.value.stage == "turn extraction"
        assert [r.prompt_kind for r in transport.requests] == [PromptKind.RFE_EXTRACTION]

        client, _ = make_client(lambda req: "degenerate text, never parseable")
        deps = ChainDeps(client=client, templates=templates, pools=pools)
        with pytest.raises(ChainError) as excinfo:
            run_medsum_ent(enc, ChainConfig(), deps)
        assert excinfo.value.stage == "rfe extraction"

    def test_random_examples_drawn_once_per_encounter_and_kind(
        self, scripted_deps, monkeypatch
    ):
        deps, _ = scripted_deps
        draws = []
        select_random = chain.select_random

        def counted(pool, k, seed):
            draws.append(pool.kind)
            return select_random(pool, k, seed)

        monkeypatch.setattr(chain, "select_random", counted)
        cfg = ChainConfig(extraction_k=3, summarization_k=1)
        run_medsum_ent(make_encounter(n_turns=12), cfg, deps)
        assert sorted(draws) == sorted(
            [ExampleKind.RFE_EXTRACTION, ExampleKind.DIALOGUE_EXTRACTION, ExampleKind.SUMMARIZATION]
        )

    @pytest.mark.parametrize("recording", [False, True], ids=["scripted", "recording"])
    @pytest.mark.parametrize("runner", [run_medsum_ent, run_naive_baseline])
    def test_cache_key_computed_once_per_request(
        self, templates, pools, tmp_path, monkeypatch, runner, recording
    ):
        """Every key, whole-prompt or prefix-keyed, is a `PrefixKeyer` key:
        one per request, over a store-backed transport too."""
        inner = ScriptedTransport(scripted_pipeline_responder)
        transport = (
            RecordingTransport(inner, ReplayStore(tmp_path / "store.jsonl", create=True))
            if recording else inner
        )
        deps = ChainDeps(CompletionClient(transport), templates, pools)
        keys = []
        prefix_key = backend.PrefixKeyer.key

        def counted(keyer, input_text):
            keys.append(input_text)
            return prefix_key(keyer, input_text)

        monkeypatch.setattr(backend.PrefixKeyer, "key", counted)
        record = runner(make_encounter(with_belly=True), ChainConfig(), deps)
        deps.client.close()
        assert len(keys) == len(inner.requests) == len(record.llm_call_trace)


# Window texts the responder below treats differently: an unknown the
# resolver settles, a definite entity, an empty completion, a stray line.
_TURN_TEXTS = ("Does your belly hurt?", "Any fever?", "How is the weather?", "stray", "ok")


def _fan_out_responder(req):
    live_input = req.prompt.rpartition("Patient sex:")[2]
    if req.prompt_kind is PromptKind.DIALOGUE_EXTRACTION:
        if "weather" in live_input:
            return ""
        if "stray" in live_input:
            return "- cough (present)\nsome stray commentary line"
    return scripted_pipeline_responder(req)


class FlakyDelayedTransport:
    """Answers like _fan_out_responder after a random delay of up to 3 ms,
    and fails the first attempt of a random share of distinct requests."""

    def __init__(self, seed):
        self.seed = seed
        self.seen = set()
        self.lock = threading.Lock()

    def send(self, req):
        rng = random.Random(f"{self.seed}/{req.prompt_kind.value}/{req.prompt}")
        time.sleep(rng.random() * 0.003)
        with self.lock:
            first = req.prompt not in self.seen
            self.seen.add(req.prompt)
        if first and rng.random() < 0.3:
            raise TransientBackendError("injected first-attempt failure")
        return _fan_out_responder(req)


def _serial_record(enc, cfg, deps):
    """The staged run, one stage call after another through the public
    stage functions."""
    log = RunLog()
    lists = [extract_rfe_entities(enc, cfg, deps, log)]
    for i, window in enumerate(pair_turns(enc.turns)):
        lists.append(extract_turn_entities(window, i, enc, cfg, deps, log))
    ledger = resolve_unknowns(collate(lists), enc, cfg, deps, log)
    summary = summarize(enc, ledger, cfg, deps, log)
    return RunRecord(
        encounter_id=enc.id,
        method=Method.MEDSUM_ENT,
        config=cfg.snapshot(),
        ledger=ledger,
        summary=summary,
        llm_call_trace=tuple(log.trace),
        warnings=tuple(log.warnings),
    )


def _record_json(record):
    return json.dumps(record.to_json_dict(), sort_keys=True)


_turns = st.lists(
    st.builds(Turn, st.sampled_from(list(Speaker)), st.sampled_from(_TURN_TEXTS)),
    min_size=1,
    max_size=14,
)


_EMBEDDER = HashEmbedder(16)
_INDEXED_POOLS = {kind: build_index(make_pool(kind), _EMBEDDER) for kind in ExampleKind}


@given(
    turn_lists=st.lists(_turns, min_size=1, max_size=4),
    extraction_k=st.sampled_from((1, 3, 5)),
    selection_mode=st.sampled_from(list(SelectionMode)),
    resolver_enabled=st.booleans(),
    workers=st.sampled_from((1, 2, 8)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_fan_out_records_equal_serial_records(
    templates, turn_lists, extraction_k, selection_mode, resolver_enabled, workers, seed
):
    encounters = [
        Encounter(id=f"enc-{i}", rfe="UTI", age=46, sex="female", turns=tuple(turns))
        for i, turns in enumerate(turn_lists)
    ]
    cfg = ChainConfig(
        extraction_k=extraction_k,
        selection_mode=selection_mode,
        resolver_enabled=resolver_enabled,
        run_seed=seed,
    )

    def deps_for(client):
        return ChainDeps(
            client=client, templates=templates, pools=_INDEXED_POOLS, embedder=_EMBEDDER
        )

    serial_client, _ = make_client(_fan_out_responder, max_in_flight=1)
    serial_deps = deps_for(serial_client)
    expected = [_record_json(_serial_record(enc, cfg, serial_deps)) for enc in encounters]

    deps = deps_for(
        backend.CompletionClient(FlakyDelayedTransport(seed), sleeper=lambda _: None)
    )
    outcomes = run_many(encounters, cfg, deps, Method.MEDSUM_ENT, workers=workers)
    assert [_record_json(o.record) for o in outcomes] == expected
