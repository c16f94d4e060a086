import dataclasses
import gzip
import hashlib
import json
import logging
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import medsum.backend as backend
from medsum.backend import (
    BackendProtocolError,
    CompletionClient,
    CompletionParams,
    CompletionRequest,
    HashEmbedder,
    HTTPTransport,
    PendingCall,
    PrefixKeyer,
    RecordingTransport,
    ReplayMissError,
    ReplayStore,
    ReplayStoreError,
    ReplayTransport,
    RetryExhaustedError,
    RetryPolicy,
    ScriptedTransport,
    TransientBackendError,
    cache_key,
    default_params,
)
from medsum.model import PromptKind

from conftest import json_of_another_type, make_client


def request_for(prompt="hello", kind=PromptKind.SUMMARIZATION, params=None):
    return CompletionRequest.build(kind, prompt, params)


def pending(req, build=None):
    """The pending call of a built request; `build` defaults to returning it."""
    return PendingCall(cache_key(req), req.prompt_kind, req.params, build or (lambda: req))


class TestDefaultParams:
    # One row per prompt kind: (temperature, max_tokens, top_p).
    EXPECTED = {
        "rfe_extraction": (0.1, 200, 1.0),
        "dialogue_extraction": (0.1, 200, 1.0),
        "unknown_resolver": (0.1, 200, 1.0),
        "summarization": (0.7, 512, 1.0),
        "metric_extraction": (0.0, 200, 1.0),
        "metric_verification": (0.0, 200, 1.0),
    }

    def test_all_six_rows(self):
        for kind, (temperature, max_tokens, top_p) in self.EXPECTED.items():
            params = default_params(kind)
            assert params == CompletionParams(temperature, max_tokens, top_p)

    def test_accepts_enum_or_string(self):
        assert default_params(PromptKind.SUMMARIZATION) == default_params("summarization")

    def test_a_member_and_its_value_give_the_same_params_object(self):
        for kind in PromptKind:
            params = backend.DEFAULT_COMPLETION_PARAMS[kind]
            assert default_params(kind) is params and default_params(kind.value) is params
        for unknown in ("bogus", "SUMMARIZATION", ""):
            with pytest.raises(ValueError):
                default_params(unknown)


class TestCompletionParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1, "max_tokens": 10, "top_p": 1.0},
            {"temperature": 2.5, "max_tokens": 10, "top_p": 1.0},
            {"temperature": 0.5, "max_tokens": 0, "top_p": 1.0},
            {"temperature": 0.5, "max_tokens": 10, "top_p": 0.0},
            {"temperature": 0.5, "max_tokens": 10, "top_p": 1.5},
        ],
    )
    def test_range_validation(self, kwargs):
        with pytest.raises(ValueError):
            CompletionParams(**kwargs)


# Text that the key's string encoder escapes or encodes specially: quotes,
# backslashes, control characters, U+2028, non-ASCII and astral characters,
# and lone surrogates of both halves; an edge is one of them or nothing,
# put at a join between head, input and tail.
_KEY_SPECIALS = '"\\/\x00\x07\x1f\x7f\n\r\t\u2028é—\U0001f600\U0010ffff\ud800\udbff\udc00\udfff'
_KEY_PIECE = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(_KEY_SPECIALS)), max_size=12)
_KEY_EDGE = st.sampled_from(["", *_KEY_SPECIALS])


class TestCacheKey:
    def test_stable_across_processes(self):
        # Frozen constant: the key is a sha256 over a canonical serialization,
        # so it must never drift between runs or machines.
        req = CompletionRequest(
            prompt="hello",
            params=CompletionParams(0.7, 512, 1.0),
            prompt_kind=PromptKind.SUMMARIZATION,
        )
        assert cache_key(req) == cache_key(req)
        expected_payload = json.dumps(
            {
                "prompt_kind": "summarization",
                "prompt": "hello",
                "params": {"temperature": 0.7, "max_tokens": 512, "top_p": 1.0},
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        assert cache_key(req) == hashlib.sha256(expected_payload.encode()).hexdigest()

    def test_pinned_key(self):
        # A key of an existing store: a change here makes every recorded
        # store miss.
        req = CompletionRequest.build(
            "dialogue_extraction", "Doctor: Any fever?\nPatient: No fever — none at all."
        )
        assert cache_key(req) == (
            "81db519273139defb63da62e6b44df440752b0ee286fb081a34dd536bb8ce78e"
        )

    @given(
        prompt=st.text(
            st.one_of(
                st.characters(exclude_categories=()),  # surrogates included
                st.sampled_from('"\\/\x00\x07\x1f\x7f\n\r\t\u2028é—\ud800\udbff\udc00\udfff'),
            ),
            min_size=1,
        ),
        kind=st.sampled_from(PromptKind),
        params=st.builds(
            CompletionParams,
            temperature=st.floats(0.0, 2.0),
            max_tokens=st.integers(1, 10**9),
            top_p=st.floats(0.0, 1.0, exclude_min=True),
        ),
    )
    def test_matches_the_json_dumps_reference(self, prompt, kind, params):
        req = CompletionRequest(prompt=prompt, params=params, prompt_kind=kind)
        payload = json.dumps(
            {"prompt_kind": kind.value, "prompt": prompt, "params": params.as_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        assert cache_key(req) == hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @given(
        parts=st.tuples(*[_KEY_PIECE] * 3, *[_KEY_EDGE] * 4),
        kind=st.sampled_from(PromptKind),
        params=st.sampled_from(sorted(set(backend.DEFAULT_COMPLETION_PARAMS.values()), key=repr)),
    )
    def test_prefix_keyer_matches_cache_key(self, parts, kind, params):
        head, middle, end, head_end, input_start, input_end, tail_start = parts
        head += head_end
        input_text = input_start + middle + input_end
        tail = tail_start + end
        assume(head + input_text + tail)
        req = CompletionRequest(head + input_text + tail, params, kind)
        assert PrefixKeyer(kind, params, head, tail).key(input_text) == cache_key(req)

    def test_prefix_keyer_serves_many_inputs(self):
        keyer = PrefixKeyer(PromptKind.DIALOGUE_EXTRACTION, default_params("dialogue_extraction"),
                            "Doctor: Any fever?\nPatient: ", "")
        for answer in ("No fever — none at all.", "Yes.", ""):
            prompt = "Doctor: Any fever?\nPatient: " + answer
            assert keyer.key(answer) == cache_key(CompletionRequest.build("dialogue_extraction", prompt))
        assert keyer.key("No fever — none at all.") == (
            "81db519273139defb63da62e6b44df440752b0ee286fb081a34dd536bb8ce78e"
        )

    def test_every_field_feeds_the_key(self):
        base = request_for("hello", PromptKind.SUMMARIZATION)
        assert cache_key(request_for("hello!", PromptKind.SUMMARIZATION)) != cache_key(base)
        assert cache_key(request_for("hello", PromptKind.METRIC_EXTRACTION)) != cache_key(base)
        tweaked = request_for(
            "hello", PromptKind.SUMMARIZATION, CompletionParams(0.6, 512, 1.0)
        )
        assert cache_key(tweaked) != cache_key(base)


class TestCompletionClient:
    def test_cache_hit_skips_transport(self):
        client, transport = make_client(lambda req: "completion text")
        req = request_for()
        assert client.complete(req) == "completion text"
        assert client.complete(req) == "completion text"
        assert len(transport.requests) == 1

    def test_retry_delays_follow_geometric_sequence(self):
        # Oracle: with jitter 0, delay before retry n (1-based) is
        # base * multiplier**(n-1).
        failures = 2
        calls = {"n": 0}

        def flaky(req):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise TransientBackendError("simulated 429")
            return "ok"

        sleeps = []
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_attempts=6, jitter_fraction=0.0)
        client = CompletionClient(
            ScriptedTransport(flaky), retry_policy=policy, sleeper=sleeps.append
        )
        assert client.complete(request_for()) == "ok"
        expected = [policy.base_delay * policy.multiplier ** n for n in range(failures)]
        assert sleeps == expected == [1.0, 2.0]

    def test_retries_capped_at_max_attempts(self):
        calls = {"n": 0}

        def always_fails(req):
            calls["n"] += 1
            raise TransientBackendError("simulated 503")

        policy = RetryPolicy(base_delay=0.0, multiplier=2.0, max_attempts=4, jitter_fraction=0.0)
        client = CompletionClient(
            ScriptedTransport(always_fails), retry_policy=policy, sleeper=lambda _: None
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            client.complete(request_for())
        assert calls["n"] == 4
        assert excinfo.value.attempts == 4

    def test_non_transient_error_not_retried(self):
        calls = {"n": 0}

        def broken(req):
            calls["n"] += 1
            raise BackendProtocolError("bad request")

        client, _ = make_client(broken)
        with pytest.raises(BackendProtocolError):
            client.complete(request_for())
        assert calls["n"] == 1

    def test_jitter_bounds(self):
        import random

        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_attempts=6, jitter_fraction=0.1)
        rng = random.Random(0)
        for i in range(5):
            delay = policy.delay(i, rng)
            nominal = 2.0**i
            assert 0.9 * nominal <= delay <= 1.1 * nominal


class TestSingleFlight:
    def test_concurrent_identical_requests_share_one_transport_call(self):
        def slow(req):
            time.sleep(0.02)
            return "shared text"

        client, transport = make_client(slow)
        barrier = threading.Barrier(8)
        results = []

        def caller():
            barrier.wait(timeout=5)
            results.append(client.complete(request_for("same prompt")))

        threads = [threading.Thread(target=caller, daemon=True) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(transport.requests) == 1
        assert results == ["shared text"] * 8

    def test_failure_reaches_every_waiting_caller_and_is_not_cached(self):
        def broken(req):
            time.sleep(0.02)
            raise BackendProtocolError("bad request")

        client, transport = make_client(broken)
        barrier = threading.Barrier(4)
        errors = []

        def caller():
            barrier.wait(timeout=5)
            try:
                client.complete(request_for("same prompt"))
            except BackendProtocolError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
        assert len(errors) == 4
        assert len(transport.requests) == 1
        with pytest.raises(BackendProtocolError):
            client.complete(request_for("same prompt"))
        assert len(transport.requests) == 2


def counted_cache_key(monkeypatch):
    """Count every cache_key call made through the backend module."""
    keys = []
    original = backend.cache_key

    def counted(req):
        keys.append(original(req))
        return keys[-1]

    monkeypatch.setattr(backend, "cache_key", counted)
    return keys


class TestStoreBackedClient:
    def test_replay_client_keys_each_call_once(self, tmp_path, monkeypatch):
        store = ReplayStore(tmp_path / "store.jsonl", create=True)
        recorded, missing = request_for("recorded"), request_for("never recorded")
        store.put(cache_key(recorded), recorded.prompt_kind, "answer")
        client = CompletionClient(ReplayTransport(store), sleeper=lambda _: None)
        keys = counted_cache_key(monkeypatch)
        assert client.complete(recorded) == "answer"
        assert keys == [cache_key(recorded)]
        with pytest.raises(ReplayMissError) as excinfo:
            client.complete(missing)
        assert keys == [cache_key(recorded), cache_key(missing)]
        assert excinfo.value.key == cache_key(missing)

    def test_store_hits_never_reach_send_and_are_not_copied(self, tmp_path):
        store = ReplayStore(tmp_path / "store.jsonl", create=True)
        req = request_for("recorded")
        store.put(cache_key(req), req.prompt_kind, "first")
        transport = ReplayTransport(store)
        sends = []
        transport.send = lambda *args: sends.append(args)
        client = CompletionClient(transport)
        assert [client.complete(req), *client.gather([pending(req)])] == ["first"] * 2
        # The store is the only cache: what it holds now is what is served.
        store.put(cache_key(req), req.prompt_kind, "second")
        assert client.complete(req) == "second"
        assert sends == []

    def test_record_mode_keys_once_and_persists_once(self, tmp_path, monkeypatch):
        store_path = tmp_path / "store.jsonl"
        live = ScriptedTransport(lambda req: f"echo:{req.prompt}")
        client = CompletionClient(
            RecordingTransport(live, ReplayStore(store_path, create=True)),
            sleeper=lambda _: None,
        )
        req = request_for("fresh")
        keys = counted_cache_key(monkeypatch)
        assert client.complete(req) == client.complete(req) == "echo:fresh"
        assert keys == [cache_key(req)] * 2
        assert len(live.requests) == 1
        lines = store_path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["key_hex"] for line in lines] == [cache_key(req)]

    def test_concurrent_recording_sends_each_key_once(self, tmp_path):
        def slow(req):
            time.sleep(0.005)
            return f"echo:{req.prompt}"

        store_path = tmp_path / "store.jsonl"
        live = ScriptedTransport(slow)
        client = CompletionClient(
            RecordingTransport(live, ReplayStore(store_path, create=True)),
            sleeper=lambda _: None,
        )
        prompts = [f"prompt {i % 5}" for i in range(40)]
        results = {}

        def caller(i):
            results[i] = client.complete(request_for(prompts[i]))

        threads = [threading.Thread(target=caller, args=(i,), daemon=True) for i in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {i: f"echo:{prompts[i]}" for i in range(40)}
        assert sorted(req.prompt for req in live.requests) == sorted(set(prompts))
        assert len(store_path.read_text(encoding="utf-8").splitlines()) == 5


def keyed(*requests):
    return [pending(req) for req in requests]


class TestGather:
    def test_cache_and_store_hits_complete_on_the_calling_thread(self, tmp_path):
        threads = []

        def respond(req):
            threads.append(threading.current_thread())
            return f"echo:{req.prompt}"

        store = ReplayStore(tmp_path / "store.jsonl", create=True)
        stored, cached, fresh = (request_for(p) for p in ("stored", "cached", "fresh"))
        store.put(cache_key(stored), stored.prompt_kind, "from the store")
        client = CompletionClient(
            RecordingTransport(ScriptedTransport(respond), store), sleeper=lambda _: None
        )
        client.complete(cached)
        threads.clear()

        texts = client.gather(keyed(stored, cached, fresh))
        assert next(texts) == "from the store"
        assert next(texts) == "echo:cached"
        assert next(texts) == "echo:fresh"
        # Only the miss reached the transport, and it ran on the executor.
        assert len(threads) == 1 and threads[0] is not threading.current_thread()

    def test_hits_are_served_from_one_lookup_before_the_first_text(self, tmp_path, monkeypatch):
        store = ReplayStore(tmp_path / "store.jsonl", create=True)
        first, second = request_for("first"), request_for("second")
        for req in (first, second):
            store.put(cache_key(req), req.prompt_kind, f"stored {req.prompt}")
        client = CompletionClient(ReplayTransport(store))
        lookups, lookup = [], client._lookup
        client._lookup = lambda key: lookups.append(key) or lookup(key)
        client.complete = lambda *args: pytest.fail("a hit went through complete")

        def no_executor(width):
            raise AssertionError("a hit reached the fan-out executor")

        monkeypatch.setattr(backend, "_fan_out_executor", no_executor)
        texts = client.gather(keyed(first, second))
        assert lookups == []  # lazy: nothing runs before the first take
        assert next(texts) == "stored first"
        assert lookups == [cache_key(first), cache_key(second)]
        assert list(texts) == ["stored second"]

    def test_replay_transport_peeks_its_store(self, tmp_path):
        store = ReplayStore(tmp_path / "store.jsonl", create=True)
        req = request_for("recorded")
        store.put(cache_key(req), req.prompt_kind, "answer")
        replay = ReplayTransport(store)
        assert replay.peek(cache_key(req)) == "answer"
        assert replay.peek(cache_key(request_for("other"))) is None
        assert list(CompletionClient(replay).gather(keyed(req))) == ["answer"]

    def test_transport_error_surfaces_at_its_position(self):
        def respond(req):
            if req.prompt == "broken":
                raise BackendProtocolError("bad request")
            return f"echo:{req.prompt}"

        client, _ = make_client(respond)
        texts = client.gather(keyed(*(request_for(p) for p in ("first", "broken", "third"))))
        assert next(texts) == "echo:first"
        with pytest.raises(BackendProtocolError):
            next(texts)

    def test_a_build_that_raises_surfaces_at_its_position(self, tmp_path):
        def unbuildable():
            raise ValueError("cannot build this prompt")

        store = ReplayStore(tmp_path / "store.jsonl", create=True)
        stored, miss, broken, later = (request_for(p) for p in ("stored", "miss", "broken", "later"))
        store.put(cache_key(stored), stored.prompt_kind, "from the store")
        transport = ScriptedTransport(lambda req: f"echo:{req.prompt}")
        client = CompletionClient(RecordingTransport(transport, store))
        texts = client.gather([
            pending(stored),
            pending(miss),
            PendingCall(cache_key(broken), broken.prompt_kind, broken.params, unbuildable),
            pending(later),
        ])
        assert next(texts) == "from the store"
        assert next(texts) == "echo:miss"
        with pytest.raises(ValueError, match="cannot build this prompt"):
            next(texts)
        assert transport.requests == [miss]  # no call after the failure starts
        assert client._flights == {}

    def test_closing_after_the_first_text_cancels_queued_calls(self):
        started, release = threading.Event(), threading.Event()

        def respond(req):
            if req.prompt == "blocks":
                started.set()
                assert release.wait(timeout=5)
            return f"echo:{req.prompt}"

        client, transport = make_client(respond, max_in_flight=1)
        texts = client.gather(keyed(*(request_for(p) for p in ("first", "blocks", "queued"))))
        try:
            assert next(texts) == "echo:first"
            assert started.wait(timeout=5)
            texts.close()
        finally:
            release.set()
        # The one-wide executor runs tasks in order: once this sentinel has
        # run, the call queued behind the blocked one would have run too.
        backend._fan_out_executor(1).submit(lambda: None).result(timeout=5)
        assert [req.prompt for req in transport.requests] == ["first", "blocks"]


def _unbuildable():
    """A pending call whose build fails the test, with its built twin."""
    def build():
        pytest.fail("a pending call was built")

    eager = request_for("head pending tail")
    return pending(eager, build), eager


class TestPendingCall:
    def test_a_request_is_a_frozen_dataclass_equal_by_its_fields(self):
        head, tail = "Text:\n", "\nConcepts:"
        req = request_for(head + "fever" + tail, PromptKind.METRIC_EXTRACTION)
        twin = CompletionRequest(head + "fever" + tail, req.params, "metric_extraction")
        assert twin.prompt_kind is PromptKind.METRIC_EXTRACTION
        assert twin == req and hash(twin) == hash(req) and repr(twin) == repr(req)
        assert twin != request_for(head + "chills" + tail, PromptKind.METRIC_EXTRACTION)
        assert cache_key(twin) == cache_key(req)
        assert dataclasses.fields(req) and not hasattr(req, "__dict__")
        with pytest.raises(ValueError, match="prompt is empty"):
            CompletionRequest("", req.params, req.prompt_kind)

    def test_is_frozen(self):
        _, eager = _unbuildable()
        with pytest.raises(dataclasses.FrozenInstanceError):
            eager.params = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            del eager.prompt_kind
        with pytest.raises(AttributeError):
            pending(eager).key = "other"

    def test_concurrent_misses_of_one_key_build_once(self):
        built, release = [], threading.Event()
        req = request_for("slow")
        client, transport = make_client(lambda _: release.wait(timeout=5) and "sent")
        call = pending(req, lambda: built.append(threading.current_thread()) or req)
        results = []
        callers = [threading.Thread(target=lambda: results.append(client.complete(call)))
                   for _ in range(8)]
        for caller in callers:
            caller.start()
        deadline = time.monotonic() + 5
        while not transport.requests and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for caller in callers:
            caller.join(timeout=10)
        assert not any(caller.is_alive() for caller in callers)
        assert results == ["sent"] * 8
        assert len(built) == 1 and transport.requests == [req]
        assert client._flights == {}

    @pytest.mark.parametrize("backed_by", ["store", "memory"])
    def test_hits_through_complete_and_gather_never_build(self, backed_by, tmp_path):
        call, eager = _unbuildable()
        if backed_by == "store":
            store = ReplayStore(tmp_path / "store.jsonl", create=True)
            store.put(cache_key(eager), eager.prompt_kind, "stored")
            client = CompletionClient(ReplayTransport(store))
        else:
            client, _ = make_client(lambda _: "stored")
            client.complete(eager)
        assert client.complete(call) == "stored"
        assert list(client.gather([call])) == ["stored"]

    def test_gather_builds_a_miss_on_the_calling_thread(self):
        built_on, sent_on = [], []
        client, transport = make_client(lambda req: sent_on.append(threading.current_thread()) or "sent")
        req = request_for("built miss")
        call = pending(req, lambda: built_on.append(threading.current_thread()) or req)
        assert list(client.gather([call])) == ["sent"]
        assert built_on == [threading.current_thread()]
        assert sent_on != built_on
        assert transport.requests == [request_for("built miss")]


def _drain(width):
    """Return once every task queued on the fan-out executor of `width` has
    run: `width` tasks that wait for each other run only on a free pool."""
    barrier = threading.Barrier(width)
    executor = backend._fan_out_executor(width)
    for done in [executor.submit(barrier.wait, 5) for _ in range(width)]:
        done.result(timeout=10)


@st.composite
def _gateway_runs(draw):
    """Call ids over a small key space (repeats allowed), the ids answered
    before the run, the ids whose first attempt fails transiently, and the
    position of one more call, of a key of its own, that is refused."""
    ids = draw(st.lists(st.integers(0, 4), min_size=1, max_size=10))
    stored = draw(st.sets(st.integers(0, 4)))
    flaky = draw(st.sets(st.integers(0, 4)))
    return ids, stored, flaky, draw(st.integers(0, len(ids)))


class TestGatewayOverPendingCalls:
    BROKEN = 5

    @settings(max_examples=60, deadline=None)
    @given(
        run=_gateway_runs(),
        backed_by=st.sampled_from(["store", "memory"]),
        through=st.sampled_from(["gather", "complete"]),
        max_in_flight=st.sampled_from([None, 1, 3]),
    )
    def test_builds_and_sends_only_misses_and_answers_in_turn(
        self, run, backed_by, through, max_in_flight
    ):
        ids, stored, flaky, broken_at = run
        ids = ids[:broken_at] + [self.BROKEN] + ids[broken_at:]
        requests = {i: request_for(f"prompt {i}") for i in range(self.BROKEN + 1)}
        built, attempts, answered, live = [], Counter(), [], []

        def respond(req):
            i = int(req.prompt.split()[1])
            if live:
                attempts[i] += 1
                if i == self.BROKEN:
                    raise BackendProtocolError("refused")
                if i in flaky and attempts[i] == 1:
                    raise TransientBackendError("busy")
                answered.append(i)
            return f"text {i}"

        with tempfile.TemporaryDirectory() as tmp:
            transport = ScriptedTransport(respond)
            if backed_by == "store":
                store = ReplayStore(Path(tmp) / "store.jsonl", create=True)
                for i in stored:
                    store.put(cache_key(requests[i]), requests[i].prompt_kind, f"text {i}")
                transport = RecordingTransport(transport, store)
            client = CompletionClient(transport, sleeper=lambda _: None, max_in_flight=max_in_flight)
            for i in stored:
                client.complete(requests[i])  # a store hit, or the memory cache's first answer
            live.append(True)
            calls = [pending(requests[i], lambda i=i: built.append(i) or requests[i]) for i in ids]
            if through == "gather":
                texts = client.gather(calls)
                outcomes = [next(texts) for _ in range(broken_at)]
                with pytest.raises(BackendProtocolError):
                    next(texts)
                outcomes.append("refused")
                _drain(max_in_flight or backend.FAN_OUT_WIDTH)
            else:
                outcomes = []
                for call in calls:
                    try:
                        outcomes.append(client.complete(call))
                    except BackendProtocolError:
                        outcomes.append("refused")
            client.close()

        expected = [f"text {i}" if i != self.BROKEN else "refused" for i in ids]
        assert outcomes == expected[:len(outcomes)]
        assert client._flights == {}
        missed = [i for i in dict.fromkeys(ids) if i not in stored]
        if through == "complete":
            assert built == missed
        else:
            # Every call is looked up before any answer is taken; a repeat
            # that misses joins its key's flight or finds its text.
            assert set(built) == set(missed)
            assert all(built.count(i) <= ids.count(i) for i in missed)
        assert attempts[self.BROKEN] == 1
        assert len(answered) == len(set(answered))
        assert set(answered) <= set(missed) - {self.BROKEN}
        assert set(ids[:broken_at]) - stored <= set(answered)
        if through == "complete":
            assert set(answered) == set(missed) - {self.BROKEN}
        assert all(attempts[i] == 1 + (i in flaky) for i in answered)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.0)


class TestMaxInFlight:
    def test_gate_bounds_concurrent_transport_calls(self):
        import threading
        import time as _time

        lock = threading.Lock()
        state = {"current": 0, "peak": 0}

        def slow(req):
            with lock:
                state["current"] += 1
                state["peak"] = max(state["peak"], state["current"])
            _time.sleep(0.01)
            with lock:
                state["current"] -= 1
            return req.prompt

        client = CompletionClient(
            ScriptedTransport(slow), sleeper=lambda _: None, max_in_flight=2
        )
        threads = [
            threading.Thread(
                target=client.complete, args=(request_for(f"prompt {i}"),)
            )
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert state["peak"] <= 2


_STORE_SPACE = st.text(st.sampled_from(" \t\r\x0b\x0c\xa0\u2028"), max_size=2)


@st.composite
def _store_line(draw):
    """A replay-store line, valid or not, without its newline."""
    item = {
        "key_hex": draw(st.sampled_from("abc")),
        "prompt_kind": "summarization",
        "response_text": draw(st.text(max_size=6)),
    }
    line = json.dumps(item, sort_keys=True, separators=(",", ":"))
    shape = draw(
        st.sampled_from(
            ["valid", "spaced", "trailing text", "not an object", "repeated key",
             "missing key", "wrong type", "unknown kind", "cut", "blank"]
        )
    )
    if shape == "spaced":  # JSON whitespace or other white space, either side
        return draw(_STORE_SPACE) + json.dumps(item) + draw(_STORE_SPACE)
    if shape == "trailing text":
        return line + draw(st.sampled_from(["x", "}", " {}", "7"]))
    if shape == "not an object":
        return json.dumps(draw(st.one_of(st.none(), st.integers(), st.text(max_size=3),
                                         st.lists(st.integers(), max_size=2))))
    if shape == "repeated key":  # the later value wins
        return '{"key_hex":"a","response_text":"first",%s' % line[1:]
    if shape == "missing key":
        del item[draw(st.sampled_from(sorted(item)))]
        return json.dumps(item)
    if shape == "wrong type":
        item[draw(st.sampled_from(sorted(item)))] = draw(json_of_another_type(str))
        return json.dumps(item)
    if shape == "unknown kind":
        item["prompt_kind"] = draw(st.sampled_from(["", "Summarization", "summary"]))
        return json.dumps(item)
    if shape == "cut":
        return line[: draw(st.integers(0, len(line) - 1))]
    if shape == "blank":
        return draw(_STORE_SPACE)
    return line


def _reference_store_load(path, data):
    """What loading the store file `path`, which holds `data`, gives when
    each line is decoded by `json.loads` and must hold the strings key_hex
    and response_text and a PromptKind value prompt_kind: (entries, warnings
    logged), or the text of the error it raises. A blank line is skipped; a
    line that does not decode is a torn last line, dropped with a warning,
    if it has no newline, and an error if it has one. A line that decodes
    but gives no entry is an error wherever it is."""
    entries, warnings = {}, []
    *whole, last = data.split("\n")
    lines = [line + "\n" for line in whole] + ([last] if last else [])
    for lineno, line in enumerate(lines, start=1):
        try:
            item = json.loads(line)
        except ValueError as exc:
            if not line.strip():
                continue
            if line.endswith("\n"):
                return f"{path} holds a corrupt record line (line {lineno}: {exc})"
            warnings.append(
                f"{path}: dropping torn last line {lineno} ({exc}); the next record replaces it"
            )
            break
        try:
            key, kind, text = item["key_hex"], item["prompt_kind"], item["response_text"]
            if not isinstance(key, str):
                raise TypeError(f"key_hex is not a string: {key!r}")
            if kind not in [member.value for member in PromptKind]:
                raise ValueError(f"{kind!r} is not a valid PromptKind")
            if not isinstance(text, str):
                raise TypeError(f"response_text is not a string: {text!r}")
            entries[key] = text
        except (ValueError, KeyError, TypeError) as exc:
            return f"{path} holds a corrupt record line (line {lineno}: {exc})"
    return entries, warnings


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2), st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=4,
)
_LINE_EDGES = st.text(st.sampled_from(" \t\r\n\x0b\xa0\ufeff{}[],:x7\""), max_size=2)


@st.composite
def _jsonl_line(draw):
    """A JSONL line, valid or not: a JSON value, maybe cut short, between
    white space, a byte-order mark or stray JSON text."""
    text = json.dumps(draw(_JSON_VALUES), indent=draw(st.sampled_from([None, 1])))
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return draw(_LINE_EDGES) + text + draw(_LINE_EDGES)


def _decoded(decode, line):
    try:
        return "value", repr(decode(line))
    except ValueError as exc:
        return type(exc), str(exc)


@given(_jsonl_line())
def test_decode_line_is_json_loads(line):
    assert _decoded(backend.decode_line, line) == _decoded(json.loads, line)


class TestReplayStore:
    def test_record_then_replay_identical(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        live = ScriptedTransport(lambda req: f"echo:{req.prompt}")
        recorder = RecordingTransport(live, ReplayStore(store_path, create=True))
        req = request_for("what brings you in")
        recorded = recorder.send(req, cache_key(req))

        replayer = ReplayTransport(ReplayStore(store_path))
        assert replayer.send(req, cache_key(req)) == recorded
        # The live transport is not consulted again while recording a hit.
        recorder.send(req, cache_key(req))
        assert len(live.requests) == 1

    def test_replay_miss_names_key(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        ReplayStore(store_path, create=True)
        replayer = ReplayTransport(ReplayStore(store_path))
        req = request_for("never recorded")
        with pytest.raises(ReplayMissError) as excinfo:
            replayer.send(req, cache_key(req))
        assert cache_key(req) in str(excinfo.value)

    def test_mutated_prompt_misses(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        recorder = RecordingTransport(
            ScriptedTransport(lambda req: "answer"), ReplayStore(store_path, create=True)
        )
        original, tampered = request_for("original"), request_for("original tampered")
        recorder.send(original, cache_key(original))
        replayer = ReplayTransport(ReplayStore(store_path))
        with pytest.raises(ReplayMissError):
            replayer.send(tampered, cache_key(tampered))

    def test_record_mode_creates_empty_file(self, tmp_path):
        store_path = tmp_path / "fresh.jsonl"
        store = ReplayStore(store_path, create=True)
        assert store_path.exists()
        assert len(store) == 0
        assert store_path.read_text() == ""

    def test_replay_missing_file_is_error(self, tmp_path):
        with pytest.raises(ReplayStoreError):
            ReplayStore(tmp_path / "absent.jsonl")

    def test_corrupt_store_reports_line(self, tmp_path):
        store_path = tmp_path / "bad.jsonl"
        store_path.write_text('{"key_hex": "aa", "prompt_kind": "summarization", "response_text": "x"}\nnot json\n')
        with pytest.raises(ReplayStoreError, match="line 2"):
            ReplayStore(store_path)

    def test_store_file_format(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        store = ReplayStore(store_path, create=True)
        req = request_for("hi")
        store.put(cache_key(req), req.prompt_kind, "hello there")
        lines = store_path.read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert set(entry) == {"key_hex", "prompt_kind", "response_text"}
        assert entry["response_text"] == "hello there"

    def test_store_bytes_are_one_sorted_json_line_per_put(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        store = ReplayStore(store_path, create=True)
        entries = [("k1", "summarization", "plain"), ("k2", "rfe_extraction", 'é "quoted"\n')]
        for entry in entries:
            store.put(*entry)
        store.put("k1", "summarization", "plain")  # identical: not written again
        store.put("k1", "summarization", "revised")
        store.close()
        store.put("k3", "metric_extraction", "after close")
        expected = "".join(
            json.dumps(
                {"key_hex": k, "prompt_kind": kind, "response_text": text},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
            for k, kind, text in entries
            + [("k1", "summarization", "revised"), ("k3", "metric_extraction", "after close")]
        )
        assert store_path.read_bytes() == expected.encode("utf-8")
        assert ReplayStore(store_path).get("k1") == "revised"

    @given(
        entries=st.lists(
            st.tuples(
                _KEY_PIECE,
                st.sampled_from([*PromptKind, *(kind.value for kind in PromptKind)]),
                _KEY_PIECE,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_put_line_is_the_json_dumps_reference(self, entries):
        with tempfile.TemporaryDirectory() as tmp:
            store_path = Path(tmp) / "store.jsonl"
            store = ReplayStore(store_path, create=True)
            expected = []
            for key, kind, text in entries:
                if store.get(key) != text:
                    record = {"key_hex": key, "prompt_kind": PromptKind(kind).value}
                    record["response_text"] = text
                    expected.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
                store.put(key, kind, text)
            store.close()
            assert store_path.read_bytes() == "".join(
                line + "\n" for line in expected
            ).encode("ascii")

    def test_each_put_reaches_the_file_before_returning(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        store = ReplayStore(store_path, create=True)
        for i in range(3):
            store.put(f"k{i}", "summarization", f"text {i}")
            assert len(ReplayStore(store_path)) == i + 1

    def test_concurrent_puts_write_whole_lines(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        store = ReplayStore(store_path, create=True)

        def writer(w):
            for i in range(50):
                store.put(f"{w}-{i}", "summarization", f"text {w} {i} " * 20)

        threads = [threading.Thread(target=writer, args=(w,), daemon=True) for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        reloaded = ReplayStore(store_path)
        assert len(reloaded) == 400
        assert reloaded.get("7-49") == "text 7 49 " * 20

    def test_torn_last_line_is_dropped_with_a_warning(self, tmp_path, caplog):
        store_path = tmp_path / "store.jsonl"
        store_path.write_text('{"key_hex": "aa", "prompt_kind": "summarization", "response_text": "x"}\n{"key_h')
        with caplog.at_level(logging.WARNING, logger="medsum.backend"):
            store = ReplayStore(store_path)
        assert "torn last line 2" in caplog.text
        assert len(store) == 1 and store.get("aa") == "x"

    def test_corruption_before_the_last_line_still_raises(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        good = '{"key_hex": "aa", "prompt_kind": "summarization", "response_text": "x"}'
        store_path.write_text(f"{good}\n{{torn\n{good}")
        with pytest.raises(ReplayStoreError, match="line 2"):
            ReplayStore(store_path)

    def test_store_that_is_not_utf8_is_a_store_error(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        store_path.write_bytes(b'{"key_hex": "aa", "prompt_kind": "summarization", "response_text": "\xff"}\n')
        with pytest.raises(ReplayStoreError, match="not UTF-8"):
            ReplayStore(store_path)

    @settings(max_examples=25, deadline=None)
    @given(
        texts=st.lists(st.text(max_size=40), min_size=1, max_size=4),
        new_text=st.text(max_size=40),
    )
    def test_store_truncated_in_its_last_line_recovers(self, texts, new_text):
        with tempfile.TemporaryDirectory() as tmp:
            store_path = Path(tmp) / "store.jsonl"
            store = ReplayStore(store_path, create=True)
            for i, text in enumerate(texts):
                store.put(f"key{i}", "summarization", text)
            store.close()
            data = store_path.read_bytes()
            last_start = data.rstrip(b"\n").rfind(b"\n") + 1
            earlier = {f"key{i}": text for i, text in enumerate(texts[:-1])}
            for cut in range(last_start, len(data)):
                torn = data[:cut]
                store_path.write_bytes(torn)
                loaded = ReplayStore(store_path)
                # Only the whole line, short of its newline, parses.
                whole = cut == len(data) - 1
                expected = dict(earlier, **({f"key{len(texts) - 1}": texts[-1]} if whole else {}))
                assert {k: loaded.get(k) for k in expected} == expected
                assert len(loaded) == len(expected)
                assert store_path.read_bytes() == torn  # loading alone writes nothing
                loaded.put("new", "rfe_extraction", new_text)
                loaded.close()
                reloaded = ReplayStore(store_path)
                assert len(reloaded) == len(expected) + 1
                assert reloaded.get("new") == new_text
                assert {k: reloaded.get(k) for k in expected} == expected
                assert store_path.read_bytes().endswith(b"\n")

    @settings(deadline=None)
    @given(lines=st.lists(_store_line(), max_size=5), newline_at_end=st.booleans())
    def test_load_is_the_json_loads_reference(self, lines, newline_at_end):
        data = "\n".join(lines) + ("\n" if lines and newline_at_end else "")
        with tempfile.TemporaryDirectory() as tmp:
            store_path = Path(tmp) / "store.jsonl"
            store_path.write_bytes(data.encode("utf-8"))
            expected = _reference_store_load(store_path, data)
            warnings = []
            handler = logging.Handler()
            handler.emit = lambda record: warnings.append(record.getMessage())
            logging.getLogger("medsum.backend").addHandler(handler)
            try:
                store = ReplayStore(store_path)
            except ReplayStoreError as exc:
                assert str(exc) == expected
                return
            finally:
                logging.getLogger("medsum.backend").removeHandler(handler)
            assert not isinstance(expected, str), expected
            entries, expected_warnings = expected
            assert len(store) == len(entries)
            assert {key: store.get(key) for key in entries} == entries
            assert warnings == expected_warnings

    def test_recording_transport_dedups_identical_writes(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        store = ReplayStore(store_path, create=True)
        transport = RecordingTransport(ScriptedTransport(lambda req: "same"), store)
        req = request_for("hi")
        transport.send(req, cache_key(req))
        transport.send(req, cache_key(req))
        assert len(store_path.read_text().splitlines()) == 1


class TestHashEmbedder:
    def test_deterministic(self):
        embedder = HashEmbedder(dimension=32)
        a = embedder.embed_many(["identical text"])[0]
        b = embedder.embed_many(["identical text"])[0]
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        embedder = HashEmbedder(dimension=32)
        for text in ("a", "b", "some much longer text with words"):
            assert abs(np.linalg.norm(embedder.embed_many([text])[0]) - 1.0) < 1e-9

    def test_cosine_in_range(self):
        embedder = HashEmbedder(dimension=16)
        u = embedder.embed_many(["first text"])[0]
        v = embedder.embed_many(["second text"])[0]
        cosine = float(u @ v)
        assert -1.0 <= cosine <= 1.0

    def test_fixed_dimension(self):
        assert HashEmbedder(dimension=8).embed_many(["x"])[0].shape == (8,)

    def test_empty_text_is_error(self):
        with pytest.raises(ValueError):
            HashEmbedder().embed_many([""])[0]

    def test_empty_batch_has_no_rows(self):
        assert HashEmbedder(dimension=8).embed_many([]).shape == (0, 8)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_empty_text_anywhere_in_a_batch_is_error(self, position):
        texts = ["a", "b"]
        texts.insert(position, "")
        with pytest.raises(ValueError):
            HashEmbedder().embed_many(texts)

    @settings(max_examples=200, deadline=None)
    @example(seeds=[0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @given(seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=16))
    def test_batched_seeding_equals_pcg64(self, seeds):
        assert backend._pcg64_states(seeds) == [np.random.PCG64(seed).state for seed in seeds]

    @settings(max_examples=200, deadline=None)
    @example(texts=["ß", "日本語 text", "ß"], dimension=1)
    @given(
        # Drawn from a few texts, so a batch often repeats one.
        texts=st.lists(st.text(min_size=1), min_size=1, max_size=4).flatmap(
            lambda texts: st.lists(st.sampled_from(texts), max_size=10)
        ),
        dimension=st.integers(min_value=1, max_value=512),
    )
    def test_bytes_equal_the_draw_over_its_linalg_norm(self, texts, dimension):
        expected = []
        for text in texts:
            seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
            draw = np.random.Generator(np.random.PCG64(seed)).standard_normal(dimension)
            expected.append((draw / float(np.linalg.norm(draw))).tobytes())
        rows = HashEmbedder(dimension).embed_many(texts)
        assert rows.shape == (len(texts), dimension)
        assert rows.tobytes() == b"".join(expected)

    def test_concurrent_batches_equal_their_serial_bytes(self):
        batches = [[f"thread {t} text {i}" for i in range(300)] for t in range(8)]
        serial = [[HashEmbedder(64).embed_many(batch).tobytes()] * 5 for batch in batches]
        embedder = HashEmbedder(64)
        barrier = threading.Barrier(8)
        results = [None] * 8

        def caller(t):
            barrier.wait(timeout=5)
            results[t] = [embedder.embed_many(batches[t]).tobytes() for _ in range(5)]

        threads = [threading.Thread(target=caller, args=(t,), daemon=True) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial


class TestHTTPTransport:
    """What HTTPTransport sends, and what it makes of one answer, against
    the loopback endpoint."""

    @pytest.fixture
    def transport(self, loopback_endpoint):
        transport = HTTPTransport(loopback_endpoint.url, model="m1")
        yield transport
        transport.close()

    def test_posts_completion_payload(self, loopback_endpoint, transport):
        loopback_endpoint.script.append((200, {"choices": [{"text": "completed"}]}))
        req = request_for("the prompt", PromptKind.RFE_EXTRACTION)
        assert transport.send(req) == "completed"
        _, sent = loopback_endpoint.received[0]
        assert sent == {
            "model": "m1",
            "prompt": "the prompt",
            "temperature": 0.1,
            "max_tokens": 200,
            "top_p": 1.0,
        }

    def test_rate_limit_is_transient(self, loopback_endpoint, transport):
        loopback_endpoint.script.append((429, ""))
        with pytest.raises(TransientBackendError):
            transport.send(request_for())

    @pytest.mark.parametrize("text", [None, 5, {}])
    def test_completion_text_that_is_not_a_string_is_protocol_error(
        self, loopback_endpoint, transport, text
    ):
        loopback_endpoint.script.append((200, {"choices": [{"text": text}]}))
        with pytest.raises(BackendProtocolError) as refused:
            transport.send(request_for())
        assert str(refused.value) == (
            f"malformed completion response: completion text is not a string: {text!r}"
        )

    def test_client_error_is_protocol_error(self, loopback_endpoint, transport):
        loopback_endpoint.script.append((400, "bad"))
        with pytest.raises(BackendProtocolError):
            transport.send(request_for())

    @pytest.mark.parametrize("key", ["sk-test", "", None])
    def test_api_key_is_sent_as_a_bearer_token(self, loopback_endpoint, monkeypatch, key):
        if key is None:
            monkeypatch.delenv(backend.API_KEY_ENV, raising=False)
        else:
            monkeypatch.setenv(backend.API_KEY_ENV, key)
        transport = HTTPTransport(loopback_endpoint.url)  # the key is read here, once
        monkeypatch.setenv(backend.API_KEY_ENV, "sk-changed")
        try:
            assert transport.send(request_for("keyed")) == "echo: keyed"
        finally:
            transport.close()
        headers, _ = loopback_endpoint.received[0]
        assert headers.get("Authorization") == (f"Bearer {key}" if key else None)

    @pytest.mark.parametrize("key", ["\u20ac", "sk-test\r\nX-Injected: 1", "sk-test\n", "sk\x7f"])
    def test_api_key_a_header_cannot_carry_is_refused_at_construction(
        self, loopback_endpoint, monkeypatch, key
    ):
        """Outside Latin-1, or an ASCII control character other than tab:
        a ValueError naming the variable, before any connection is made."""
        monkeypatch.setenv(backend.API_KEY_ENV, key)
        with pytest.raises(ValueError) as refused:
            HTTPTransport(loopback_endpoint.url)
        assert str(refused.value) == (
            f"${backend.API_KEY_ENV} holds a character an HTTP header cannot carry"
        )
        assert loopback_endpoint.received == [] and loopback_endpoint.connections == 0

    def test_gzip_body_is_decoded(self, loopback_endpoint, transport):
        body = gzip.compress(json.dumps({"choices": [{"text": "unzipped"}]}).encode())
        loopback_endpoint.script.append((200, (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Encoding: gzip\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )))
        assert transport.send(request_for()) == "unzipped"
        headers, _ = loopback_endpoint.received[0]
        assert headers["Accept-Encoding"] == "gzip"

    def test_kept_alive_connection_the_server_hung_up_is_reconnected(
        self, loopback_endpoint, transport
    ):
        # An answer that leaves the connection looking kept alive; the
        # endpoint then hangs up, as a server closing an idle connection does.
        body = json.dumps({"choices": [{"text": "first"}]}).encode()
        loopback_endpoint.script.append((200, (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )))
        assert transport.send(request_for("one")) == "first"
        assert transport.send(request_for("two")) == "echo: two"
        assert [sent["prompt"] for _, sent in loopback_endpoint.received] == ["one", "two"]
        assert loopback_endpoint.connections == 2

    @pytest.mark.parametrize(
        "endpoint, why",
        [
            ("example.invalid/v1", "not a printable-ASCII http or https URL"),
            ("ftp://x/y", "not a printable-ASCII http or https URL"),
            ("http:///v1", "not a printable-ASCII http or https URL"),
            ("http://x/v1 completions", "not a printable-ASCII http or https URL"),
            ("http://x/v\u00e9", "not a printable-ASCII http or https URL"),
            ("http://[::1", "Invalid IPv6 URL"),
            ("http://x:port/v1", "Port could not be cast to integer value"),
        ],
    )
    def test_endpoint_that_is_not_an_http_url_is_refused(self, endpoint, why):
        with pytest.raises(ValueError, match=why):
            HTTPTransport(endpoint)


class TestHTTPTransportOverLoopback:
    """HTTPTransport against a real HTTP/1.1 server on 127.0.0.1."""

    @pytest.mark.parametrize("status", [429, 500, 502, 503])
    def test_rate_limit_and_server_errors_are_transient(self, loopback_endpoint, status):
        loopback_endpoint.script.append((status, "try later"))
        transport = HTTPTransport(loopback_endpoint.url)
        try:
            with pytest.raises(TransientBackendError, match=f"HTTP {status}"):
                transport.send(request_for())
        finally:
            transport.close()

    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_other_client_errors_are_protocol_errors(self, loopback_endpoint, status):
        loopback_endpoint.script.append((status, "refused"))
        transport = HTTPTransport(loopback_endpoint.url)
        try:
            with pytest.raises(BackendProtocolError, match=f"HTTP {status}: refused"):
                transport.send(request_for())
        finally:
            transport.close()

    @pytest.mark.parametrize(
        "body",
        ["not json", {}, {"choices": []}, {"choices": [{}]}, {"choices": [{"text": 5}]}],
    )
    def test_body_without_a_completion_text_is_a_protocol_error(self, loopback_endpoint, body):
        loopback_endpoint.script.append((200, body))
        transport = HTTPTransport(loopback_endpoint.url)
        try:
            with pytest.raises(BackendProtocolError, match="malformed completion response"):
                transport.send(request_for())
        finally:
            transport.close()

    def test_timeout_shorter_than_the_answer_is_transient(self, loopback_endpoint):
        loopback_endpoint.delay = 0.3
        transport = HTTPTransport(loopback_endpoint.url, timeout=0.05)
        try:
            with pytest.raises(TransientBackendError):
                transport.send(request_for())
        finally:
            transport.close()

    @pytest.mark.parametrize(
        "raw",
        [
            # A chunked body whose connection drops inside its first chunk.
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n40\r\n{\"choices\": [",
            # A gzip body that is not gzip.
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Encoding: gzip\r\nContent-Length: 12\r\n\r\nnot gzipped!",
        ],
        ids=["truncated-chunked", "undecodable-gzip"],
    )
    def test_body_cut_off_or_garbled_in_transit_is_transient(self, loopback_endpoint, raw):
        loopback_endpoint.script.append((200, raw))
        transport = HTTPTransport(loopback_endpoint.url)
        try:
            with pytest.raises(TransientBackendError):
                transport.send(request_for("cut"))
            # So the client retries it, and the next answer comes through.
            loopback_endpoint.script.append((200, raw))
            client = CompletionClient(transport, sleeper=lambda _: None)
            assert client.complete(request_for("cut")) == "echo: cut"
        finally:
            transport.close()

    def test_two_fan_out_wide_gathers_reuse_one_pool(self, loopback_endpoint):
        # Each answer waits, so the calls of one gather overlap.
        loopback_endpoint.delay = 0.05
        client = CompletionClient(HTTPTransport(loopback_endpoint.url))
        opened = []
        try:
            for burst in range(2):
                prompts = [f"burst {burst} call {i}" for i in range(backend.FAN_OUT_WIDTH)]
                texts = client.gather(keyed(*(request_for(p) for p in prompts)))
                assert list(texts) == [f"echo: {p}" for p in prompts]
                opened.append(loopback_endpoint.connections)
        finally:
            client.close()
        # The second burst runs on the fan-out threads' kept-alive connections.
        assert 0 < opened[0] == opened[1] <= backend.FAN_OUT_WIDTH

    def test_close_hangs_up_every_pooled_connection(self, loopback_endpoint):
        loopback_endpoint.delay = 0.02
        transport = HTTPTransport(loopback_endpoint.url)
        client = CompletionClient(transport)
        texts = list(client.gather(keyed(*(request_for(f"call {i}") for i in range(4)))))
        assert texts == [f"echo: call {i}" for i in range(4)]
        # Keep-alive: the server still holds every connection open.
        assert loopback_endpoint.closed == 0 < loopback_endpoint.connections
        client.close()
        assert loopback_endpoint.wait_until_all_closed()

    def test_concurrent_senders_each_keep_one_connection_that_close_hangs_up(
        self, loopback_endpoint
    ):
        """More sending threads than cores, switching often: no connection
        is shared, and `close`, called once every thread has exited, hangs
        up each one."""
        transport = HTTPTransport(loopback_endpoint.url)
        texts: dict[int, list[str]] = {}

        def sender(n):
            texts[n] = [transport.send(request_for(f"{n}.{i}")) for i in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sender, args=(n,)) for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert texts == {n: [f"echo: {n}.{i}" for i in range(5)] for n in range(8)}
        assert loopback_endpoint.connections <= 8
        transport.close()
        assert loopback_endpoint.wait_until_all_closed()

    def test_client_close_closes_the_transport_and_its_store(self, loopback_endpoint, tmp_path):
        store = ReplayStore(tmp_path / "store.jsonl", create=True)
        client = CompletionClient(RecordingTransport(HTTPTransport(loopback_endpoint.url), store))
        assert client.complete(request_for("recorded")) == "echo: recorded"
        client.close()
        assert loopback_endpoint.wait_until_all_closed()
        assert store._log._fh is None
        # A closed client still serves what its store holds.
        assert client.complete(request_for("recorded")) == "echo: recorded"
        assert loopback_endpoint.connections == 1
