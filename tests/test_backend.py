import json
import sys
import threading
import time

import numpy as np
import pytest

from medsum.backend import (
    BackendProtocolError,
    CompletionClient,
    CompletionParams,
    CompletionRequest,
    HashEmbedder,
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
    record_replay_store,
)
from medsum.model import PromptKind

from conftest import make_client


def request_for(prompt="hello", kind=PromptKind.SUMMARIZATION, params=None):
    return CompletionRequest.build(kind, prompt, params)


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
        import hashlib

        assert cache_key(req) == hashlib.sha256(expected_payload.encode()).hexdigest()

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


class TestSubmit:
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

        for req, text in ((stored, "from the store"), (cached, "echo:cached")):
            future = client.submit(req, cache_key(req))
            assert future.done() and future.result() == text
        assert threads == []
        assert client.submit(fresh, cache_key(fresh)).result(timeout=5) == "echo:fresh"
        assert threads and threads[0] is not threading.current_thread()

    def test_replay_transport_peeks_its_store(self, tmp_path):
        store = ReplayStore(tmp_path / "store.jsonl", create=True)
        req = request_for("recorded")
        store.put(cache_key(req), req.prompt_kind, "answer")
        replay = ReplayTransport(store)
        assert replay.peek(cache_key(req)) == "answer"
        assert replay.peek(cache_key(request_for("other"))) is None
        future = CompletionClient(replay).submit(req, cache_key(req))
        assert future.done() and future.result() == "answer"

    def test_transport_error_lands_in_the_future(self):
        def broken(req):
            raise BackendProtocolError("bad request")

        client, _ = make_client(broken)
        future = client.submit(request_for(), cache_key(request_for()))
        with pytest.raises(BackendProtocolError):
            future.result(timeout=5)


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


class TestReplayStore:
    def test_record_then_replay_identical(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        live = ScriptedTransport(lambda req: f"echo:{req.prompt}")
        recorder = record_replay_store(store_path, "record", live=live)
        req = request_for("what brings you in")
        recorded = recorder.send(req)

        replayer = record_replay_store(store_path, "replay")
        assert replayer.send(req) == recorded
        # The live transport is not consulted again while recording a hit.
        recorder.send(req)
        assert len(live.requests) == 1

    def test_replay_miss_names_key(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        ReplayStore(store_path, create=True)
        replayer = ReplayTransport(ReplayStore(store_path))
        req = request_for("never recorded")
        with pytest.raises(ReplayMissError) as excinfo:
            replayer.send(req)
        assert cache_key(req) in str(excinfo.value)

    def test_mutated_prompt_misses(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        recorder = record_replay_store(
            store_path, "record", live=ScriptedTransport(lambda req: "answer")
        )
        recorder.send(request_for("original"))
        replayer = record_replay_store(store_path, "replay")
        with pytest.raises(ReplayMissError):
            replayer.send(request_for("original tampered"))

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

    def test_recording_transport_dedups_identical_writes(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        store = ReplayStore(store_path, create=True)
        transport = RecordingTransport(ScriptedTransport(lambda req: "same"), store)
        req = request_for("hi")
        transport.send(req)
        transport.send(req)
        assert len(store_path.read_text().splitlines()) == 1


class TestHashEmbedder:
    def test_deterministic(self):
        embedder = HashEmbedder(dimension=32)
        a = embedder.embed("identical text")
        b = embedder.embed("identical text")
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        embedder = HashEmbedder(dimension=32)
        for text in ("a", "b", "some much longer text with words"):
            assert abs(np.linalg.norm(embedder.embed(text)) - 1.0) < 1e-9

    def test_cosine_in_range(self):
        embedder = HashEmbedder(dimension=16)
        u = embedder.embed("first text")
        v = embedder.embed("second text")
        cosine = float(u @ v)
        assert -1.0 <= cosine <= 1.0

    def test_fixed_dimension(self):
        assert HashEmbedder(dimension=8).embed("x").shape == (8,)

    def test_empty_text_is_error(self):
        with pytest.raises(ValueError):
            HashEmbedder().embed("")


class TestHTTPTransport:
    class FakeResponse:
        def __init__(self, status_code, payload=None, text=""):
            self.status_code = status_code
            self._payload = payload
            self.text = text

        def json(self):
            if self._payload is None:
                raise ValueError("no json")
            return self._payload

    class FakeSession:
        def __init__(self, responses):
            self.responses = list(responses)
            self.posts = []

        def post(self, url, json=None, headers=None, timeout=None):
            self.posts.append({"url": url, "json": json, "headers": headers})
            return self.responses.pop(0)

    def test_posts_completion_payload(self):
        from medsum.backend import HTTPTransport

        session = self.FakeSession(
            [self.FakeResponse(200, {"choices": [{"text": "completed"}]})]
        )
        transport = HTTPTransport("http://example/v1/completions", model="m1", session=session)
        req = request_for("the prompt", PromptKind.RFE_EXTRACTION)
        assert transport.send(req) == "completed"
        sent = session.posts[0]["json"]
        assert sent == {
            "model": "m1",
            "prompt": "the prompt",
            "temperature": 0.1,
            "max_tokens": 200,
            "top_p": 1.0,
        }

    def test_rate_limit_is_transient(self):
        from medsum.backend import HTTPTransport

        session = self.FakeSession([self.FakeResponse(429)])
        transport = HTTPTransport("http://example", session=session)
        with pytest.raises(TransientBackendError):
            transport.send(request_for())

    def test_client_error_is_protocol_error(self):
        from medsum.backend import HTTPTransport

        session = self.FakeSession([self.FakeResponse(400, text="bad")])
        transport = HTTPTransport("http://example", session=session)
        with pytest.raises(BackendProtocolError):
            transport.send(request_for())
