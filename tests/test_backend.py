import hashlib
import json
import logging
import sys
import tempfile
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medsum.backend as backend
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
        assert client.complete(req) == client.submit(req, cache_key(req)).result() == "first"
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

    def test_hit_returns_a_done_result_without_a_future(self, tmp_path):
        store = ReplayStore(tmp_path / "store.jsonl", create=True)
        req = request_for("stored")
        store.put(cache_key(req), req.prompt_kind, "from the store")
        client = CompletionClient(ReplayTransport(store))
        calls = []
        complete = client.complete
        client.complete = lambda *args: calls.append(threading.current_thread()) or complete(*args)

        result = client.submit(req, cache_key(req))
        assert calls == [threading.current_thread()]
        assert not isinstance(result, Future)
        assert result.done() and not result.cancel()
        assert result.result() == result.result(timeout=1) == "from the store"
        assert result.exception() is None

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
