"""Gateway to completion and embedding providers.

A completion request travels through one client that adds content-addressed
caching, exponential-backoff retries for transient failures, and an optional
in-flight throttle. The transport underneath can be a live HTTP endpoint, a
recorded replay store (for bit-deterministic offline runs), or a scripted
test double.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import IO, Any, Callable, Protocol

import numpy as np

from .model import PromptKind

logger = logging.getLogger(__name__)

__all__ = [
    "BackendError",
    "TransientBackendError",
    "BackendProtocolError",
    "RetryExhaustedError",
    "ReplayMissError",
    "ReplayStoreError",
    "CompletionParams",
    "CompletionRequest",
    "RetryPolicy",
    "default_params",
    "cache_key",
    "Transport",
    "ScriptedTransport",
    "HTTPTransport",
    "ReplayStore",
    "ReplayTransport",
    "RecordingTransport",
    "record_replay_store",
    "CompletionClient",
    "EmbeddingGateway",
    "HashEmbedder",
]

API_KEY_ENV = "MEDSUM_API_KEY"


class BackendError(Exception):
    """Base class for completion/embedding gateway failures."""


class TransientBackendError(BackendError):
    """Rate-limit or 5xx-class failure; the client will retry these."""


class BackendProtocolError(BackendError):
    """Non-transient protocol failure; retrying will not help."""


class RetryExhaustedError(BackendError):
    """All retry attempts failed with transient errors."""

    def __init__(self, attempts: int, last_error: Exception):
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(f"gave up after {attempts} attempts: {last_error}")


class ReplayMissError(BackendError):
    """Strict replay had no stored response for the request's cache key."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"replay store has no response for key {key}")


class ReplayStoreError(BackendError):
    """The replay store file is missing or corrupt."""


@dataclass(frozen=True)
class CompletionParams:
    """Sampling parameters attached to one completion request."""

    temperature: float
    max_tokens: int
    top_p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature {self.temperature} outside [0, 2]")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p {self.top_p} outside (0, 1]")
        # The sorted, compact JSON of as_dict(), built once for cache_key.
        object.__setattr__(
            self,
            "_json",
            json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":")),
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "top_p": self.top_p,
        }


# Request defaults per prompt kind. The extraction and resolver prompts run
# near-greedy; summarization sees highly variable inputs and gets a higher
# temperature; both metric prompts run at 0 for reproducible scoring.
DEFAULT_COMPLETION_PARAMS: dict[PromptKind, CompletionParams] = {
    PromptKind.RFE_EXTRACTION: CompletionParams(0.1, 200, 1.0),
    PromptKind.DIALOGUE_EXTRACTION: CompletionParams(0.1, 200, 1.0),
    PromptKind.UNKNOWN_RESOLVER: CompletionParams(0.1, 200, 1.0),
    PromptKind.SUMMARIZATION: CompletionParams(0.7, 512, 1.0),
    PromptKind.METRIC_EXTRACTION: CompletionParams(0.0, 200, 1.0),
    PromptKind.METRIC_VERIFICATION: CompletionParams(0.0, 200, 1.0),
}


def default_params(kind: PromptKind | str) -> CompletionParams:
    """Default sampling parameters for a prompt kind."""
    return DEFAULT_COMPLETION_PARAMS[PromptKind(kind)]


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    params: CompletionParams
    prompt_kind: PromptKind

    def __post_init__(self) -> None:
        if type(self.prompt_kind) is not PromptKind:
            object.__setattr__(self, "prompt_kind", PromptKind(self.prompt_kind))
        if not self.prompt:
            raise ValueError("prompt is empty")

    @classmethod
    def build(
        cls,
        kind: PromptKind | str,
        prompt: str,
        params: CompletionParams | None = None,
    ) -> "CompletionRequest":
        kind = PromptKind(kind)
        return cls(prompt=prompt, params=params or default_params(kind), prompt_kind=kind)


# The end of the hashed text for each prompt kind; see cache_key.
_KIND_TAIL = {kind: ',"prompt_kind":' + _json_string(kind.value) + "}" for kind in PromptKind}


def cache_key(req: CompletionRequest) -> str:
    """Content hash over (prompt_kind, prompt, params); stable across runs.

    The hashed text is json.dumps({"prompt_kind": ..., "prompt": ...,
    "params": params.as_dict()}, sort_keys=True, separators=(",", ":")),
    spliced from its pieces: the params' JSON is built once per params
    object, and the prompt is escaped by the same ASCII-only string encoder
    json.dumps uses, so the bytes are the same.
    """
    payload = (
        '{"params":'
        + req.params._json
        + ',"prompt":'
        + _json_string(req.prompt)
        + _KIND_TAIL[req.prompt_kind]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: the n-th retry (1-based) waits
    base_delay * multiplier**(n-1), scaled by a uniform +/- jitter fraction.
    """

    base_delay: float = 1.0
    multiplier: float = 2.0
    max_attempts: int = 6
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")
        if self.multiplier <= 1.0:
            raise ValueError("multiplier must be > 1")
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction outside [0, 1)")

    def delay(self, retry_index: int, rng: random.Random | None = None) -> float:
        """Delay before the retry with 0-based index `retry_index`."""
        delay = self.base_delay * self.multiplier**retry_index
        if self.jitter_fraction and rng is not None:
            delay *= 1.0 + rng.uniform(-self.jitter_fraction, self.jitter_fraction)
        return delay


class Transport(Protocol):
    """Raw completion call, no retry or caching.

    A transport backed by a store may also offer `peek(key) -> str | None`,
    the stored response for a cache key without sending anything. Such a
    transport is its client's only cache: its `send(req, key=None)` takes
    the request's cache key when the caller has it, and keeps every text it
    returns where `peek` finds it.
    """

    def send(self, req: CompletionRequest) -> str: ...


class ScriptedTransport:
    """Test/demo transport driven by a plain function of the request.

    The function may raise TransientBackendError to simulate flaky calls.
    Every request handled is recorded on `.requests`.
    """

    def __init__(self, respond: Callable[[CompletionRequest], str]):
        self._respond = respond
        self.requests: list[CompletionRequest] = []

    def send(self, req: CompletionRequest) -> str:
        self.requests.append(req)
        return self._respond(req)


class HTTPTransport:
    """Completion-style HTTP JSON endpoint.

    Posts {model, prompt, temperature, max_tokens, top_p} and reads
    choices[0].text from the response, the wire shape of widely deployed
    completion servers. The API key comes from the MEDSUM_API_KEY
    environment variable.
    """

    def __init__(
        self,
        endpoint: str,
        model: str = "completion-model",
        timeout: float = 120.0,
        session: Any | None = None,
    ):
        import requests

        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self._session = session or requests.Session()

    def send(self, req: CompletionRequest) -> str:
        import requests

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.model,
            "prompt": req.prompt,
            "temperature": req.params.temperature,
            "max_tokens": req.params.max_tokens,
            "top_p": req.params.top_p,
        }
        try:
            resp = self._session.post(
                self.endpoint, json=payload, headers=headers, timeout=self.timeout
            )
        except (requests.ConnectionError, requests.Timeout) as exc:
            raise TransientBackendError(str(exc)) from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransientBackendError(f"HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise BackendProtocolError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            return resp.json()["choices"][0]["text"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendProtocolError(f"malformed completion response: {exc}") from exc


_json_decoder = json.JSONDecoder()


class ReplayStore:
    """Persistent map from cache key to completion text.

    File format: one JSON object per line with keys key_hex, prompt_kind,
    response_text. On load, a later line for the same key wins. Appends are
    serialized through a lock, so a store may back concurrent recording;
    each is written and flushed to the OS before `put` returns.

    A last line with no newline after it is what a run killed mid-append
    leaves. If it does not parse, load drops it with a warning and the
    first `put` cuts it off the file; if it does, the first `put` ends it
    with a newline. Corruption anywhere else is a ReplayStoreError.
    """

    def __init__(self, path: str | Path, create: bool = False):
        self.path = Path(path)
        self._entries: dict[str, str] = {}
        self._lock = threading.Lock()
        self._append: IO[str] | None = None
        self._append_finalizer: weakref.finalize | None = None
        # Set by _load for the first put: where a torn last line starts,
        # or that the last line parsed but has no newline.
        self._cut_at: int | None = None
        self._needs_newline = False
        if self.path.exists():
            self._load()
        elif create:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.touch()
        else:
            raise ReplayStoreError(f"replay store not found: {self.path}")

    def _load(self) -> None:
        decode = _json_decoder.decode  # json.loads without its per-call checks
        line = ""
        try:
            with self.path.open("r", encoding="utf-8", newline="\n") as fh:
                for lineno, line in enumerate(fh, start=1):
                    try:
                        item = decode(line)
                        self._entries[item["key_hex"]] = item["response_text"]
                    except (ValueError, KeyError, TypeError) as exc:
                        if not line.strip():
                            continue
                        if line.endswith("\n"):
                            raise ReplayStoreError(
                                f"{self.path}: corrupt entry at line {lineno}: {exc}"
                            ) from exc
                        logger.warning(
                            "%s: dropping torn last line %d (%s); the next record replaces it",
                            self.path,
                            lineno,
                            exc,
                        )
                        size = os.fstat(fh.fileno()).st_size
                        self._cut_at = size - len(line.encode("utf-8"))
                        return
        except UnicodeDecodeError as exc:
            raise ReplayStoreError(f"{self.path}: not UTF-8 text: {exc}") from exc
        self._needs_newline = bool(line) and not line.endswith("\n")

    def get(self, key: str) -> str | None:
        return self._entries.get(key)

    def put(self, key: str, prompt_kind: PromptKind | str, response_text: str) -> None:
        line = (
            json.dumps(
                {
                    "key_hex": key,
                    "prompt_kind": PromptKind(prompt_kind).value,
                    "response_text": response_text,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
        with self._lock:
            if self._entries.get(key) == response_text:
                return
            if self._append is None:
                self._open_append()
            self._append.write(line)
            self._append.flush()
            self._entries[key] = response_text

    def _open_append(self) -> None:
        """Open the append handle, first ending or cutting off a torn tail."""
        if self._cut_at is not None:
            os.truncate(self.path, self._cut_at)
        fh = self.path.open("a", encoding="utf-8")
        if self._needs_newline:
            fh.write("\n")
        self._cut_at, self._needs_newline = None, False
        self._append = fh
        # Closes the handle on close() or when the store is collected.
        self._append_finalizer = weakref.finalize(self, fh.close)

    def close(self) -> None:
        """Close the append handle, if a put opened one; a later put reopens it."""
        with self._lock:
            if self._append_finalizer is not None:
                self._append_finalizer()
            self._append = self._append_finalizer = None

    def __len__(self) -> int:
        return len(self._entries)


class ReplayTransport:
    """Strict replay: serve stored responses, error on any miss."""

    def __init__(self, store: ReplayStore):
        self.store = store

    def send(self, req: CompletionRequest, key: str | None = None) -> str:
        key = key or cache_key(req)
        text = self.store.get(key)
        if text is None:
            raise ReplayMissError(key)
        return text

    def peek(self, key: str) -> str | None:
        return self.store.get(key)


class RecordingTransport:
    """Record-through transport: serve from the store when possible,
    otherwise delegate to the inner transport and persist the response.
    """

    def __init__(self, inner: Transport, store: ReplayStore):
        self.inner = inner
        self.store = store

    def send(self, req: CompletionRequest, key: str | None = None) -> str:
        key = key or cache_key(req)
        stored = self.store.get(key)
        if stored is not None:
            return stored
        text = self.inner.send(req)
        self.store.put(key, req.prompt_kind, text)
        return text

    def peek(self, key: str) -> str | None:
        return self.store.get(key)


def record_replay_store(
    path: str | Path, mode: str, live: Transport | None = None
) -> Transport:
    """Open a replay store as a transport.

    mode="replay" serves stored responses byte-identically and errors on a
    miss; mode="record" needs a live transport to delegate misses to and
    persists every new response (the file is created if absent).
    """
    if mode == "replay":
        return ReplayTransport(ReplayStore(path, create=False))
    if mode == "record":
        if live is None:
            raise ValueError("record mode needs a live transport")
        return RecordingTransport(live, ReplayStore(path, create=True))
    raise ValueError(f"unknown replay mode: {mode!r}")


# Width of the fan-out executor when max_in_flight is not set. On the
# record-latency benchmark (two encounters of 9 to 19 extraction requests at
# a time) 16 threads gave the same p50 as 32, with peak RSS 46.1 MB against
# 50.5 MB: more threads spread the heap over more malloc arenas.
FAN_OUT_WIDTH = 16

_fan_out_executors: dict[int, ThreadPoolExecutor] = {}
_fan_out_lock = threading.Lock()


def _fan_out_executor(width: int) -> ThreadPoolExecutor:
    """The process's fan-out executor of one width, created on first use.

    Clients of one width share it instead of each owning one. A program
    that builds a client per run would otherwise start and stop a set of
    threads per run, and glibc hands the malloc arenas of exited threads to
    the next threads started, so the callers' heap spreads over more and
    more arenas: on the record-latency benchmark (a client per round) peak
    RSS rose 7.7% with per-client executors and 3% with shared ones.
    """
    with _fan_out_lock:
        executor = _fan_out_executors.get(width)
        if executor is None:
            executor = _fan_out_executors[width] = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix=f"medsum-fan-out-{width}"
            )
        return executor


class _Completed:
    """The outcome of a call that finished before it was handed out, read
    like a done Future: `done`, `result`, `exception` and `cancel`."""

    __slots__ = ("_text", "_error")

    def __init__(self, text: str | None = None, error: BaseException | None = None):
        self._text = text
        self._error = error

    def done(self) -> bool:
        return True

    def cancel(self) -> bool:
        return False

    def result(self, timeout: float | None = None) -> str | None:
        if self._error is not None:
            raise self._error
        return self._text

    def exception(self, timeout: float | None = None) -> BaseException | None:
        return self._error


class CompletionClient:
    """Caching, retrying front door for completion calls.

    Safe under arbitrary concurrent callers. The cache is content-addressed
    over (prompt_kind, prompt, params) and stores raw completion text, so
    parser changes never invalidate it. A transport with a store (one that
    offers `peek`) is the whole cache: a stored text is served without
    calling `send`, and `send` stores what it fetches. Over any other
    transport the client keeps the texts in memory. Each call computes its
    cache key once, unless the caller passes it, and looks it up once.
    Concurrent calls with one key share a single transport call
    (single-flight): all get its text, or all get its error. `max_in_flight`
    bounds concurrent transport calls when set.

    `submit` fans independent requests out to a long-lived executor,
    created on first use, `max_in_flight` wide when that is set and
    FAN_OUT_WIDTH wide otherwise, and shared by the clients of that width.
    """

    def __init__(
        self,
        transport: Transport,
        retry_policy: RetryPolicy | None = None,
        sleeper: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
        max_in_flight: int | None = None,
    ):
        self._transport = transport
        self._policy = retry_policy or RetryPolicy()
        self._sleep = sleeper
        self._rng = rng if rng is not None else random.Random()
        peek = getattr(transport, "peek", None)
        self._memory: dict[str, str] | None = None if peek else {}
        self._lookup: Callable[[str], str | None] = peek or self._memory.get
        self._flights: dict[str, Future[str] | None] = {}
        self._lock = threading.Lock()
        self._gate = (
            threading.BoundedSemaphore(max_in_flight) if max_in_flight else None
        )
        self._fan_out_width = max_in_flight or FAN_OUT_WIDTH

    def complete(self, req: CompletionRequest, key: str | None = None) -> str:
        """The completion text for `req`. `key` is `cache_key(req)`, when the
        caller has already computed it."""
        key = key or cache_key(req)
        text = self._lookup(key)
        if text is not None:
            return text
        with self._lock:
            leader = key not in self._flights
            if leader:
                # The flight that fetched this text may have landed since
                # the lookup above.
                text = self._lookup(key)
                if text is not None:
                    return text
                # A flight gets a future only once a second caller needs
                # something to wait on.
                self._flights[key] = None
            else:
                flight = self._flights[key]
                if flight is None:
                    flight = self._flights[key] = Future()
        if not leader:
            return flight.result()
        try:
            text = self._send_with_retries(req, key)
        except BaseException as exc:
            with self._lock:
                flight = self._flights.pop(key)
            if flight is not None:
                flight.set_exception(exc)
            raise
        with self._lock:
            if self._memory is not None:
                self._memory[key] = text
            flight = self._flights.pop(key)
        if flight is not None:
            flight.set_result(text)
        return text

    def submit(self, req: CompletionRequest, key: str) -> Future[str] | _Completed:
        """Start `complete(req, key)` and return its future.

        A request that the cache can serve completes on the calling thread
        before this returns, and comes back as an already-done result with
        the reading methods of a Future; any other runs on the fan-out
        executor. Never call this from a task running on that executor: a
        worker waiting on its own pool can deadlock it.
        """
        if self._lookup(key) is None:
            executor = _fan_out_executor(self._fan_out_width)
            return executor.submit(self.complete, req, key)
        try:
            return _Completed(self.complete(req, key))
        except Exception as exc:
            return _Completed(error=exc)

    def _send_with_retries(self, req: CompletionRequest, key: str) -> str:
        for attempt in range(1, self._policy.max_attempts + 1):
            try:
                return self._send(req, key)
            except TransientBackendError as exc:
                if attempt == self._policy.max_attempts:
                    raise RetryExhaustedError(attempt, exc) from exc
                delay = self._policy.delay(attempt - 1, self._rng)
                logger.debug(
                    "transient failure on attempt %d (%s); retrying in %.3fs",
                    attempt,
                    exc,
                    delay,
                )
                self._sleep(delay)
        raise AssertionError("unreachable: max_attempts is positive")

    def _send(self, req: CompletionRequest, key: str) -> str:
        # A store-backed transport keeps the text under the client's key.
        args = (req,) if self._memory is not None else (req, key)
        if self._gate is None:
            return self._transport.send(*args)
        with self._gate:
            return self._transport.send(*args)


class EmbeddingGateway(Protocol):
    """Maps text to a fixed-dimension vector."""

    dimension: int

    def embed(self, text: str) -> np.ndarray: ...


class HashEmbedder:
    """Deterministic embedding double for tests and offline runs.

    Seeds a PCG64 generator from the SHA-256 of the text and draws a unit
    Gaussian vector, so identical texts embed identically on every platform.
    """

    def __init__(self, dimension: int = 32):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
        rng = np.random.Generator(np.random.PCG64(seed))
        vector = rng.standard_normal(self.dimension)
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:  # unreachable in practice, but keep the unit-norm contract
            vector[0] = 1.0
            norm = 1.0
        return vector / norm
