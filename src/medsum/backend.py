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
import math
import os
import random
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import (
    IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence,
)

from .model import _KIND_BY_VALUE, _KIND_TAIL, PromptKind, compact_json, json_field

if TYPE_CHECKING:
    import numpy as np

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
    "PendingCall",
    "RetryPolicy",
    "default_params",
    "cache_key",
    "PrefixKeyer",
    "Transport",
    "ScriptedTransport",
    "HTTPTransport",
    "open_text",
    "decode_line",
    "read_lines",
    "JsonlLog",
    "ReplayStore",
    "ReplayTransport",
    "RecordingTransport",
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
    """The replay store file cannot be read or made, or is corrupt."""


@dataclass(frozen=True)
class CompletionParams:
    """Sampling parameters attached to one completion request."""

    temperature: float
    max_tokens: int
    top_p: float
    # The sorted, compact JSON of as_dict(), built once for the cache key
    # (see PrefixKeyer) and the chain's trace entries.
    json_text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature {self.temperature} outside [0, 2]")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p {self.top_p} outside (0, 1]")
        object.__setattr__(self, "json_text", compact_json(self.as_dict()))

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
    """Default sampling parameters for a prompt kind; only a kind that is not
    a member goes through `PromptKind`, which refuses an unknown one."""
    return DEFAULT_COMPLETION_PARAMS[kind if type(kind) is PromptKind else PromptKind(kind)]


@dataclass(frozen=True, slots=True)
class CompletionRequest:
    """One completion call: its prompt text, params and prompt kind."""

    prompt: str
    params: CompletionParams
    prompt_kind: PromptKind

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt is empty")
        if type(self.prompt_kind) is not PromptKind:
            object.__setattr__(self, "prompt_kind", PromptKind(self.prompt_kind))

    @classmethod
    def build(cls, kind: PromptKind | str, prompt: str,
              params: CompletionParams | None = None) -> "CompletionRequest":
        return cls(prompt, params or default_params(kind), kind)


class PendingCall(NamedTuple):
    """A completion call known by its cache key, kind and params, whose
    request is built only if no cache serves it: `build()` returns the
    `CompletionRequest` whose `cache_key` is `key`."""

    key: str
    prompt_kind: PromptKind
    params: CompletionParams
    build: Callable[[], CompletionRequest]


class PrefixKeyer:
    """The cache key of every request of one kind and params whose prompt
    is head + input + tail, with the head escaped and hashed once.

    A key is the SHA-256 of json.dumps({"prompt_kind": ..., "prompt": ...,
    "params": params.as_dict()}, sort_keys=True, separators=(",", ":")),
    spliced from its pieces. The params' JSON is built once per params
    object, and each part of the prompt is escaped by the ASCII-only string
    encoder json.dumps uses. That encoder escapes each code point on its own
    (an astral character or a surrogate pair split across a join gives the
    same escapes either way), so escaping the three parts apart and joining
    them gives the bytes of escaping the whole prompt. Every replay store is
    keyed by these bytes, and this is the only code that writes them.
    """

    __slots__ = ("_state", "_end")

    def __init__(self, kind: PromptKind, params: CompletionParams, head: str, tail: str):
        opening = '{"params":' + params.json_text + ',"prompt":' + _json_string(head)[:-1]
        self._state = hashlib.sha256(opening.encode("ascii"))
        self._end = (_json_string(tail)[1:] + _KIND_TAIL[PromptKind(kind)]).encode("ascii")

    def key(self, input_text: str) -> str:
        state = self._state.copy()
        state.update(_json_string(input_text)[1:-1].encode("ascii"))
        state.update(self._end)
        return state.hexdigest()


def cache_key(req: CompletionRequest) -> str:
    """Content hash over (prompt_kind, prompt, params), stable across runs:
    the key of a `PrefixKeyer` with no head or tail."""
    return PrefixKeyer(req.prompt_kind, req.params, "", "").key(req.prompt)


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

    A transport backed by a store also offers `peek(key) -> str | None`, the
    stored response for a cache key without sending anything, and is its
    client's cache: its `send(req, key)` takes the request's cache key and
    keeps every text it returns under it, where `peek` finds it. A client
    over any other transport keeps the texts in a dict of its own, filled
    the same way. Every key is a `PrefixKeyer` key; there is no other
    format. A transport that holds connections or files offers `close()`.
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


# Width of the fan-out executor when max_in_flight is not set: 1 RFE plus 23
# turn-window requests, the extraction stage of an encounter of the source
# corpus's mean 46 turns, so that stage is one endpoint round trip. On the
# record-latency benchmark widths 24, 32 and 64 all gave a lower p50 than 16,
# but peak RSS rose 0.25-0.4% at 24 against 4.9-5.7% at 32 and 64: more
# threads spread the heap over more malloc arenas.
FAN_OUT_WIDTH = 24


class HTTPTransport:
    """Completion-style HTTP JSON endpoint.

    Posts {model, prompt, temperature, max_tokens, top_p} and reads
    choices[0].text from the response, the wire shape of widely deployed
    completion servers, with the API key in $MEDSUM_API_KEY, read once, if it
    is set. An endpoint that is not a printable-ASCII http or https URL, or a
    key an HTTP header cannot carry, is a ValueError that names it; an https
    endpoint is verified against the system's trust store.

    Each thread that sends keeps one keep-alive connection for its next
    call; a reused one the server has since hung up is reconnected once.
    `close` hangs up every one, those of threads that have exited too.
    """

    def __init__(self, endpoint: str, model: str = "completion-model", timeout: float = 120.0):
        import http.client
        import ssl
        from urllib.parse import urlsplit

        try:
            url = urlsplit(endpoint)
            port = url.port  # both are ValueErrors for a malformed URL
        except ValueError as exc:
            raise ValueError(f"endpoint {endpoint!r}: {exc}") from exc
        printable = all("!" <= c <= "~" for c in endpoint)  # what http.client can send
        if url.scheme not in ("http", "https") or not url.hostname or not printable:
            raise ValueError(f"endpoint {endpoint!r}: not a printable-ASCII http or https URL")
        api_key = os.environ.get(API_KEY_ENV, "")
        # RFC 9110's field-value: VCHAR, SP, HTAB and obs-text, which http.client sends as Latin-1.
        if not all(c == "\t" or " " <= c <= "~" or "\x80" <= c <= "\xff" for c in api_key):
            raise ValueError(f"${API_KEY_ENV} holds a character an HTTP header cannot carry")
        auth = {"Authorization": f"Bearer {api_key}"} if api_key else {}
        self._headers = {"Content-Type": "application/json", "Accept-Encoding": "gzip", **auth}
        self.endpoint, self.model, self.timeout = endpoint, model, timeout
        https = {"context": ssl.create_default_context()} if url.scheme == "https" else {}
        connection = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._connect = partial(connection, url.hostname, port, timeout=timeout, **https)
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._connections: dict[int, Any] = {}  # by thread ident
        self._lock = threading.Lock()

    def send(self, req: CompletionRequest) -> str:
        import gzip
        import http.client
        import zlib

        payload = {"model": self.model, "prompt": req.prompt, **req.params.as_dict()}
        ident = threading.get_ident()  # a later thread may reuse an exited one's, and its conn
        with self._lock:
            conn = self._connections.get(ident)
            if conn is None:
                conn = self._connections[ident] = self._connect()
        data, reused = json.dumps(payload).encode(), conn.sock is not None
        try:
            try:
                conn.request("POST", self._path, data, self._headers)
                resp = conn.getresponse()
            except (BrokenPipeError, ConnectionResetError):  # RemoteDisconnected is one too
                if not reused:  # else it was kept alive, and the server has since hung up
                    raise
                conn.close()
                conn.request("POST", self._path, data, self._headers)
                resp = conn.getresponse()
            with resp:
                status, body = resp.status, resp.read()
                if resp.getheader("Content-Encoding") == "gzip":
                    body = gzip.decompress(body)  # EOFError or zlib.error if garbled
        except (OSError, http.client.HTTPException, EOFError, zlib.error) as exc:
            conn.close()
            raise TransientBackendError(f"{type(exc).__name__}: {exc}") from exc
        if status == 429 or status >= 500:
            raise TransientBackendError(f"HTTP {status}")
        if status != 200:
            raise BackendProtocolError(f"HTTP {status}: {body.decode('utf-8', 'replace')[:200]}")
        try:
            return json_field("completion text", json.loads(body)["choices"][0]["text"], str)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendProtocolError(f"malformed completion response: {exc}") from exc

    def close(self) -> None:
        with self._lock:
            for conn in self._connections.values():
                conn.close()


@contextmanager
def open_text(path: str | Path, error: Callable[[str], Exception], newline: str | None = None):
    """The UTF-8 text file at `path`, open for reading within the `with`.

    A file that cannot be opened (missing, a directory, or a path holding a
    NUL or a lone surrogate) is `error("cannot read <path>: <reason>")`, and
    bytes read in the block that are not UTF-8 are `error("<path> is not
    UTF-8 text: ...")`. `newline` is `open`'s.
    """
    try:
        fh = open(path, encoding="utf-8", newline=newline)
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not UTF-8 text: {exc}") from exc


_scan_value = json.JSONDecoder().scan_once


def decode_line(line: str) -> Any:
    """`json.loads(line)`: its value, or its ValueError. A line that starts
    with its value and ends with JSON whitespace is scanned without
    `json.loads`' wrappers; any other line goes through them, for their
    result or their error."""
    try:
        value, end = _scan_value(line, 0)
    except StopIteration:
        return json.loads(line)
    if line[end:].strip(" \t\n\r"):  # the whitespace JSON allows around a value
        return json.loads(line)
    return value


def read_lines(path: str | Path, error: Callable[[str], Exception]) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each non-blank line of a text file, as
    the caller takes them, opened through `open_text`."""
    with open_text(path, error) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, line


class JsonlLog:
    """An append-only file of one JSON record per line that a writer killed
    mid-append leaves readable.

    Such a writer leaves a last line with no newline after it. If that line
    does not decode, `read` drops it through `warn` and the next `open`
    cuts it off the file; if it does, the next `open` ends it with a
    newline. Each `append` is written and flushed to the OS before it
    returns. Not thread-safe: concurrent writers hold a lock of their own
    around `append`.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh: IO[str] | None = None
        self._finalizer: weakref.finalize | None = None
        # Set by read for the next open: where a torn last line starts, or
        # that the last line decoded but has no newline.
        self._cut_at: int | None = None
        self._needs_newline = False

    def read(
        self,
        take: Callable[[int, Any], None],
        warn: Callable[[str], None],
        error: Callable[[str], Exception],
    ) -> None:
        """Call take(line number, decoded line) for each non-blank line in
        file order. A line that does not decode, other than a torn last
        line, or on which `take` raises ValueError, KeyError or TypeError is
        an `error` naming it, as is a file `open_text` refuses."""
        line = ""
        corrupt = f"{self.path} holds a corrupt record line"
        with open_text(self.path, error, newline="\n") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    item = decode_line(line)
                except ValueError as exc:
                    if not line.strip():
                        continue
                    if line.endswith("\n"):
                        raise error(f"{corrupt} (line {lineno}: {exc})") from exc
                    warn(f"dropping torn last line {lineno} ({exc})")
                    self._cut_at = os.fstat(fh.fileno()).st_size - len(line.encode("utf-8"))
                    return
                try:
                    take(lineno, item)
                except (ValueError, KeyError, TypeError) as exc:
                    raise error(f"{corrupt} (line {lineno}: {exc})") from exc
        self._needs_newline = bool(line) and not line.endswith("\n")

    def open(self) -> None:
        """Open for appending, creating the file, after mending the tail
        the last `read` found (see the class docstring)."""
        if self._cut_at is not None:
            os.truncate(self.path, self._cut_at)
        fh = self.path.open("a", encoding="utf-8")
        if self._needs_newline:
            fh.write("\n")
            fh.flush()
        self._cut_at, self._needs_newline = None, False
        self._fh = fh
        # Closes the handle on close() or when the log is collected.
        self._finalizer = weakref.finalize(self, fh.close)

    def append(self, line: str) -> None:
        """Write `line`, which ends with a newline, opening the file first
        if it is not open."""
        if self._fh is None:
            self.open()
        self._fh.write(line)
        self._fh.flush()

    def close(self) -> None:
        """Close the append handle, if open; a later append reopens it."""
        if self._finalizer is not None:
            self._finalizer()
        self._fh = self._finalizer = None


class ReplayStore:
    """Persistent map from cache key to completion text.

    File format: one JSON object per line, of the strings key_hex and
    response_text and the PromptKind value prompt_kind, in the bytes
    `compact_json` gives, kept in a JsonlLog, so a torn last line is
    recovered. On load, a later line for the same key wins. Appends are
    serialized through a lock, so a store may back concurrent recording;
    each is written and flushed to the OS before `put` returns. Corruption,
    a field of another type or value included, is a ReplayStoreError.
    """

    def __init__(self, path: str | Path, create: bool = False):
        self.path = Path(path)
        self._entries: dict[str, str] = {}
        self._lock = threading.Lock()
        self._log = JsonlLog(self.path)
        if create and not self.path.exists():  # False, not an error, for a path open() refuses
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self.path.touch()
            except (OSError, ValueError) as exc:  # its directory is a file, say
                why = getattr(exc, "strerror", exc)
                raise ReplayStoreError(f"cannot write {self.path}: {why}") from exc
        else:
            self._load()

    def _load(self) -> None:
        entries = self._entries

        def take(lineno: int, item: Any) -> None:
            key, kind, text = item["key_hex"], item["prompt_kind"], item["response_text"]
            # Three strings and a known kind pass; the checks below give the error.
            if not (type(key) is type(kind) is type(text) is str and kind in _KIND_BY_VALUE):
                json_field("key_hex", key, str)
                PromptKind(kind)
                json_field("response_text", text, str)
            entries[key] = text

        warn = partial(logger.warning, "%s: %s; the next record replaces it", self.path)
        self._log.read(take, warn, ReplayStoreError)

    def get(self, key: str) -> str | None:
        return self._entries.get(key)

    def put(self, key: str, prompt_kind: PromptKind | str, response_text: str) -> None:
        line = (
            '{"key_hex":'
            + _json_string(key)
            + ',"prompt_kind":'
            + _json_string(PromptKind(prompt_kind).value)
            + ',"response_text":'
            + _json_string(response_text)
            + "}\n"
        )
        with self._lock:
            if self._entries.get(key) == response_text:
                return
            self._log.append(line)
            self._entries[key] = response_text

    def close(self) -> None:
        """Close the append handle, if a put opened one; a later put reopens it."""
        with self._lock:
            self._log.close()

    def __len__(self) -> int:
        return len(self._entries)


class ReplayTransport:
    """Strict replay: serve stored responses, error on any miss."""

    def __init__(self, store: ReplayStore):
        self.store = store
        self.peek: Callable[[str], str | None] = store.get

    def send(self, req: CompletionRequest, key: str) -> str:
        text = self.store.get(key)
        return self._miss(req, key) if text is None else text

    def _miss(self, req: CompletionRequest, key: str) -> str:
        raise ReplayMissError(key)

    def close(self) -> None:
        self.store.close()


class RecordingTransport(ReplayTransport):
    """Record-through transport: serve from the store when possible,
    otherwise delegate to the inner transport and persist the response.
    """

    def __init__(self, inner: Transport, store: ReplayStore):
        super().__init__(store)
        self.inner = inner

    def _miss(self, req: CompletionRequest, key: str) -> str:
        text = self.inner.send(req)
        self.store.put(key, req.prompt_kind, text)
        return text

    def close(self) -> None:
        _close(self.inner)
        super().close()


def _close(transport: Transport) -> None:
    """Close `transport` if it offers `close`."""
    close = getattr(transport, "close", None)
    if close is not None:
        close()


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


class CompletionClient:
    """Caching, retrying front door for completion calls.

    Safe under arbitrary concurrent callers. The cache is content-addressed
    over (prompt_kind, prompt, params) and stores raw completion text, so
    parser changes never invalidate it. Its one path, chosen when the client
    is made, is a lookup and a send that stores what it fetches: a store's
    `peek` and `send(req, key)` over a transport that offers `peek`, else a
    dict's `get` and a `send(req)` whose texts the dict keeps. A call is a
    built request, keyed once with `cache_key`, or a `PendingCall`, which
    carries its key and is built only on a miss; either way its key is
    looked up once. Concurrent calls with one key share a single transport
    call (single-flight): all get its text, or all get its error.
    `max_in_flight` bounds concurrent transport calls when set.

    `gather` fans independent calls out to a long-lived executor,
    created on first use, `max_in_flight` wide when that is set and
    FAN_OUT_WIDTH wide otherwise, and shared by the clients of that width.
    `close` closes the transport, and with it any store behind it.
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
        if peek is None:  # a dict keeps each fetched text, as a recording transport's store does
            memory: dict[str, str] = {}
            peek, send = memory.get, transport.send
            self._send_one = lambda req, key: memory.setdefault(key, send(req))
        else:
            self._send_one = transport.send
        self._lookup: Callable[[str], str | None] = peek
        self._flights: dict[str, Future[str]] = {}
        self._lock = threading.Lock()
        self._gate = threading.BoundedSemaphore(max_in_flight) if max_in_flight else nullcontext()
        self._fan_out_width = max_in_flight or FAN_OUT_WIDTH

    def complete(self, req: CompletionRequest | PendingCall) -> str:
        """The completion text for `req`, a built request or a pending call."""
        pending = type(req) is PendingCall
        key = req.key if pending else cache_key(req)
        text = self._lookup(key)
        if text is not None:
            return text
        with self._lock:
            waiting = self._flights.get(key)
            if waiting is None:
                # The flight that fetched this text may have landed since
                # the lookup above.
                text = self._lookup(key)
                if text is not None:
                    return text
                flight = self._flights[key] = Future()
        if waiting is not None:
            return waiting.result()
        try:
            text = self._send_with_retries(req.build() if pending else req, key)
        except BaseException as exc:
            with self._lock:
                del self._flights[key]
            flight.set_exception(exc)
            raise
        with self._lock:
            del self._flights[key]
        flight.set_result(text)
        return text

    def gather(self, calls: Iterable[PendingCall]) -> Iterator[str]:
        """The texts of `complete(call)` for any iterable of pending calls,
        in order, as the caller takes them.

        On the first take every call is taken from `calls`, and then every
        call starts: one the cache can serve is answered from its one lookup
        and is never built; any other is built on the calling thread and
        runs on the fan-out executor. A call's own failure, or one raised by
        its `build`, is raised in its turn, after the texts before it.
        Closing the iterator cancels the calls not yet started. Never call
        this from a task running on that executor: a worker waiting on its
        own pool can deadlock it.
        """
        # Sending while later calls are still built would slow their building
        # (the GIL), and the last call's start sets when the last text arrives.
        taken, failure = list(calls), None
        pending: list[str | Future[str]] = []
        try:
            for call in taken:
                text = self._lookup(call.key)
                if text is None:
                    # Built here, not among the answers coming back on the
                    # fan-out threads.
                    try:
                        req = call.build()
                    except Exception as exc:  # raised in its turn; later calls never start
                        failure = exc
                        break
                    executor = _fan_out_executor(self._fan_out_width)
                    text = executor.submit(self.complete, call._replace(build=lambda r=req: r))
                pending.append(text)
            for item in pending:
                yield item if type(item) is str else item.result()
            if failure is not None:
                raise failure
        finally:
            for item in pending:
                if type(item) is not str:
                    item.cancel()

    def close(self) -> None:
        _close(self._transport)

    def _send_with_retries(self, req: CompletionRequest, key: str) -> str:
        for attempt in range(1, self._policy.max_attempts + 1):
            try:
                with self._gate:
                    return self._send_one(req, key)
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


class EmbeddingGateway(Protocol):
    """Maps texts to fixed-dimension vectors, one row per text, in order."""

    dimension: int

    def embed_many(self, texts: Sequence[str]) -> np.ndarray: ...


# numpy's SeedSequence hash and mix multipliers, and PCG64's LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG64_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645


@lru_cache(maxsize=None)
def _seeding_constants() -> list[list[np.ndarray]]:
    """SeedSequence's (xor, multiplier) uint32 columns for each vectorised
    step; a source word's hashes of the other three hold a 0 in its own row."""
    import numpy as np

    a = [_INIT_A * pow(_MULT_A, j, 1 << 32) & 0xFFFFFFFF for j in range(17)]
    b = [_INIT_B * pow(_MULT_B, j, 1 << 32) & 0xFFFFFFFF for j in range(9)]
    steps = [(a[0:4], a[1:5])]
    for src, j in enumerate(range(4, 16, 3)):
        steps.append([c[:src] + [0] + c[src:] for c in (a[j : j + 3], a[j + 1 : j + 4])])
    steps.append((b[0:8], b[1:9]))
    return [[np.array(c, dtype=np.uint32)[:, None] for c in step] for step in steps]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _pcg64_states(seeds: Sequence[int]) -> list[dict[str, Any]]:
    """`np.random.PCG64(seed).state` of each 64-bit seed, from one vectorised
    pass of numpy's SeedSequence over uint32 arrays (which wrap silently,
    unlike numpy scalars) and then PCG64's own seeding steps."""
    import numpy as np

    (xor, mult), *sources, (out_xor, out_mult) = _seeding_constants()
    words = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(words)), dtype=np.uint32)
    # The entropy words, low first; the missing ones hash as 0.
    pool[0], pool[1] = words & 0xFFFFFFFF, words >> 32
    pool = _hashmix(pool, xor, mult)
    for src, (xor, mult) in enumerate(sources):
        mixed = _MIX_L * pool - _MIX_R * _hashmix(pool[src], xor, mult)
        mixed ^= mixed >> 16
        mixed[src] = pool[src]
        pool = mixed
    # generate_state(4, uint64): 8 words from the cycled pool, paired little-endian.
    out = _hashmix(np.concatenate((pool, pool)), out_xor, out_mult).astype(np.uint64)
    states, mask = [], (1 << 128) - 1
    for v0, v1, v2, v3 in (out[0::2] | out[1::2] << 32).T.tolist():
        inc = ((v2 << 64 | v3) << 1 | 1) & mask
        state = {"state": (((v0 << 64 | v1) + inc) * _PCG64_MULT + inc) & mask, "inc": inc}
        states.append({"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0})
    return states


class HashEmbedder:
    """Deterministic embedding double for tests and offline runs.

    A text's vector is a unit Gaussian draw seeded with the first 8 bytes
    (big-endian) of its SHA-256. A batch derives every PCG64 state at once
    and draws from one shared generator, with the bytes of a fresh
    `PCG64(seed)`. NEP 19 keeps PCG64's seeding and raw stream fixed, but
    not `Generator.standard_normal`, which may change between numpy
    releases; `tests/test_pinned_output.py` pins the rows' bytes.
    """

    def __init__(self, dimension: int = 32):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        # Held from setting the shared generator's state to the end of its draw.
        self._lock = threading.Lock()
        self._generator: np.random.Generator | None = None

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        if not all(texts):
            raise ValueError("cannot embed empty text")
        import numpy as np

        digests = [hashlib.sha256(text.encode("utf-8")).digest() for text in texts]
        states = _pcg64_states([int.from_bytes(digest[:8], "big") for digest in digests])
        rows = np.empty((len(texts), self.dimension))
        with self._lock:
            if self._generator is None:
                self._generator = np.random.Generator(np.random.PCG64(0))
            for row, state in zip(rows, states):
                self._generator.bit_generator.state = state
                self._generator.standard_normal(out=row)
        # np.linalg.norm's own formula for a 1-D float vector, without its dispatch.
        norms = np.array([math.sqrt(float(row.dot(row))) for row in rows])
        zero = norms == 0.0  # unreachable in practice, but keep the unit-norm contract
        rows[zero, 0], norms[zero] = 1.0, 1.0
        return rows / norms[:, None]
