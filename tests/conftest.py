import json
import os
import socket
import threading
import time
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from medsum.backend import (
    FAN_OUT_WIDTH,
    CompletionClient,
    RecordingTransport,
    ReplayStore,
    ScriptedTransport,
)
from medsum.chain import ChainConfig, ChainDeps, run_medsum_ent, run_naive_baseline
from medsum.model import (
    Encounter,
    ExampleKind,
    LabeledExample,
    PromptKind,
    Speaker,
    StructuredSummary,
    Turn,
)
from medsum.promptkit import load_templates
from medsum.selection import ExamplePool, load_example_pools

# Where CI is set (GitHub Actions sets it), every property test draws the same
# examples on every run, and a failure prints the blob that replays it.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

# A decoded JSON value of each type: null, a bool, an int, a non-integral
# float, a string, a list (a list of pairs among them) and an object.
_JSON_OF_TYPE = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
    str: st.text(max_size=4),
    list: st.one_of(st.lists(st.integers(), max_size=2), st.just([["a", 1]])),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


def json_of_another_type(kind):
    """Decoded JSON values whose type is not `kind` (str, int, list or dict);
    a bool is not an int."""
    return st.one_of(*(values for t, values in _JSON_OF_TYPE.items() if t is not kind))


# A pure-Python numpy random stream: SeedSequence, then PCG64 XSL-RR, then
# `random_interval`'s mask rejection on buffered 32-bit halves (low half
# first), then `Generator.shuffle`'s Fisher-Yates from the back. NEP 19 fixes
# the BitGenerator streams but not the Generator methods built on them.
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _seed_sequence_words(seed, count):
    """numpy's `SeedSequence(seed).generate_state(count, np.uint32)`."""
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    entropy = []
    while True:  # 32-bit words, low first; 0 is one word
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = 0x8B51F9DD, []
    for i in range(count):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return words


def reference_permutation(seed, n):
    """`np.random.Generator(np.random.PCG64(seed)).permutation(n)` as a list."""
    words = _seed_sequence_words(seed, 8)
    v0, v1, v2, v3 = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = ((v2 << 64 | v3) << 1 | 1) & _M128
    state = ((v0 << 64 | v1) + inc) * mult + inc & _M128
    halves = []

    def next_uint32():
        nonlocal state
        if not halves:  # PCG64 XSL-RR: step, then fold and rotate
            state = (state * mult + inc) & _M128
            folded, rot = (state >> 64 ^ state) & _M64, state >> 122
            value = (folded >> rot | folded << (64 - rot)) & _M64
            halves[:] = [value >> 32, value & _M32]
        return halves.pop()

    order = list(range(n))
    for i in reversed(range(1, n)):  # Fisher-Yates from the back
        mask = (1 << i.bit_length()) - 1
        j = next_uint32() & mask
        while j > i:  # random_interval's mask rejection
            j = next_uint32() & mask
        order[i], order[j] = order[j], order[i]
    return order


SIX_SECTION_SUMMARY = """\
Demographics and Social Determinants of Health:
A 46 year old female.

Medical Intent:
Patient came for urinary symptoms.

Pertinent Positives:
Pain when urinating; low back pain.

Pertinent Negatives:
No fever.

Pertinent Unknowns:
Unsure about abdominal pain.

Medical History:
Prior urinary infection treated with antibiotics.
"""


def scripted_pipeline_responder(req):
    """Deterministic stand-in for the completion endpoint.

    Dialogue windows mentioning "belly" extract as an unknown so the
    resolver has work to do; everything else extracts as a definite entity.
    """
    kind = req.prompt_kind
    if kind is PromptKind.RFE_EXTRACTION:
        return "- urinary tract infection (present)"
    if kind is PromptKind.DIALOGUE_EXTRACTION:
        if "belly" in req.prompt:
            return "- abdominal pain (unknown)"
        if "fever" in req.prompt:
            return "- fever (absent)"
        return "- cough (present)"
    if kind is PromptKind.UNKNOWN_RESOLVER:
        return "- abdominal pain (present)"
    if kind is PromptKind.SUMMARIZATION:
        return SIX_SECTION_SUMMARY
    raise AssertionError(f"unexpected prompt kind {kind}")


def make_client(responder, **kwargs):
    transport = ScriptedTransport(responder)
    client = CompletionClient(transport, sleeper=lambda _: None, **kwargs)
    return client, transport


def alternating_turns(n, with_belly=False):
    turns = []
    for i in range(n // 2):
        doctor_text = f"Do you have symptom {i}?"
        if with_belly and i == 1:
            doctor_text = "Does your belly hurt?"
        turns.append(Turn(Speaker.DOCTOR, doctor_text))
        turns.append(Turn(Speaker.PATIENT, "present" if i % 2 == 0 else "absent"))
    if n % 2:
        turns.append(Turn(Speaker.DOCTOR, "Anything else?"))
    return tuple(turns)


def make_encounter(enc_id="enc-001", n_turns=8, with_belly=False, reference=None, rfe="UTI"):
    return Encounter(
        id=enc_id,
        rfe=rfe,
        age=46,
        sex="female",
        turns=alternating_turns(n_turns, with_belly=with_belly),
        reference_summary=reference,
    )


def make_pool(kind, size=5):
    kind = ExampleKind(kind)
    if kind is ExampleKind.SUMMARIZATION:
        label = SIX_SECTION_SUMMARY
    else:
        label = "- headache (present)"
    examples = tuple(
        LabeledExample(
            kind=kind,
            input_text=f"example input {i} for {kind.value}",
            age=20 + i,
            sex="female" if i % 2 == 0 else "male",
            label=label,
        )
        for i in range(size)
    )
    return ExamplePool(kind=kind, examples=examples)


def encounter_record(enc_id="enc-001", n_turns=8, reference=None, with_belly=False):
    """A dataset-file record (decoded form) for a synthetic encounter."""
    enc = make_encounter(enc_id=enc_id, n_turns=n_turns, with_belly=with_belly)
    record = {
        "id": enc.id,
        "rfe": enc.rfe,
        "age": enc.age,
        "sex": enc.sex,
        "turns": [{"speaker": t.speaker.value, "text": t.text} for t in enc.turns],
    }
    if reference is not None:
        record["reference_summary"] = reference
    return record


def write_dataset(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def write_pools(path):
    records = []
    for kind in ("rfe_extraction", "dialogue_extraction"):
        for i in range(5):
            records.append(
                {
                    "kind": kind,
                    "input_text": f"{kind} example {i}",
                    "age": 30 + i,
                    "sex": "female",
                    "label": "- headache (present)",
                }
            )
    for i in range(3):
        records.append(
            {
                "kind": "summarization",
                "input_text": f"summarization example {i}",
                "age": 40 + i,
                "sex": "male",
                "label": SIX_SECTION_SUMMARY,
            }
        )
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def prerecord(store_path, dataset_path, pools_path, configs=(ChainConfig(),)):
    """Drive both methods once per config through a recording transport so a
    replay store holds every response later CLI runs will need."""
    from medsum.cli import load_dataset

    recorder = RecordingTransport(
        ScriptedTransport(scripted_pipeline_responder),
        ReplayStore(store_path, create=True),
    )
    client = CompletionClient(recorder, sleeper=lambda _: None)
    pools = load_example_pools(pools_path)
    deps = ChainDeps(client=client, templates=load_templates(), pools=pools)
    for cfg in configs:
        for enc in load_dataset(dataset_path):
            run_medsum_ent(enc, cfg, deps)
            run_naive_baseline(enc, cfg, deps)


@pytest.fixture(scope="session")
def templates():
    return load_templates()


@pytest.fixture
def pools():
    return {kind: make_pool(kind) for kind in ExampleKind}


@pytest.fixture
def scripted_deps(templates, pools):
    client, transport = make_client(scripted_pipeline_responder)
    deps = ChainDeps(client=client, templates=templates, pools=pools)
    return deps, transport


@pytest.fixture
def reference_summary():
    return StructuredSummary(
        demographics_sdoh="A 46 year old female.",
        medical_intent="Patient came for urinary symptoms.",
        pertinent_positives="Pain when urinating; low back pain.",
        pertinent_negatives="No fever.",
        pertinent_unknowns="Unsure about abdominal pain.",
        medical_history="Prior urinary infection treated with antibiotics.",
    )


class _CompletionHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next scripted (status, body), or with 200
    and the completion text `respond(prompt)` once the script is used up. A
    body of bytes is written as it is, in place of the whole response, and
    the connection is then closed."""

    protocol_version = "HTTP/1.1"  # keep-alive: a client may reuse the connection
    # The headers and the body go out in two sends; with Nagle's algorithm on,
    # the body would wait for the client's delayed ACK, about 40 ms a call.
    disable_nagle_algorithm = True

    def do_POST(self):
        endpoint = self.server.endpoint
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with endpoint.lock:
            endpoint.received.append((dict(self.headers), payload))
            scripted = endpoint.script.pop(0) if endpoint.script else None
        text = endpoint.respond(payload["prompt"])
        status, body = scripted or (200, {"choices": [{"text": text}]})
        if isinstance(body, bytes):
            self.wfile.write(body)
            self.close_connection = True
            return
        data = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
        time.sleep(endpoint.delay)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


class _LoopbackServer(ThreadingHTTPServer):
    # The listen backlog: a fan-out's connections arrive at once, and the
    # socketserver default of 5 makes the rest wait for SYN retransmits.
    request_queue_size = 4 * FAN_OUT_WIDTH
    # Handler threads are joined by server_close.
    daemon_threads = False

    def process_request(self, request, client_address):
        self.endpoint.accepted.append(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.endpoint.lock:
            self.endpoint.closed += 1

    def handle_error(self, request, client_address):
        pass  # a client that timed out and hung up, say


class LoopbackEndpoint:
    """A completion endpoint served over HTTP/1.1 on 127.0.0.1.

    `script` holds (status, body) pairs answered in turn, a body being text
    or a JSON value; after them each prompt is answered `respond(prompt)`,
    "echo: <prompt>" by default. `delay` is the seconds each answer waits;
    `received` holds the headers and decoded JSON body of each request, in
    arrival order; `accepted` holds each connection the server accepted and
    `closed` counts those whose handler has finished, which a keep-alive
    handler does once its client hangs up.
    """

    def __init__(self):
        self.script: list[tuple[int, object]] = []
        self.respond: Callable[[str], str] = "echo: {}".format
        self.delay = 0.0
        self.received: list[tuple[dict[str, str], dict]] = []
        self.accepted: list[socket.socket] = []
        self.closed = 0
        self.lock = threading.Lock()
        self._server = _LoopbackServer(("127.0.0.1", 0), _CompletionHandler)
        self._server.endpoint = self
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}/v1/completions"
        # A short poll interval, so close() does not wait half a second.
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.01,))
        self._thread.start()

    @property
    def connections(self) -> int:
        return len(self.accepted)

    def wait_until_all_closed(self, timeout: float = 5.0) -> bool:
        """Whether every accepted connection has closed within `timeout` s."""
        deadline = time.monotonic() + timeout
        while self.closed < self.connections and time.monotonic() < deadline:
            time.sleep(0.005)
        return self.closed == self.connections

    def close(self):
        """Stop serving, hang up on connections a client left open, and
        join every handler thread."""
        self._server.shutdown()
        self._thread.join()
        for conn in self.accepted:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed
                pass
        self._server.server_close()


@pytest.fixture
def loopback_endpoint():
    endpoint = LoopbackEndpoint()
    yield endpoint
    endpoint.close()
