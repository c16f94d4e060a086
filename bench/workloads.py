"""The benchmark's three workloads: preparation, set-up, timed rounds and
the per-layer figures of a traced round.

All three are closed loops. A round is one fixed unit of work run to the
end and checked; the timed phase repeats rounds until its time is up.

* replay-cpu: one `medsum run --backend replay --workers 1` over a
  prerecorded store per round. Call latency is zero, so time is per-call
  Python CPU. The output must equal, byte for byte, the records written
  when the store was recorded.
* record-latency: two client threads take encounters from a shared queue
  and call `run_medsum_ent` against a recording transport over a stand-in
  endpoint with a fixed latency and seeded first-attempt failures. Each
  round starts with a fresh client and store, like one `medsum run
  --backend record --workers 2`. Time sits on the serial call chain.
* eval-replay: one `medsum eval --verifier llm --backend replay` per round
  over replay-cpu's records and a prerecorded metric store. The CSV and
  JSONL reports must equal the ones computed when the store was recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import medsum.chain as chain
import medsum.cli as cli
import medsum.selection as selection
from medsum.backend import (
    CompletionClient,
    HashEmbedder,
    RecordingTransport,
    ReplayStore,
    RetryPolicy,
    cache_key,
)
from medsum.chain import ChainDeps, run_many
from medsum.metrics import (
    EncounterEvaluation,
    LLMConceptExtractor,
    LLMVerifier,
    RowKey,
    aggregate,
    evaluate_encounter,
    write_csv_report,
    write_jsonl_report,
)
from medsum.model import ExampleKind, Method
from medsum.promptkit import load_templates
from medsum.selection import load_example_pools

from corpus import CorpusSpec, content_problems, generate_corpus, generate_pools, write_jsonl
from endpoint import StandInEndpoint
from hostspeed import ReferenceClock, WallClock
from spans import SpanIndex, Tracer, busy_time

REPLAY_CORPUS = CorpusSpec(encounters=200, min_turns=20, max_turns=60)
LATENCY_CORPUS = CorpusSpec(encounters=112, min_turns=16, max_turns=36)  # one round
RUN_CONFIG = {"extraction_k": 3, "summarization_k": 1, "resolver_enabled": True}
POOL_SIZE = 300
CLIENTS = 2  # nproc on the reference machine
LATENCY_S = 0.010
FAILURE_SHARE = 0.03
BACKOFF_BASE_S = 0.005
SETUP_REPEATS = 5


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for line in fh if line.strip())


@dataclass
class Round:
    """One round's outcome. `seconds` and `durations` (per encounter) are
    wall seconds; `scale` converts them to the seconds the workload reports
    (reference seconds on the CPU-bound workloads, see hostspeed)."""

    encounters: int
    seconds: float
    failed: int = 0
    durations: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    scale: float = 1.0

    def reference_durations(self) -> list[float]:
        return [d * self.scale for d in self.durations]

    @property
    def rate(self) -> float:
        """Completed encounters per reported second of the round."""
        return (self.encounters - self.failed) / (self.seconds * self.scale)


@contextlib.contextmanager
def timed_binding(owner: Any, attr: str, sink: list[float]):
    """Append the wall time of every call of owner.attr to sink."""
    original = getattr(owner, attr)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(clock() - start)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------- preparation


def _record_run(work: Path, seed: int) -> dict[str, Any]:
    """Write replay-cpu's corpus, pools and config; record its store through
    the stand-in and write the records a replay run must reproduce, after
    checking them against the facts the corpus states."""
    dataset, pools, config = work / "dataset.jsonl", work / "pools.jsonl", work / "config.json"
    store, records = work / "store.jsonl", work / "expected.jsonl"
    corpus, facts = generate_corpus(seed, REPLAY_CORPUS)
    write_jsonl(dataset, corpus)
    write_jsonl(pools, generate_pools(seed, POOL_SIZE))
    run_config = dict(RUN_CONFIG, selection_mode="random", pools=str(pools), seed=seed)
    config.write_text(json.dumps(run_config), encoding="utf-8")

    client = CompletionClient(
        RecordingTransport(StandInEndpoint(), ReplayStore(store, create=True))
    )
    deps = ChainDeps(client=client, templates=load_templates(), pools=load_example_pools(pools))
    cfg = cli.build_chain_config(run_config, None)
    outcomes = run_many(cli.load_dataset(dataset), cfg, deps, Method.MEDSUM_ENT)
    problems = []
    with records.open("w", encoding="utf-8") as fh:
        for outcome in outcomes:
            if outcome.record is None:
                problems.append(f"recording failed on {outcome.encounter_id}: {outcome.error}")
                continue
            problems.extend(content_problems(outcome.record, facts[outcome.encounter_id]))
            fh.write(json.dumps(outcome.record.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n")
    return {
        "dataset": str(dataset), "pools": str(pools), "config": str(config),
        "store": str(store), "records": str(records), "records_sha": sha256_file(records),
        "encounters": REPLAY_CORPUS.encounters, "problems": problems,
    }


def _record_eval(work: Path, manifest: dict[str, Any]) -> dict[str, Any]:
    """Score replay-cpu's records through the stand-in, recording the metric
    store, and keep the digests of the reports an eval replay must match."""
    metric_store, csv_path, jsonl_path = work / "metric_store.jsonl", work / "expected.csv", work / "expected.report.jsonl"
    client = CompletionClient(
        RecordingTransport(StandInEndpoint(), ReplayStore(metric_store, create=True))
    )
    templates = load_templates()
    extractor = LLMConceptExtractor(client, templates["metric_extraction"])
    verifier = LLMVerifier(client, templates["metric_verification"])
    dataset = {enc.id: enc for enc in cli.load_dataset(manifest["dataset"])}
    evaluations = []
    for record in cli.load_records(manifest["records"]):
        reference = dataset[record.encounter_id].reference_summary
        scores = evaluate_encounter(record.summary, reference, verifier, extractor)
        evaluations.append(EncounterEvaluation(record.encounter_id, RowKey.from_record(record), scores))
    write_csv_report(aggregate(evaluations), csv_path)
    write_jsonl_report(evaluations, jsonl_path)
    return {
        "metric_store": str(metric_store),
        "csv_sha": sha256_file(csv_path),
        "jsonl_sha": sha256_file(jsonl_path),
    }


def prepare(workload: str, seed: int, work: Path) -> dict[str, Any]:
    """Benchmark preparation (not timed): inputs, stores, expected outputs.
    `problems` lists the checks the program already failed here."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "record-latency":
        dataset, pools = work / "dataset.jsonl", work / "pools.jsonl"
        records, facts = generate_corpus(seed, LATENCY_CORPUS)
        write_jsonl(dataset, records)
        write_jsonl(pools, generate_pools(seed, POOL_SIZE))
        return {"dataset": str(dataset), "pools": str(pools), "facts": facts,
                "encounters": LATENCY_CORPUS.encounters, "problems": []}
    manifest = _record_run(work, seed)
    if workload == "eval-replay" and not manifest["problems"]:
        manifest.update(_record_eval(work, manifest))
    return manifest


# ------------------------------------------------------------------ workloads


class ReplayCpu:
    name = "replay-cpu"
    cpu_bound = True
    encounter_fn = (chain, "run_medsum_ent")

    def __init__(self, manifest: dict[str, Any], work: Path, seed: int):
        self.m, self.work, self.seed = manifest, work, seed

    def setup(self) -> None:
        """The program's own set-up calls this workload needs."""
        ReplayStore(self.m["store"])
        load_templates()
        load_example_pools(self.m["pools"])

    def run_round(self, index: int) -> Round:
        m = self.m
        out = self.work / f"out-{index}.jsonl"
        argv = ["run", m["dataset"], str(out), "--config", m["config"], "--backend", "replay",
                "--replay-store", m["store"], "--workers", "1"]
        start = time.perf_counter()
        code, log = _quiet_cli(argv)
        seconds = time.perf_counter() - start
        n = m["encounters"]
        written = _lines(out) if out.exists() else 0
        result = Round(encounters=n, seconds=seconds, failed=n - written)
        if code != 0:
            result.problems.append(f"medsum run exited {code}: {log.strip()[-500:]}")
        elif sha256_file(out) != m["records_sha"]:
            result.problems.append("replayed records differ from the recorded run")
        out.unlink(missing_ok=True)
        return result

    def distinct_keys(self) -> int:
        return _lines(Path(self.m["store"]))


class EvalReplay(ReplayCpu):
    name = "eval-replay"
    encounter_fn = (cli, "evaluate_encounter")

    def setup(self) -> None:
        ReplayStore(self.m["metric_store"])
        load_templates()

    def run_round(self, index: int) -> Round:
        m = self.m
        csv_path, jsonl_path = self.work / f"report-{index}.csv", self.work / f"report-{index}.jsonl"
        argv = ["eval", m["records"], m["dataset"], "--verifier", "llm", "--config", m["config"],
                "--backend", "replay", "--replay-store", m["metric_store"],
                "--csv", str(csv_path), "--jsonl", str(jsonl_path)]
        start = time.perf_counter()
        code, log = _quiet_cli(argv)
        seconds = time.perf_counter() - start
        n = m["encounters"]
        scored = _lines(jsonl_path) if jsonl_path.exists() else 0
        result = Round(encounters=n, seconds=seconds, failed=n - scored)
        if code != 0:
            result.problems.append(f"medsum eval exited {code}: {log.strip()[-500:]}")
        elif sha256_file(csv_path) != m["csv_sha"] or sha256_file(jsonl_path) != m["jsonl_sha"]:
            result.problems.append("replayed evaluation reports differ from the recorded ones")
        csv_path.unlink(missing_ok=True)
        jsonl_path.unlink(missing_ok=True)
        return result

    def distinct_keys(self) -> int:
        return _lines(Path(self.m["metric_store"]))


class TimedSleeper:
    """Retry sleeper that counts retries and the time spent backing off."""

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0
        self._lock = threading.Lock()

    def __call__(self, delay: float) -> None:
        start = time.perf_counter()
        time.sleep(delay)
        with self._lock:
            self.count += 1
            self.seconds += time.perf_counter() - start


class RecordLatency:
    name = "record-latency"
    cpu_bound = False
    encounter_fn = None

    def __init__(self, manifest: dict[str, Any], work: Path, seed: int):
        self.m, self.work, self.seed = manifest, work, seed
        self.encounters = cli.load_dataset(manifest["dataset"])
        self.deps_parts: tuple | None = None
        self.last_sleeper = TimedSleeper()
        self.last_distinct = 0

    def setup(self) -> None:
        ReplayStore(self.work / "setup-store.jsonl", create=True)
        templates = load_templates()
        loaded = load_example_pools(self.m["pools"])
        embedder = HashEmbedder()
        pools = {
            kind: selection.build_index(loaded[kind], embedder)
            for kind in (ExampleKind.RFE_EXTRACTION, ExampleKind.DIALOGUE_EXTRACTION)
        }
        self.deps_parts = (templates, pools, embedder)
        (self.work / "setup-store.jsonl").unlink()

    def run_round(self, index: int) -> Round:
        batch = self.encounters
        store_path = self.work / f"store-{index}.jsonl"
        store_path.unlink(missing_ok=True)
        # A fresh failure draw per round, so the retry tail averages over rounds.
        endpoint = StandInEndpoint(LATENCY_S, FAILURE_SHARE, f"{self.seed}/{index}")
        sleeper = TimedSleeper()
        client = CompletionClient(
            RecordingTransport(endpoint, ReplayStore(store_path, create=True)),
            retry_policy=RetryPolicy(base_delay=BACKOFF_BASE_S),
            sleeper=sleeper,
            rng=random.Random(self.seed),
        )
        templates, pools, embedder = self.deps_parts
        deps = ChainDeps(client=client, templates=templates, pools=pools, embedder=embedder)
        cfg = chain.ChainConfig(extraction_k=RUN_CONFIG["extraction_k"], selection_mode="semantic",
                                resolver_enabled=True, run_seed=self.seed)
        queue = iter(batch)
        lock = threading.Lock()
        durations: list[float] = []
        records, errors = [], []

        def client_loop() -> None:
            while True:
                with lock:
                    enc = next(queue, None)
                if enc is None:
                    return
                t0 = time.perf_counter()
                try:
                    record = chain.run_medsum_ent(enc, cfg, deps)
                except Exception as exc:  # a failed encounter is counted, not fatal
                    errors.append(f"{enc.id}: {exc}")
                    continue
                durations.append(time.perf_counter() - t0)
                records.append(record)

        threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seconds = time.perf_counter() - start

        result = Round(encounters=len(batch), seconds=seconds, failed=len(errors), durations=durations)
        result.problems.extend(errors[:3])
        for record in records:
            facts = self.m["facts"][record.encounter_id]
            if len(record.llm_call_trace) != facts["calls"]:
                result.problems.append(
                    f"{record.encounter_id}: {len(record.llm_call_trace)} calls traced, expected {facts['calls']}")
            result.problems.extend(content_problems(record, facts))
        sent = {cache_key(req) for req in endpoint.answered}
        with store_path.open(encoding="utf-8") as fh:
            stored = [json.loads(line)["key_hex"] for line in fh if line.strip()]
        if len(stored) != len(set(stored)) or set(stored) != sent:
            result.problems.append("recorded store does not hold exactly the distinct keys sent")
        self.last_sleeper, self.last_distinct = sleeper, len(sent)
        store_path.unlink()
        return result

    def distinct_keys(self) -> int:
        return self.last_distinct


WORKLOADS: dict[str, type] = {w.name: w for w in (ReplayCpu, RecordLatency, EvalReplay)}


# ------------------------------------------------------------------- measuring


def measure(w, seconds: float) -> tuple[dict[str, list[float]], list[Round], dict[str, Any]]:
    """Untraced set-up and timed phase of one process. Returns its samples
    (round rates, per-encounter times and set-up times), every round run,
    and a summary for the log.

    Set-up, CPU work on every workload, and the rounds of the CPU-bound
    workloads are timed in reference seconds (see hostspeed); there each
    encounter contributes its median time over the rounds. record-latency's
    rounds are timed in wall seconds, which its injected latency dominates,
    and every encounter run is a sample.
    """
    reference = ReferenceClock()
    clock = reference if w.cpu_bound else WallClock()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        _, wall, scale = reference.run(w.setup)
        setup_times.append(wall * scale)
    rounds: list[Round] = []
    sink: list[float] = []
    binding = timed_binding(*w.encounter_fn, sink) if w.encounter_fn else contextlib.nullcontext()
    with binding:
        # A CPU-bound round pays lazy imports and first touches once: run one
        # untimed (still checked). They are noise next to record-latency's waits.
        warm = [clock.run(lambda: w.run_round(0))[0]] if w.cpu_bound else []
        start = time.perf_counter()
        # Start a round only if, as long as the last one, it ends in time.
        while not rounds or time.perf_counter() - start + rounds[-1].seconds <= seconds:
            before = len(sink)
            r, _, r.scale = clock.run(lambda: w.run_round(len(rounds) + 1))
            if w.encounter_fn:
                r.durations = sink[before:]
            rounds.append(r)
    if w.cpu_bound:
        # Every round replays the same encounters in the same order, so an
        # encounter's median over rounds strips the host's bursts from it.
        durations = [statistics.median(times)
                     for times in zip(*(r.reference_durations() for r in rounds))]
    else:
        durations = [d for r in rounds for d in r.reference_durations()]
    samples = {"rates": [r.rate for r in rounds], "durations": durations, "setup_s": setup_times}
    info = {
        "rounds": len(rounds),
        "wall_enc_per_s": round(statistics.median(r.encounters / r.seconds for r in rounds), 2),
    }
    return samples, warm + rounds, info


def traced(w, spans_path: Path) -> tuple[dict[str, float], list[Round]]:
    """Per-layer figures from one traced set-up and round, plus the tracing
    overhead: traced against untraced rounds of the same work, alternated
    (untraced, traced, untraced, traced, untraced)."""
    latency = isinstance(w, RecordLatency)
    clock = ReferenceClock() if w.cpu_bound else WallClock()

    def timed_round(i: int) -> Round:
        r, _, r.scale = clock.run(lambda: w.run_round(i))
        return r

    w.setup()
    plain = [timed_round(0)]
    with Tracer() as tracer:
        w.setup()
        first_traced = timed_round(1)
    distinct = w.distinct_keys()
    sleeper = w.last_sleeper if latency else None
    plain.append(timed_round(2))
    with Tracer():
        second_traced = timed_round(3)
    plain.append(timed_round(4))
    tracer.write(spans_path)
    figures = layer_metrics(
        SpanIndex(tracer.spans),
        distinct_keys=distinct,
        retries=sleeper.count if sleeper else 0,
        backoff_s=sleeper.seconds if sleeper else 0.0,
        latency_s=LATENCY_S if latency else 0.0,
    )
    for name in figures.keys() - COUNTS:
        figures[name] *= first_traced.scale
    figures["trace.enc_per_s_ratio"] = (
        statistics.median([first_traced.rate, second_traced.rate])
        / statistics.median(r.rate for r in plain)
    )
    return figures, plain + [first_traced, second_traced]


# Per-layer figures that are counts or ratios, not times, so never scaled.
COUNTS = frozenset({
    "backend.cache_key_per_call", "backend.hit_ratio", "backend.repeat_share", "backend.retries",
    "chain.calls_per_enc", "chain.serial_calls_per_enc", "chain.resolver_fire_rate",
    "promptkit.prompt_tokens_mean", "metrics.calls_per_enc",
})


def layer_metrics(
    ix: SpanIndex, distinct_keys: int, retries: int, backoff_s: float, latency_s: float
) -> dict[str, float]:
    """Per-layer figures of one traced set-up plus round. A layer the
    workload does not exercise reads 0."""
    completes = ix.by_name.get("backend.complete", [])
    misses = [s for s in completes if ix.has_child(s, "backend.transport")]
    hits = [s for s in completes if not ix.has_child(s, "backend.transport")]
    chain_encs = ix.by_name.get("chain.run_medsum_ent", [])
    eval_encs = ix.by_name.get("metrics.evaluate_encounter", [])
    chain_ids = {s[5] for s in chain_encs}
    eval_ids = {s[5] for s in eval_encs}
    chain_calls = [s for s in completes if s[5] in chain_ids]
    metric_calls = [s for s in completes if s[5] in eval_ids]
    waits: dict[str, list[tuple[float, float]]] = {}
    for s in ix.by_name.get("endpoint.send", []):
        waits.setdefault(s[5], []).append((s[2], s[3]))
    tokens = [s[6] for s in ix.by_name.get("promptkit.render", []) if s[6] is not None]

    def per(n: float, d: int) -> float:
        return n / d if d else 0.0

    def mean_us(spans: list) -> float:
        return per(sum(s[3] - s[2] for s in spans), len(spans)) * 1e6

    return {
        "backend.cache_key_us": ix.mean_us("backend.cache_key"),
        "backend.cache_key_per_call": per(ix.count("backend.cache_key"), len(completes)),
        "backend.complete_miss_us": mean_us(misses),
        "backend.complete_hit_us": mean_us(hits),
        "backend.hit_ratio": per(len(hits), len(completes)),
        "backend.repeat_share": per(len(completes) - distinct_keys, len(completes)),
        "backend.store_get_us": ix.mean_us("backend.store_get"),
        "backend.store_put_us": ix.mean_us("backend.store_put"),
        "backend.store_load_s": ix.mean_us("backend.store_load") / 1e6,
        "backend.transport_wait_ms": per(sum(e - s for v in waits.values() for s, e in v), len(chain_encs)) * 1e3,
        "backend.retries": retries,
        "backend.backoff_s": backoff_s,
        "chain.calls_per_enc": per(len(chain_calls), len(chain_encs)),
        "chain.serial_calls_per_enc": per(
            sum(busy_time(waits.get(i, [])) for i in chain_ids), len(chain_encs)
        ) / latency_s if latency_s else 0.0,
        "chain.resolver_fire_rate": per(
            sum(1 for s in chain_calls if s[6] == "unknown_resolver"), len(chain_encs)),
        "chain.run_medsum_ent_self_ms": per(sum(ix.self_time(s) for s in chain_encs), len(chain_encs)) * 1e3,
        "chain.collate_us": ix.mean_us("chain.collate"),
        "selection.select_random_us": ix.mean_us("selection.select_random"),
        "selection.select_semantic_us": ix.mean_us("selection.select_semantic"),
        "selection.build_index_s": sum(ix.durations("selection.build_index")),
        "promptkit.render_us": ix.mean_us("promptkit.render"),
        "promptkit.parse_entity_list_us": ix.mean_us("promptkit.parse_entity_list"),
        "promptkit.parse_summary_us": ix.mean_us("promptkit.parse_summary"),
        "promptkit.prompt_tokens_mean": per(sum(tokens), len(tokens)),
        "metrics.score_section_us": ix.mean_us("metrics.score_section"),
        "metrics.calls_per_enc": per(len(metric_calls), len(eval_encs)),
        "metrics.aggregate_ms": ix.mean_us("metrics.aggregate") / 1e3,
        "cli.load_dataset_ms": ix.mean_us("cli.load_dataset") / 1e3,
        "cli.load_records_ms": ix.mean_us("cli.load_records") / 1e3,
        "model.record_json_us": ix.mean_us("model.record_json"),
    }
