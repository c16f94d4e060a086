"""Operator command line: dataset validation, corpus runs, metric evaluation,
and blinded review-packet generation.

Exit codes: 0 success, 1 validation/config error, 2 backend failure,
3 partial completion.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from pathlib import Path
from typing import Any, NamedTuple, Sequence

from .backend import (
    BackendError,
    CompletionClient,
    HashEmbedder,
    HTTPTransport,
    Transport,
    record_replay_store,
)
from .chain import ChainConfig, ChainDeps, Method, SelectionMode, run_many
from .metrics import (
    ConceptParseError,
    EncounterEvaluation,
    LLMConceptExtractor,
    LLMVerifier,
    RowKey,
    VerificationParseError,
    aggregate,
    evaluate_encounter,
    exact_match_verifier,
    segment_concept_extractor,
    write_csv_report,
    write_jsonl_report,
)
from .model import Encounter, ExampleKind, RunRecord, ValidationError, validate_encounter
from .promptkit import TokenBudget, load_templates, serialize_summary
from .selection import build_index, load_example_pools

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BACKEND = 2
EXIT_PARTIAL = 3

# Shown to reviewers inside every blinded packet.
REVIEW_QUESTIONS = (
    "Q1: How often are summaries written using MEDSUM preferred over naively "
    "generated summaries?",
    "Q2: What fraction of relevant clinical information is captured in the "
    "summaries generated by our method? (All, Most, Some, None)",
    "Q3: Does the summary generated by our method contain incorrect information "
    "that could significantly alter the course of treatment and potentially harm "
    "the patient if this summary was used by another medical provider?",
)

_METHOD_ALIASES = {
    "medsum": Method.MEDSUM_ENT,
    "medsum_ent": Method.MEDSUM_ENT,
    "naive": Method.NAIVE_BASELINE,
    "naive_baseline": Method.NAIVE_BASELINE,
}


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_CONFIG):
        self.exit_code = exit_code
        super().__init__(message)


class DatasetProblem(NamedTuple):
    """One problem with one dataset line; prints as `line <n>: <message>`."""

    lineno: int
    message: str

    def __str__(self) -> str:
        return f"line {self.lineno}: {self.message}"


def read_dataset(
    path: str | Path,
) -> tuple[list[tuple[int, Encounter]], list[DatasetProblem]]:
    """Parse a dataset file line by line.

    Returns (line number, encounter) pairs for valid lines plus the
    problems of the others. Duplicate ids name both lines involved.
    """
    path = Path(path)
    if not path.exists():
        raise CliError(f"dataset not found: {path}")
    encounters: list[tuple[int, Encounter]] = []
    problems: list[DatasetProblem] = []
    first_line_for_id: dict[str, int] = {}
    saw_any = False
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            saw_any = True
            try:
                raw = json.loads(line)
            except ValueError as exc:
                problems.append(DatasetProblem(lineno, f"invalid JSON: {exc}"))
                continue
            try:
                enc = validate_encounter(raw)
            except ValidationError as exc:
                problems.append(DatasetProblem(lineno, str(exc)))
                continue
            if enc.id in first_line_for_id:
                problems.append(
                    DatasetProblem(
                        lineno,
                        f"duplicate id {enc.id!r} "
                        f"(first seen at line {first_line_for_id[enc.id]})",
                    )
                )
                continue
            first_line_for_id[enc.id] = lineno
            encounters.append((lineno, enc))
    if not saw_any:
        raise CliError(f"dataset file is empty: {path}")
    return encounters, problems


def load_dataset(path: str | Path) -> list[Encounter]:
    """Strict load: any invalid line aborts."""
    encounters, problems = read_dataset(path)
    if problems:
        raise CliError("dataset invalid:\n" + "\n".join(map(str, problems)))
    return [enc for _, enc in encounters]


def load_records(path: str | Path) -> list[RunRecord]:
    path = Path(path)
    if not path.exists():
        raise CliError(f"run records not found: {path}")
    records = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(RunRecord.from_json_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise CliError(f"{path}: bad record at line {lineno}: {exc}") from exc
    return records


def load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    config_path = Path(path)
    if not config_path.exists():
        raise CliError(f"config file not found: {config_path}")
    try:
        config = json.loads(config_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CliError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise CliError("config file must hold a JSON object")
    return config


def build_budget(config: dict[str, Any]) -> TokenBudget:
    try:
        return TokenBudget(
            max_context_tokens=int(config.get("max_context_tokens", 4096)),
            inflation_factor=float(config.get("inflation_factor", 1.3)),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad run configuration: {exc}") from exc


def build_chain_config(config: dict[str, Any], seed_override: int | None) -> ChainConfig:
    budget = build_budget(config)
    try:
        return ChainConfig(
            extraction_k=int(config.get("extraction_k", 1)),
            summarization_k=int(config.get("summarization_k", 0)),
            selection_mode=SelectionMode(config.get("selection_mode", "random")),
            resolver_enabled=bool(config.get("resolver_enabled", True)),
            resolver_fail_closed=bool(config.get("resolver_fail_closed", False)),
            run_seed=seed_override if seed_override is not None else int(config.get("seed", 0)),
            budget=budget,
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad run configuration: {exc}") from exc


def build_transport(args: argparse.Namespace, config: dict[str, Any]) -> Transport:
    mode = args.backend
    store_path = args.replay_store or config.get("replay_store")
    if mode in ("record", "replay") and not store_path:
        raise CliError(f"--backend {mode} needs --replay-store")
    if mode == "replay":
        store = Path(store_path)
        if not store.exists():
            raise CliError(f"replay store not found: {store}")
        return record_replay_store(store, mode)
    endpoint = config.get("endpoint")
    if not endpoint:
        raise CliError(f"--backend {mode} needs an 'endpoint' in the config file")
    live = HTTPTransport(endpoint, model=config.get("model", "completion-model"))
    if mode == "record":
        return record_replay_store(store_path, mode, live)
    return live


def build_deps(
    args: argparse.Namespace,
    config: dict[str, Any],
    cfg: ChainConfig,
    method: Method,
) -> ChainDeps:
    client = CompletionClient(
        build_transport(args, config),
        max_in_flight=config.get("max_in_flight"),
    )
    templates = load_templates(config.get("templates_dir"))
    embedder = HashEmbedder(dimension=int(config.get("embedder_dim", 32)))

    needed: list[ExampleKind] = []
    if method is Method.MEDSUM_ENT:
        needed.extend([ExampleKind.RFE_EXTRACTION, ExampleKind.DIALOGUE_EXTRACTION])
    if cfg.summarization_k > 0:
        needed.append(ExampleKind.SUMMARIZATION)

    pools = {}
    if needed:
        pools_path = config.get("pools")
        if not pools_path:
            raise CliError("config needs a 'pools' path to an example-pool JSONL file")
        loaded = load_example_pools(pools_path)
        for kind in needed:
            if kind not in loaded:
                raise CliError(f"example pool file has no {kind.value!r} examples")
            pool = loaded[kind]
            if cfg.selection_mode is SelectionMode.SEMANTIC:
                pool = build_index(pool, embedder)
            pools[kind] = pool
    return ChainDeps(client=client, templates=templates, pools=pools, embedder=embedder)


def _whitespace_tokens(enc: Encounter) -> int:
    count = len(enc.rfe.split())
    for turn in enc.turns:
        count += len(turn.text.split())
    return count


def cmd_validate(args: argparse.Namespace) -> int:
    encounters, problems = read_dataset(args.dataset)
    by_line = {lineno: enc for lineno, enc in encounters}
    failed_lines: dict[int, list[DatasetProblem]] = {}
    for problem in problems:
        failed_lines.setdefault(problem.lineno, []).append(problem)

    for lineno in sorted(set(by_line) | set(failed_lines)):
        if lineno in failed_lines:
            for problem in failed_lines[lineno]:
                print(f"FAIL {problem}")
        else:
            print(f"PASS line {lineno}: encounter {by_line[lineno].id!r}")

    if encounters:
        turn_counts = [len(enc.turns) for _, enc in encounters]
        token_counts = [_whitespace_tokens(enc) for _, enc in encounters]
        print(f"encounters: {len(encounters)}")
        print(
            "turns: mean {:.1f}, min {}, max {}".format(
                statistics.fmean(turn_counts), min(turn_counts), max(turn_counts)
            )
        )
        print(f"whitespace tokens: mean {statistics.fmean(token_counts):.1f}")
    print(f"invalid lines: {len(failed_lines)}")
    return EXIT_OK if not problems else EXIT_CONFIG


def _existing_record_ids(path: Path) -> set[str]:
    ids: set[str] = set()
    if not path.exists():
        return ids
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                ids.add(json.loads(line)["encounter_id"])
            except (ValueError, KeyError, TypeError):
                raise CliError(f"output file {path} holds a corrupt record line")
    return ids


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    cfg = build_chain_config(config, args.seed)
    method = _METHOD_ALIASES[args.method]
    deps = build_deps(args, config, cfg, method)
    encounters = load_dataset(args.dataset)

    output = Path(args.output)
    done = _existing_record_ids(output)
    todo = [enc for enc in encounters if enc.id not in done]
    if done:
        print(f"resuming: {len(done)} encounters already in {output}")
    if not todo:
        print("nothing to do")
        return EXIT_OK

    workers = args.workers or int(config.get("workers", 1))
    outcomes = run_many(todo, cfg, deps, method, workers=workers)

    output.parent.mkdir(parents=True, exist_ok=True)
    succeeded = failed = 0
    with output.open("a", encoding="utf-8") as fh:
        for outcome in outcomes:
            if outcome.record is not None:
                fh.write(
                    json.dumps(
                        outcome.record.to_json_dict(),
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                    + "\n"
                )
                succeeded += 1
            else:
                failed += 1
                print(f"FAIL {outcome.encounter_id}: {outcome.error}", file=sys.stderr)
    print(f"ran {succeeded} encounters, {failed} failures -> {output}")
    if failed and succeeded:
        return EXIT_PARTIAL
    if failed:
        return EXIT_BACKEND
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    records = load_records(args.records)
    dataset = {enc.id: enc for enc in load_dataset(args.dataset)}

    if args.verifier == "exact":
        verifier = exact_match_verifier
        extractor = segment_concept_extractor
    else:
        config = load_config(args.config)
        client = CompletionClient(build_transport(args, config))
        templates = load_templates(config.get("templates_dir"))
        budget = build_budget(config)
        extractor = LLMConceptExtractor(client, templates["metric_extraction"], budget)
        verifier = LLMVerifier(client, templates["metric_verification"], budget)

    evaluations: list[EncounterEvaluation] = []
    skipped = 0
    try:
        for record in records:
            enc = dataset.get(record.encounter_id)
            if enc is None:
                print(
                    f"WARN encounter {record.encounter_id!r} not in dataset, skipped",
                    file=sys.stderr,
                )
                skipped += 1
                continue
            if enc.reference_summary is None:
                print(
                    f"WARN encounter {record.encounter_id!r} has no reference summary, skipped",
                    file=sys.stderr,
                )
                skipped += 1
                continue
            scores = evaluate_encounter(
                record.summary, enc.reference_summary, verifier, extractor
            )
            evaluations.append(
                EncounterEvaluation(record.encounter_id, RowKey.from_record(record), scores)
            )
    except (BackendError, ConceptParseError, VerificationParseError) as exc:
        raise CliError(f"backend failure during evaluation: {exc}", EXIT_BACKEND) from exc

    if not evaluations:
        raise CliError("no scorable encounters (missing references?)")
    rows = aggregate(evaluations, micro=args.micro)

    csv_path = Path(args.csv) if args.csv else Path(args.records).with_suffix(".report.csv")
    jsonl_path = (
        Path(args.jsonl) if args.jsonl else Path(args.records).with_suffix(".report.jsonl")
    )
    write_csv_report(rows, csv_path)
    write_jsonl_report(evaluations, jsonl_path)
    print(f"scored {len(evaluations)} encounters ({skipped} skipped)")
    print(f"wrote {csv_path} and {jsonl_path}")
    return EXIT_OK


def cmd_review_packets(args: argparse.Namespace) -> int:
    records_a = {r.encounter_id: r for r in load_records(args.records_a)}
    records_b = {r.encounter_id: r for r in load_records(args.records_b)}
    context = {}
    if args.dataset:
        context = {enc.id: enc for enc in load_dataset(args.dataset)}

    common = sorted(set(records_a) & set(records_b))
    for missing in sorted(set(records_a) ^ set(records_b)):
        print(f"WARN encounter {missing!r} present in only one file, skipped", file=sys.stderr)
    if not common:
        raise CliError("no encounters present in both record files")

    out_dir = Path(args.out)
    packets_dir = out_dir / "packets"
    packets_dir.mkdir(parents=True, exist_ok=True)

    rng = random.Random(args.seed)
    key: dict[str, dict[str, str]] = {}
    for encounter_id in common:
        pair = [records_a[encounter_id], records_b[encounter_id]]
        if rng.random() < 0.5:
            pair.reverse()
        key[encounter_id] = {"A": pair[0].method.value, "B": pair[1].method.value}
        packet: dict[str, Any] = {
            "encounter_id": encounter_id,
            "questions": list(REVIEW_QUESTIONS),
            "summary_a": serialize_summary(pair[0].summary),
            "summary_b": serialize_summary(pair[1].summary),
        }
        enc = context.get(encounter_id)
        if enc is not None:
            packet["context"] = {
                "rfe": enc.rfe,
                "age": enc.age,
                "sex": enc.sex,
                "dialogue": [
                    {"speaker": t.speaker.value, "text": t.text} for t in enc.turns
                ],
            }
        (packets_dir / f"{encounter_id}.json").write_text(
            json.dumps(packet, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    (out_dir / "key.json").write_text(
        json.dumps(key, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(common)} packets to {packets_dir} (key: {out_dir / 'key.json'})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medsum",
        description="Entity-grounded dialogue summarization pipeline and evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a dataset file and print corpus stats")
    p_validate.add_argument("dataset")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run a method over a corpus, one record per encounter")
    p_run.add_argument("dataset")
    p_run.add_argument("output")
    p_run.add_argument("--config", default=None)
    p_run.add_argument(
        "--method", choices=sorted(_METHOD_ALIASES), default="medsum_ent"
    )
    p_run.add_argument("--backend", choices=["live", "record", "replay"], default="replay")
    p_run.add_argument("--replay-store", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score run records against reference summaries")
    p_eval.add_argument("records")
    p_eval.add_argument("dataset")
    p_eval.add_argument("--verifier", choices=["llm", "exact"], default="exact")
    p_eval.add_argument("--config", default=None)
    p_eval.add_argument("--backend", choices=["live", "record", "replay"], default="replay")
    p_eval.add_argument("--replay-store", default=None)
    p_eval.add_argument("--micro", action="store_true", help="pool counts across encounters")
    p_eval.add_argument("--csv", default=None)
    p_eval.add_argument("--jsonl", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_review = sub.add_parser(
        "review-packets", help="emit blinded A/B review packets plus a sealed key file"
    )
    p_review.add_argument("records_a")
    p_review.add_argument("records_b")
    p_review.add_argument("out")
    p_review.add_argument("--seed", type=int, default=0)
    p_review.add_argument("--dataset", default=None)
    p_review.set_defaults(func=cmd_review_packets)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


def run() -> None:
    sys.exit(main())
