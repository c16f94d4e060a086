"""Operator command line: dataset validation, corpus runs, metric evaluation,
and blinded review-packet generation.

Exit codes: 0 success, 1 validation/config error, 2 backend failure,
3 partial completion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TypeVar

from .backend import (
    BackendError,
    CompletionClient,
    HashEmbedder,
    HTTPTransport,
    JsonlLog,
    RecordingTransport,
    ReplayStore,
    ReplayStoreError,
    ReplayTransport,
    Transport,
    decode_line,
    default_params,
    open_text,
    read_lines,
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
from .model import (
    Encounter,
    ExampleKind,
    LabeledExample,
    PromptKind,
    RecordHead,
    RunRecord,
    StructuredSummary,
    ValidationError,
    compact_json,
    json_field,
    validate_encounter,
    validate_reference,
)
from .promptkit import (
    BudgetExceededError,
    PromptTemplate,
    TemplateError,
    TokenBudget,
    bind,
    estimate_tokens,
    load_templates,
    serialize_summary,
)
from .selection import SelectionError, build_index, load_example_pools

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BACKEND = 2
EXIT_PARTIAL = 3

T = TypeVar("T")

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


def read_dataset(
    path: str | Path, check: Callable[[Any], T] = validate_encounter
) -> tuple[list[tuple[int, T]], list[tuple[int, str]]]:
    """Parse a dataset file line by line.

    Returns (line number, `check(decoded line)`) pairs for valid lines plus
    (line number, problem) pairs for the others. `check` is
    `validate_encounter` or `validate_reference`: it raises ValidationError
    or gives an object with an `id`. Duplicate ids name both lines involved.
    """
    encounters: list[tuple[int, T]] = []
    problems: list[tuple[int, str]] = []
    first_line_for_id: dict[str, int] = {}
    for lineno, line in read_lines(path, CliError):
        try:
            raw = decode_line(line)
        except ValueError as exc:
            problems.append((lineno, f"invalid JSON: {exc}"))
            continue
        try:
            enc = check(raw)
        except ValidationError as exc:
            problems.append((lineno, str(exc)))
            continue
        if enc.id in first_line_for_id:
            first = first_line_for_id[enc.id]
            problems.append((lineno, f"duplicate id {enc.id!r} (first seen at line {first})"))
            continue
        first_line_for_id[enc.id] = lineno
        encounters.append((lineno, enc))
    if not encounters and not problems:
        raise CliError(f"dataset file is empty: {path}")
    return encounters, problems


def _read_valid_dataset(path: str | Path, check: Callable[[Any], T]) -> list[T]:
    """Strict read: any invalid line aborts."""
    encounters, problems = read_dataset(path, check)
    if problems:
        raise CliError("dataset invalid:\n" + "\n".join(f"line {n}: {p}" for n, p in problems))
    return [enc for _, enc in encounters]


def load_dataset(path: str | Path) -> list[Encounter]:
    """Strict load: any invalid line aborts."""
    return _read_valid_dataset(path, validate_encounter)


def load_references(path: str | Path) -> dict[str, StructuredSummary | None]:
    """Each encounter's reference summary (or None) by id, after the checks
    of `load_dataset`, which refuses the same files with the same message;
    builds no Turn or Encounter."""
    return dict(_read_valid_dataset(path, validate_reference))


def load_records(path: str | Path) -> Iterator[RunRecord]:
    """The records of a run's output, decoded one line at a time as the
    caller takes them; a line that does not decode is a CliError when it
    is reached. Wrap the call in `list()` for a list."""
    return _read_records(path, RunRecord.from_json_dict)


def _read_records(path: str | Path, keep: Callable[[Any], T]) -> Iterator[T]:
    """`keep(decoded line)` for each line of a run's output, as the caller
    takes them; a line on which `decode_line` or `keep` raises ValueError,
    KeyError or TypeError is a CliError when it is reached."""
    for lineno, line in read_lines(path, CliError):
        try:
            kept = keep(decode_line(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise CliError(f"{path}: bad record at line {lineno}: {exc}") from exc
        yield kept


def _report_input(raw: Any) -> tuple[str, RowKey, StructuredSummary]:
    """What `eval` keeps of a record line: its id, report row and summary."""
    head = RecordHead.from_json_dict(raw)
    return head.encounter_id, RowKey.from_config(head.method, head.config), head.summary


# Each config key's JSON type and default; null leaves a key whose default is None unset.
CONFIG_KEYS: dict[str, tuple[type, Any]] = {
    "extraction_k": (int, 1),
    "summarization_k": (int, 0),
    "selection_mode": (str, "random"),
    "resolver_enabled": (bool, True),
    "resolver_fail_closed": (bool, False),
    "seed": (int, 0),
    "max_context_tokens": (int, 4096),
    "inflation_factor": (float, 1.3),
    "pools": (str, None),
    "replay_store": (str, None),
    "templates_dir": (str, None),
    "endpoint": (str, None),
    "model": (str, "completion-model"),
    "workers": (int, None),
    "max_in_flight": (int, None),
}


def load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open_text(path, CliError) as fh:
            config = json.loads(fh.read())
    except ValueError as exc:
        raise CliError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise CliError("config file must hold a JSON object")
    for key in config:  # each checked, also one that a flag overrides
        if key not in CONFIG_KEYS:
            import difflib  # only a refused file needs it

            near = difflib.get_close_matches(key, CONFIG_KEYS, n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            raise CliError(f"bad run configuration: unknown key {key!r}{hint}")
        setting(config, key)
    return config


def setting(config: dict[str, Any], key: str) -> Any:
    """`config[key]`, or its default, if `json_field` passes it as its row's
    type, else a CliError; an integer number comes back a float, as records hold it."""
    kind, default = CONFIG_KEYS[key]
    value = config.get(key, default)
    if key in ("workers", "max_in_flight"):
        return _positive_int(key, value)
    if value is None and default is None:
        return None
    try:
        return kind(json_field(key, value, kind))
    except TypeError as exc:
        raise CliError(f"bad run configuration: {exc}") from exc


def _positive_int(key: str, value: Any) -> int | None:
    """A value that must be a positive integer when it is set."""
    if value is not None and (type(value) is not int or value <= 0):
        raise CliError(f"bad run configuration: {key} must be a positive integer, got {value!r}")
    return value


def build_chain_config(config: dict[str, Any], seed_override: int | None) -> ChainConfig:
    try:
        return ChainConfig(
            extraction_k=setting(config, "extraction_k"),
            summarization_k=setting(config, "summarization_k"),
            selection_mode=setting(config, "selection_mode"),
            resolver_enabled=setting(config, "resolver_enabled"),
            resolver_fail_closed=setting(config, "resolver_fail_closed"),
            run_seed=setting(config, "seed") if seed_override is None else seed_override,
            budget=TokenBudget(
                max_context_tokens=setting(config, "max_context_tokens"),
                inflation_factor=setting(config, "inflation_factor"),
            ),
        )
    except ValueError as exc:
        raise CliError(f"bad run configuration: {exc}") from exc


def _leave_room(budget: TokenBudget, kinds: Sequence[PromptKind],
                prompts: Sequence[tuple[PromptTemplate, Sequence[LabeledExample], int]] = ()
                ) -> TokenBudget:
    """`budget`, or a CliError if no prompt fits beside a completion of
    `kinds`, or if one of `prompts`, (template, pool examples, k) of a
    prompt that every encounter sends, fits in no encounter.

    A prompt's floor is `estimate_tokens` of its template bound with age 0,
    an empty sex, no input and the k examples with the fewest words, plus
    its completion's `max_tokens`. No real prompt of the template has fewer
    words, so a budget below the floor fails every encounter: filling a
    slot inserts text, which never lowers a whitespace word count; an age
    is one word, as "0" is; and a block of examples starts with "Example:"
    and ends with whitespace, so its words add alike whichever k it holds.
    """
    reserve = max(default_params(kind).max_tokens for kind in kinds)
    if budget.max_context_tokens <= reserve:
        raise CliError(f"bad run configuration: max_context_tokens must be above {reserve}, "
                       f"the tokens a completion reserves, got {budget.max_context_tokens}")
    for template, examples, k in prompts:
        # A rendered example's words are a fixed count plus those of its sex, input and label.
        fewest = sorted(examples, key=lambda e: len(f"{e.sex} {e.input_text} {e.label}".split()))
        try:
            bind(template, age=0, sex="", examples=fewest[:k], budget=budget).check("")
        except BudgetExceededError as exc:
            kind = template.kind.value
            floor = exc.estimated + default_params(kind).max_tokens
            raise CliError(f"bad run configuration: max_context_tokens must be at least {floor} "
                           f"for a {kind} prompt to fit, got {budget.max_context_tokens}") from exc
    return budget


def build_transport(args: argparse.Namespace, config: dict[str, Any]) -> Transport:
    """The transport of `--backend`; an `endpoint` that is not an http or
    https URL, or a $MEDSUM_API_KEY that a header cannot carry, is refused
    before any store is created."""
    mode = args.backend
    store_path = args.replay_store or setting(config, "replay_store")
    if mode in ("record", "replay") and not store_path:
        raise CliError(f"--backend {mode} needs --replay-store")
    if mode == "replay":
        return ReplayTransport(ReplayStore(store_path))
    endpoint = setting(config, "endpoint")
    if not endpoint:
        raise CliError(f"--backend {mode} needs an 'endpoint' in the config file")
    try:
        live = HTTPTransport(endpoint, model=setting(config, "model"))
    except ValueError as exc:
        raise CliError(f"bad run configuration: {exc}") from exc
    if mode == "record":
        return RecordingTransport(live, ReplayStore(store_path, create=True))
    return live


def build_client(args: argparse.Namespace, config: dict[str, Any]) -> CompletionClient:
    """The completion client of `run` and `eval`."""
    max_in_flight = setting(config, "max_in_flight")
    return CompletionClient(build_transport(args, config), max_in_flight=max_in_flight)


def build_deps(args: argparse.Namespace, config: dict[str, Any], cfg: ChainConfig,
               method: Method) -> ChainDeps:
    """What a run of `method` needs, once the budget is known to hold the
    prompts that every encounter sends (see `_leave_room`)."""
    embedder = HashEmbedder()

    needed: list[ExampleKind] = []
    if method is Method.MEDSUM_ENT:
        needed.extend([ExampleKind.RFE_EXTRACTION, ExampleKind.DIALOGUE_EXTRACTION])
    if cfg.summarization_k > 0:
        needed.append(ExampleKind.SUMMARIZATION)

    pools = {}
    if needed:
        pools_path = setting(config, "pools")
        if not pools_path:
            raise CliError("config needs a 'pools' path to an example-pool JSONL file")
        try:
            loaded = load_example_pools(pools_path)
        except SelectionError as exc:
            raise CliError(f"example pools: {exc}") from exc
        for kind in needed:
            if kind not in loaded:
                raise CliError(f"example pool file has no {kind.value!r} examples")
            pool = loaded[kind]
            name, k = cfg.shots(kind)
            if len(pool) < k:
                raise CliError(
                    f"example pool file has {len(pool)} {kind.value!r} examples; {name} is {k}"
                )
            if cfg.selection_mode is SelectionMode.SEMANTIC:
                pool = build_index(pool, embedder)
            pools[kind] = pool
    templates = load_templates(setting(config, "templates_dir") or None)  # "" is unset, not "."
    # Every encounter has a turn, so MEDSUM-ENT sends both extraction prompts.
    ids = ["baseline_summarization"] if method is Method.NAIVE_BASELINE else [
        "rfe_extraction", "dialogue_extraction", "summarization"]
    prompts = []
    for template in map(templates.__getitem__, ids):
        kind = ExampleKind(template.kind.value)
        k = cfg.shots(kind)[1]
        prompts.append((template, pools[kind].examples if k else (), k))
    _leave_room(cfg.budget, [t.kind for t, _, _ in prompts], prompts)
    return ChainDeps(build_client(args, config), templates, pools, embedder)


def cmd_validate(args: argparse.Namespace) -> int:
    encounters, problems = read_dataset(args.dataset)
    # Each line has one encounter or one problem.
    for lineno, found in sorted([*encounters, *problems], key=lambda item: item[0]):
        if isinstance(found, Encounter):
            print(f"PASS line {lineno}: encounter {found.id!r}")
        else:
            print(f"FAIL line {lineno}: {found}")

    if encounters:
        turn_counts = [len(enc.turns) for _, enc in encounters]
        token_counts = [
            sum(estimate_tokens(text, 1.0) for text in (enc.rfe, *(t.text for t in enc.turns)))
            for _, enc in encounters
        ]
        print(f"encounters: {len(encounters)}")
        print(
            "turns: mean {:.1f}, min {}, max {}".format(
                statistics.fmean(turn_counts), min(turn_counts), max(turn_counts)
            )
        )
        print(f"whitespace tokens: mean {statistics.fmean(token_counts):.1f}")
    print(f"invalid lines: {len(problems)}")
    return EXIT_OK if not problems else EXIT_CONFIG


def _existing_record_ids(output: JsonlLog, method: Method, config: dict[str, Any]) -> set[str]:
    """Encounter ids of the records in a run's output, none if it is missing.

    Each line is decoded by `RecordHead`, so a line `eval` refuses is a
    corrupt one, the last line too. Every record must come from `method` run
    with `config` (a ChainConfig snapshot); a record of another method or
    configuration is a CliError naming both, so one output file never mixes
    configurations. A torn last line, one that does not decode, is dropped
    with a warning, and its encounter runs again.
    """
    ids: set[str] = set()
    if not output.path.exists():  # a fresh run
        return ids

    def take(lineno: int, item: Any) -> None:
        head = RecordHead.from_json_dict(item)
        if head.method is not method or head.config != config:
            raise CliError(
                f"output file {output.path} holds records of another configuration: line "
                f"{lineno} has method {head.method.value!r} and config "
                f"{compact_json(head.config)}; this run has method {method.value!r} and "
                f"config {compact_json(config)}. Write to another output file."
            )
        ids.add(head.encounter_id)

    warn = partial(print, f"WARN output file {output.path}:", file=sys.stderr)
    output.read(take, warn, lambda message: CliError(f"output file {message}"))
    return ids


def _keep_inputs(output: Path, templates: dict[str, PromptTemplate], pools: str | None,
                 resuming: bool) -> None:
    """Keep `<output>.inputs.json`, the SHA-256 of each template by id and of the pool file
    (null if none): refuse one of other inputs when `resuming` records, else write it whole."""
    inputs = {key: hashlib.sha256(t.preamble.encode()).hexdigest() for key, t in templates.items()}
    inputs["pools"] = hashlib.sha256(Path(pools).read_bytes()).hexdigest() if pools else None
    text = (json.dumps(inputs, indent=1) + "\n").encode()
    sidecar = output.with_name(output.name + ".inputs.json")
    kept = sidecar.read_bytes() if sidecar.exists() else None
    if resuming and kept not in (None, text):
        try:
            was = json.loads(kept)
            changed = [name for name, digest in inputs.items() if was.get(name, "") != digest]
        except (ValueError, AttributeError) as exc:
            raise CliError(f"{sidecar} is corrupt: {exc}") from exc
        if changed:
            raise CliError(f"output file {output} was written from other inputs: "
                           f"{', '.join(changed)} changed. Write to another output file.")
    if kept != text:  # written beside, then moved over it, so never torn
        part = sidecar.with_name(sidecar.name + ".part")
        part.write_bytes(text)
        part.replace(sidecar)


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    cfg = build_chain_config(config, args.seed)
    workers = _positive_int("--workers", args.workers) or setting(config, "workers") or 1
    method = _METHOD_ALIASES[args.method]
    deps = build_deps(args, config, cfg, method)
    output = JsonlLog(args.output)
    succeeded = failed = 0
    try:
        encounters = load_dataset(args.dataset)
        done = _existing_record_ids(output, method, cfg.snapshot())
        todo = [enc for enc in encounters if enc.id not in done]
        # Opened before anything runs, so the file exists and a torn tail is
        # mended even when nothing runs or the run stops before its first record.
        try:
            output.path.parent.mkdir(parents=True, exist_ok=True)
            pools = setting(config, "pools") if deps.pools else None
            _keep_inputs(output.path, deps.templates, pools, resuming=bool(done))
            output.open()
        except OSError as exc:  # its directory is a file, say
            raise CliError(f"cannot write {output.path}: {exc.strerror}") from exc
        if done:
            print(f"resuming: {len(done)} encounters already in {output.path}")
        if not todo:
            print("nothing to do")
            return EXIT_OK
        # Each record is written and flushed once it and every earlier one
        # are done, so an interrupted run keeps a prefix of its output to
        # resume.
        for outcome in run_many(todo, cfg, deps, method, workers=workers):
            if outcome.record is not None:
                output.append(outcome.record.to_json_line())
                succeeded += 1
            else:
                failed += 1
                print(f"FAIL {outcome.encounter_id}: {outcome.error}", file=sys.stderr)
    finally:
        output.close()
        deps.client.close()
    print(f"ran {succeeded} encounters, {failed} failures -> {output.path}")
    if failed and succeeded:
        return EXIT_PARTIAL
    if failed:
        return EXIT_BACKEND
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    # Every record and dataset line is decoded and checked before the first
    # scoring call; only what scoring needs is kept of each.
    scorable = list(_read_records(args.records, _report_input))
    references = load_references(args.dataset)

    config = load_config(args.config)  # checked for either verifier
    client = None
    if args.verifier == "exact":
        verifier = exact_match_verifier
        extractor = segment_concept_extractor
    else:
        kinds = PromptKind.METRIC_EXTRACTION, PromptKind.METRIC_VERIFICATION
        budget = _leave_room(build_chain_config(config, None).budget, kinds)
        templates = load_templates(setting(config, "templates_dir") or None)
        client = build_client(args, config)
        extractor = LLMConceptExtractor(client, templates["metric_extraction"], budget)
        verifier = LLMVerifier(client, templates["metric_verification"], budget)

    evaluations: list[EncounterEvaluation] = []
    skipped = 0
    try:
        for encounter_id, row_key, summary in scorable:
            reference = references.get(encounter_id)
            if reference is None:
                known = encounter_id in references
                why = "has no reference summary" if known else "not in dataset"
                print(f"WARN encounter {encounter_id!r} {why}, skipped", file=sys.stderr)
                skipped += 1
                continue
            try:
                scores = evaluate_encounter(summary, reference, verifier, extractor)
            except BudgetExceededError as exc:
                raise CliError(
                    f"encounter {encounter_id!r}: a metric prompt does not fit the budget: {exc}"
                ) from exc
            evaluations.append(EncounterEvaluation(encounter_id, row_key, scores))
    except (BackendError, ConceptParseError, VerificationParseError) as exc:
        raise CliError(f"backend failure during evaluation: {exc}", EXIT_BACKEND) from exc
    finally:
        if client is not None:
            client.close()

    if not evaluations:
        raise CliError("no scorable encounters (missing references?)")
    rows = aggregate(evaluations, micro=args.micro)

    csv_path = Path(args.csv or Path(args.records).with_suffix(".report.csv"))
    jsonl_path = Path(args.jsonl or Path(args.records).with_suffix(".report.jsonl"))
    try:
        write_csv_report(rows, csv_path)
        write_jsonl_report(evaluations, jsonl_path)
    except OSError as exc:  # a directory, say
        raise CliError(f"cannot write {exc.filename}: {exc.strerror}") from exc
    print(f"scored {len(evaluations)} encounters ({skipped} skipped)")
    print(f"wrote {csv_path} and {jsonl_path}")
    return EXIT_OK


def cmd_review_packets(args: argparse.Namespace) -> int:
    # Only each encounter's (method, summary) is kept; a later record wins.
    records_a, records_b = (
        {h.encounter_id: (h.method, h.summary) for h in _read_records(p, RecordHead.from_json_dict)}
        for p in (args.records_a, args.records_b)
    )
    context = {enc.id: enc for enc in load_dataset(args.dataset)} if args.dataset else {}

    common = sorted(set(records_a) & set(records_b))
    for missing in sorted(set(records_a) ^ set(records_b)):
        print(f"WARN encounter {missing!r} present in only one file, skipped", file=sys.stderr)
    if not common:
        raise CliError("no encounters present in both record files")

    for encounter_id in common:  # each names a file in packets/
        try:
            os.fsencode(encounter_id)  # a lone surrogate, say, is a UnicodeEncodeError
            named = encounter_id not in (".", "..") and not any(c in encounter_id for c in "/\\\0")
        except UnicodeEncodeError:
            named = False
        if not named:
            raise CliError(f"encounter id {encounter_id!r} cannot name a packet file")
    out_dir = Path(args.out)
    packets_dir = out_dir / "packets"
    rng = random.Random(args.seed)
    key: dict[str, dict[str, str]] = {}
    try:
        packets_dir.mkdir(parents=True, exist_ok=True)
        for encounter_id in common:
            pair = [records_a[encounter_id], records_b[encounter_id]]
            if rng.random() < 0.5:
                pair.reverse()
            (method_a, summary_a), (method_b, summary_b) = pair
            key[encounter_id] = {"A": method_a.value, "B": method_b.value}
            packet: dict[str, Any] = {
                "encounter_id": encounter_id,
                "questions": list(REVIEW_QUESTIONS),
                "summary_a": serialize_summary(summary_a),
                "summary_b": serialize_summary(summary_b),
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
    except OSError as exc:  # under a regular file, or onto a directory, say
        raise CliError(f"cannot write {exc.filename}: {exc.strerror}") from exc
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
    except TemplateError as exc:  # a template that fails its checks
        print(f"error: bad template: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReplayStoreError as exc:  # a store that cannot be read or made, or a corrupt line
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
