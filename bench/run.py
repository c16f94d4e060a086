"""Run one medsum benchmark workload and print its metrics.

    python3 bench/run.py --workload replay-cpu --seed 1 --seconds 30 --trace 0

From the repository root. This process only orchestrates: preparation
(corpus generation and store recording) runs in one child process, and the
workload in others, so each child's peak resident memory belongs to the
workload alone. With --trace 0 the timed phase is split over PARTS children
run one after another, and the end-to-end metrics are computed over their
pooled samples: a Python process's speed depends on its hash seed and
memory layout, so one process would be one sample of that. With --trace 1 a
single child runs a traced round and reports the per-layer metrics; its
spans are written to .bench_out/spans-<workload>.jsonl.

The last line of standard output is a JSON object with the metrics of
BENCHMARK.json; a readable summary goes to standard error. The workload's
outputs are checked on every round; a failed check reports
`"correct": false`, no metrics, and exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PARTS = 3
CHILD_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay-cpu", "record-latency", "eval-replay"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--prepare", metavar="DIR",
                        help="child mode: write the workload's prepared inputs into DIR")
    parser.add_argument("--measure", metavar="DIR",
                        help="child mode: measure with the inputs prepared in DIR")
    return parser.parse_args(argv)


def _import_workloads():
    sys.path.insert(0, str(SRC))
    import medsum

    if Path(medsum.__file__).resolve().parent != SRC / "medsum":
        sys.exit(f"error: imported medsum from {medsum.__file__}, not from {SRC}")
    import workloads

    return workloads


def _child(args: argparse.Namespace, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(extra[:1])} child failed with exit code {proc.returncode}")
    return proc


def prepare(args: argparse.Namespace) -> int:
    work = Path(args.prepare)
    manifest = _import_workloads().prepare(args.workload, args.seed, work)
    (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


def measure(args: argparse.Namespace) -> int:
    """Child mode: one process's share of the measurement, as JSON on stdout."""
    workloads = _import_workloads()
    work = Path(args.measure)
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    w = workloads.WORKLOADS[args.workload](manifest, work, args.seed)
    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        figures, rounds = workloads.traced(w, out / f"spans-{args.workload}.jsonl")
        payload, info = {"figures": figures}, {}
    else:
        samples, rounds, info = workloads.measure(w, args.seconds)
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        payload = {"samples": samples}
    print(json.dumps({
        **payload,
        "attempted": sum(r.encounters for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": [p for r in rounds for p in r.problems][:20],
        "info": info,
    }))
    return 0


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(parts: list[dict]) -> dict[str, float]:
    """End-to-end metrics over the samples of every measuring child."""
    pooled: dict[str, list[float]] = {}
    for part in parts:
        for name, values in part["samples"].items():
            pooled.setdefault(name, []).extend(values)
    durations = pooled["durations"]
    return {
        "enc_per_s": statistics.median(pooled["rates"]),
        "enc_p50_ms": statistics.median(durations) * 1e3,
        "enc_p95_ms": _percentile(durations, 0.95) * 1e3,
        "setup_s": statistics.median(pooled["setup_s"]),
        "peak_rss_mb": statistics.median(pooled["peak_rss_mb"]),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.prepare:
        return prepare(args)
    if args.measure:
        return measure(args)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    if not (SRC / "medsum" / "__init__.py").is_file():
        sys.exit(f"error: medsum sources not found under {SRC}")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    parts = []
    try:
        _child(args, "--prepare", str(work))
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        # The program already failed a check while its outputs were recorded.
        if manifest["problems"]:
            parts.append({"problems": manifest["problems"], "attempted": manifest["encounters"],
                          "failed": 0, "info": "preparation failed; nothing measured"})
        for _ in range(0 if parts else 1 if args.trace else PARTS):
            proc = _child(args, "--measure", str(work), "--seconds", str(args.seconds / PARTS))
            parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    problems = [p for part in parts for p in part["problems"]]
    figures = {} if problems else parts[0]["figures"] if args.trace else end_to_end(parts)
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing and not problems:
        problems.append(f"metrics not computed: {', '.join(missing)}")
    correct = not problems
    result = {
        "correct": correct,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": {} if not correct else {
            m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for part in parts:
        print(f"{args.workload} seed={args.seed} child: {part['info']}", file=sys.stderr)
    summary = ", ".join(f"{k}={v:.6g}" for k, v in sorted(figures.items()))
    if figures and not args.trace:
        summary += f"; encounter samples={sum(len(p['samples']['durations']) for p in parts)}"
    print(f"{args.workload} seed={args.seed}: {summary}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
