"""In-memory span tracer that wraps medsum's public functions from outside.

A span is `(id, name, start, end, parent, encounter_id, note)`. The parent
and the encounter id come from a context variable: each wrapper sets itself
as the parent of what it calls, and the wrapper of the function that
handles one encounter sets the encounter id. While the tracer is installed,
tasks submitted to a `ThreadPoolExecutor` run in a copy of the submitter's
context, so calls that the program fans out to a pool keep their parent and
encounter. `note` holds one cheap fact about the call (the prompt kind of a
completion, the token estimate of a rendered prompt).

`chain`, `metrics` and `cli` bind some functions by name at import, so each
function is wrapped in the defining module and in every module that binds
it; all bindings of one function share one wrapper.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable

import medsum.backend as backend
import medsum.chain as chain
import medsum.cli as cli
import medsum.metrics as metrics
import medsum.promptkit as promptkit
import medsum.selection as selection
from medsum.model import RunRecord

from endpoint import StandInEndpoint

Span = tuple[int, str, float, float, "int | None", "str | None", Any]


def _kind_note(args, _result):
    return args[1].prompt_kind.value


def _tokens_note(_args, result):
    return promptkit.estimate_tokens(result)


def _encounter_id(_tracer, args):
    return args[0].id


def _evaluation_id(tracer, _args):
    return f"eval-{next(tracer.evaluations)}"


# (span name, owner objects holding the binding, attribute, note, encounter-id source)
TARGETS: tuple[tuple[str, tuple[Any, ...], str, Callable | None, Callable | None], ...] = (
    ("backend.cache_key", (backend, chain), "cache_key", None, None),
    ("backend.complete", (backend.CompletionClient,), "complete", _kind_note, None),
    ("backend.transport", (backend.ReplayTransport, backend.RecordingTransport), "send", None, None),
    ("backend.store_load", (backend.ReplayStore,), "__init__", None, None),
    ("backend.store_get", (backend.ReplayStore,), "get", None, None),
    ("backend.store_put", (backend.ReplayStore,), "put", None, None),
    ("chain.run_medsum_ent", (chain,), "run_medsum_ent", None, _encounter_id),
    ("chain.collate", (chain,), "collate", None, None),
    ("selection.select_random", (selection, chain), "select_random", None, None),
    ("selection.select_semantic", (selection, chain), "select_semantic", None, None),
    ("selection.build_index", (selection, cli), "build_index", None, None),
    ("promptkit.render", (promptkit, chain, metrics), "render", _tokens_note, None),
    ("promptkit.parse_entity_list", (promptkit, chain), "parse_entity_list", None, None),
    ("promptkit.parse_summary", (promptkit, chain), "parse_summary", None, None),
    ("metrics.evaluate_encounter", (metrics, cli), "evaluate_encounter", None, _evaluation_id),
    ("metrics.score_section", (metrics,), "score_section", None, None),
    ("metrics.aggregate", (metrics, cli), "aggregate", None, None),
    ("cli.load_dataset", (cli,), "load_dataset", None, None),
    ("cli.load_records", (cli,), "load_records", None, None),
    ("model.record_json", (RunRecord,), "to_json_dict", None, None),
    ("model.record_json", (RunRecord,), "from_json_dict", None, None),
    ("endpoint.send", (StandInEndpoint,), "send", None, None),
)


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap the
    wrappers in and restore the original bindings."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        # (id of the innermost open span, encounter id) of the running code.
        self._current: contextvars.ContextVar[tuple[int | None, str | None]] = (
            contextvars.ContextVar("span", default=(None, None)))
        self._saved: list[tuple[Any, str, Any]] = []
        self.evaluations = itertools.count()  # ids for evaluate_encounter calls

    def wrap(self, name: str, fn: Callable, note=None, encounter_of=None):
        spans, ids, clock, current = self.spans, self._ids, time.perf_counter, self._current

        def traced(*args, **kwargs):
            sid = next(ids)
            parent, encounter = current.get()
            if encounter_of is not None:
                encounter = encounter_of(self, args)
            token = current.set((sid, encounter))
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                current.reset(token)
                spans.append((sid, name, start, end, parent, encounter,
                              note(args, result) if note is not None and result is not None else None))

        return traced

    def _swap(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        for name, owners, attr, note, encounter_of in TARGETS:
            wrappers: dict[int, Any] = {}  # one wrapper per distinct function
            for owner in owners:
                original = vars(owner).get(attr)
                if original is None:
                    continue  # renamed or removed: that layer reads as 0
                if id(original) not in wrappers:
                    is_classmethod = isinstance(original, classmethod)
                    wrapper = self.wrap(name, original.__func__ if is_classmethod else original,
                                        note, encounter_of)
                    wrappers[id(original)] = classmethod(wrapper) if is_classmethod else wrapper
                self._swap(owner, attr, wrappers[id(original)])
        submit = ThreadPoolExecutor.submit

        def submit_in_context(pool, fn, /, *args, **kwargs):
            return submit(pool, contextvars.copy_context().run, fn, *args, **kwargs)

        self._swap(ThreadPoolExecutor, "submit", submit_in_context)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: str | Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "encounter_id", "note")
        with Path(path).open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class SpanIndex:
    """Durations, self times and parent/child lookups over recorded spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            self.by_name[span[1]].append(span)
            if span[4] is not None:
                self.children[span[4]].append(span)

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.by_name.get(name, ())]

    def mean_us(self, name: str) -> float:
        d = self.durations(name)
        return sum(d) / len(d) * 1e6 if d else 0.0

    def self_time(self, span: Span) -> float:
        """The span's duration minus the part of it its children cover;
        children that a pool ran at once may overlap."""
        return (span[3] - span[2]) - busy_time([(c[2], c[3]) for c in self.children.get(span[0], ())])

    def has_child(self, span: Span, name: str) -> bool:
        return any(c[1] == name for c in self.children.get(span[0], ()))


def busy_time(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
