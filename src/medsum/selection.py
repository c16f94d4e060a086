"""In-context example selection over labeled pools.

Two strategies: seeded uniform draws without replacement, and exact
nearest-neighbor retrieval by cosine similarity over embedded queries.
Pools are small, so retrieval scores every example; an example's id is its
position in the pool. Random selection draws `Generator.permutation` over
numpy's PCG64, so a seed gives the same draw on every platform. NEP 19
keeps PCG64's seeding and raw stream fixed, but not the `Generator` method,
which may change between numpy releases; `tests/test_selection.py` checks
the draws against a pure-Python reference. numpy is imported by the
functions that draw, index or score, so importing this module does not load
it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .backend import EmbeddingGateway, decode_line, read_lines
from .model import ExampleKind, LabeledExample, json_field

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SelectionError",
    "SelectionQuery",
    "ExamplePool",
    "load_example_pools",
    "build_index",
    "select_random",
    "select_semantic",
    "select_semantic_many",
]


class SelectionError(RuntimeError):
    pass


@dataclass(frozen=True)
class SelectionQuery:
    """What gets embedded: the patient's age, sex, and the live input text."""

    age: int
    sex: str
    text: str

    def render(self) -> str:
        return f"age: {self.age}; sex: {self.sex}; {self.text}"


@dataclass
class ExamplePool:
    """Labeled examples for one prompt family, optionally with an embedding index.

    The index holds one row per example, aligned by position; treat pools as
    immutable once built. `row_norms` holds the index rows' Euclidean norms.
    """

    kind: ExampleKind
    examples: tuple[LabeledExample, ...]
    index: np.ndarray | None = None
    row_norms: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.kind = ExampleKind(self.kind)
        self.examples = tuple(self.examples)
        for example in self.examples:
            if example.kind is not self.kind:
                raise SelectionError(
                    f"example of kind {example.kind.value} in {self.kind.value} pool"
                )
        if self.index is not None:
            if len(self.index) != len(self.examples):
                raise SelectionError("index size does not match pool size")
            import numpy as np

            self.row_norms = np.sqrt((self.index * self.index).sum(axis=1))

    def __len__(self) -> int:
        return len(self.examples)


def load_example_pools(path: str | Path) -> dict[ExampleKind, ExamplePool]:
    """Load pools from a line-delimited JSON file, grouping records by kind.

    Each line is {kind, input_text, age, sex, label}, with an integer age
    and string texts; parse problems report the offending line number.
    """
    grouped: dict[ExampleKind, list[LabeledExample]] = {}
    for lineno, line in read_lines(path, SelectionError):
        try:
            record = decode_line(line)
            example = LabeledExample(
                kind=ExampleKind(record["kind"]),
                input_text=json_field("input_text", record["input_text"], str),
                age=json_field("age", record["age"], int),
                sex=json_field("sex", record["sex"], str),
                label=json_field("label", record["label"], str),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise SelectionError(f"{path}: bad example at line {lineno}: {exc}") from exc
        grouped.setdefault(example.kind, []).append(example)
    return {
        kind: ExamplePool(kind=kind, examples=tuple(examples))
        for kind, examples in grouped.items()
    }


def build_index(pool: ExamplePool, embedder: EmbeddingGateway) -> ExamplePool:
    """Embed every example's own query rendering in one batch and attach the
    index; a failed batch is retried one text at a time to name the example."""
    if not pool.examples:
        raise SelectionError("cannot index an empty pool")
    texts = [SelectionQuery(ex.age, ex.sex, ex.input_text).render() for ex in pool.examples]
    try:
        rows = embedder.embed_many(texts)
    except Exception as exc:
        for i, text in enumerate(texts):
            try:
                embedder.embed_many([text])
            except Exception as cause:
                raise SelectionError(f"embedding failed for example {i}: {cause}") from cause
        raise SelectionError(f"embedding failed for the pool: {exc}") from exc
    index = _checked_rows(rows, len(texts), embedder.dimension)
    return ExamplePool(kind=pool.kind, examples=pool.examples, index=index)


def _checked_rows(rows: np.ndarray, count: int, dimension: int) -> np.ndarray:
    """An `embed_many` result as floats, checked to hold one row per text."""
    import numpy as np

    rows = np.asarray(rows, dtype=float)
    if rows.shape != (count, dimension):
        raise SelectionError(f"embedding gave shape {rows.shape}, expected {(count, dimension)}")
    return rows


def select_random(pool: ExamplePool, k: int, seed: int) -> list[LabeledExample]:
    """k distinct examples, uniform without replacement, in draw order.

    Fully determined by the seed (PCG64).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > len(pool):
        raise ValueError(f"k={k} exceeds pool size {len(pool)}")
    return [pool.examples[i] for i in _order(seed, len(pool))[:k].tolist()]


@functools.lru_cache(maxsize=16)
def _order(seed: int, n: int) -> np.ndarray:
    """The seeded permutation of range(n), read-only.

    Building the generator costs more than the draws a prompt needs, and
    the draws of one encounter (one seed, pools of one size) repeat it; the
    permutation is drawn whole because its first k entries depend on all of
    it.
    """
    import numpy as np

    order = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    order.flags.writeable = False
    return order


def select_semantic(
    pool: ExamplePool,
    query: SelectionQuery,
    k: int,
    embedder: EmbeddingGateway,
) -> list[LabeledExample]:
    """The k pool examples most cosine-similar to the embedded query.

    Descending similarity; exact ties break toward the lower example id.
    """
    return select_semantic_many(pool, [query], k, embedder)[0]


def select_semantic_many(
    pool: ExamplePool, queries: Sequence[SelectionQuery], k: int, embedder: EmbeddingGateway
) -> list[list[LabeledExample]]:
    """`select_semantic` of each query, in order: the queries are embedded in
    one batch, before any is scored, and all are scored in one pass.

    A score sums a pair's elementwise products per row, as a BLAS product
    may not (equal rows could score an ulp apart), over the product of the
    norms; a zero denominator scores 0. With a float64 index and every norm
    in [2^-400, 2^400], so that nothing overflows, an einsum filter first
    scores every pair over the same denominators. In dimension d the two
    differ by at most 2 (d + 1) eps to first order, so a row of the exact
    top k is within 4 (d + 1) eps of the k-th filter score. Only rows within
    8 (d + 2) eps of it (a margin for second-order terms and rounding) are
    scored again. Other inputs have every pair scored.
    """
    if pool.index is None:
        raise SelectionError("pool has no index; call build_index first")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > len(pool):
        raise ValueError(f"k={k} exceeds pool size {len(pool)}")
    if not queries:
        return []
    import numpy as np

    texts = [query.render() for query in queries]
    raw = _checked_rows(embedder.embed_many(texts), len(texts), embedder.dimension)
    index, row_norms = pool.index, pool.row_norms
    norms = np.array([math.sqrt(float(vector @ vector)) for vector in raw])
    every, low, high = np.concatenate((norms, row_norms)), 2.0**-400, 2.0**400
    if k > 0 and index.dtype == float and ((every >= low) & (every <= high)).all():
        n, d = index.shape
        # einsum, not a matrix product, keeps the filter off BLAS and its buffers.
        filtered = np.einsum("ij,kj->ik", raw, index) / np.outer(norms, row_norms)
        floor = np.partition(filtered, n - k, axis=1)[:, n - k] - 8 * (d + 2) * np.finfo(float).eps
        rows, cols = np.nonzero(filtered >= floor[:, None])
    else:
        rows, cols = np.divmod(np.arange(len(raw) * len(index)), len(index))
    dots = (index[cols] * raw[rows]).sum(axis=1)
    denom = row_norms[cols] * norms[rows]
    scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    # rows ascend; within a vector, descending score, then ascending id.
    order = np.lexsort((cols, -scores, rows))
    counts = np.bincount(rows, minlength=len(raw))
    ranked = cols[order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]]
    return [[pool.examples[i] for i in ids] for ids in ranked.tolist()]
