"""In-context example selection over labeled pools.

Two strategies: seeded uniform draws without replacement, and exact
nearest-neighbor retrieval by cosine similarity over embedded queries.
Pools are small, so retrieval is a full linear scan; an example's id is its
position in the pool. Random selection uses numpy's PCG64 generator so a
seed reproduces the same draw on every platform. numpy is imported by the
functions that draw, index or score, so importing this module does not load
it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

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
    """Embed every example's own query rendering and attach the index."""
    if not pool.examples:
        raise SelectionError("cannot index an empty pool")
    import numpy as np

    rows = []
    for i, example in enumerate(pool.examples):
        query = SelectionQuery(age=example.age, sex=example.sex, text=example.input_text)
        try:
            rows.append(np.asarray(embedder.embed(query.render()), dtype=float))
        except Exception as exc:
            raise SelectionError(f"embedding failed for example {i}: {exc}") from exc
    return ExamplePool(kind=pool.kind, examples=pool.examples, index=np.vstack(rows))


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
    if pool.index is None:
        raise SelectionError("pool has no index; call build_index first")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > len(pool):
        raise ValueError(f"k={k} exceeds pool size {len(pool)}")
    import numpy as np

    query_vector = np.asarray(embedder.embed(query.render()), dtype=float)
    similarities = _cosine_scores(pool.index, pool.row_norms, query_vector)
    # A stable sort keeps equal scores in id order.
    ranked = np.argsort(-similarities, kind="stable")[:k]
    return [pool.examples[i] for i in ranked]


def _cosine_scores(
    index: np.ndarray, row_norms: np.ndarray, query_vector: np.ndarray
) -> np.ndarray:
    # Elementwise multiply + per-row sum rather than a BLAS matvec: BLAS may
    # accumulate different rows in different orders, so bit-identical rows
    # could score apart by one ulp and defeat the deterministic tie rule.
    scores = (index * query_vector).sum(axis=1)
    denom = row_norms * math.sqrt(float(query_vector @ query_vector))
    nonzero = denom > 0
    scores[nonzero] /= denom[nonzero]
    scores[~nonzero] = 0.0
    return scores
