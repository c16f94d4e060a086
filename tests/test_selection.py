import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsum.backend import HashEmbedder
from medsum.model import ExampleKind, LabeledExample
from medsum.selection import (
    ExamplePool,
    SelectionError,
    SelectionQuery,
    build_index,
    load_example_pools,
    select_random,
    select_semantic,
    select_semantic_many,
    _order,
)

from conftest import make_pool, reference_permutation


class FixedEmbedder:
    """Maps known texts to preset vectors; anything else embeds as zeros."""

    def __init__(self, mapping, dimension):
        self.mapping = mapping
        self.dimension = dimension

    def embed_many(self, texts):
        return np.array([self.mapping.get(t, [0.0] * self.dimension) for t in texts], dtype=float)


def brute_force_top_k(vectors, query, k):
    """Independent oracle: pure-python cosine scan with the same tie rule."""
    scores = []
    for i, vector in enumerate(vectors):
        dot = sum(a * b for a, b in zip(vector, query))
        nv = math.sqrt(sum(a * a for a in vector))
        nq = math.sqrt(sum(b * b for b in query))
        scores.append(dot / (nv * nq) if nv > 0 and nq > 0 else 0.0)
    ranked = sorted(range(len(vectors)), key=lambda i: (-scores[i], i))
    return ranked[:k]


def full_scan_top_k(rows, query, k):
    """The ranking select_semantic has always given: numpy's per-row sums,
    a zero norm scoring 0, then a stable sort on the negated scores."""
    dots = (rows * query).sum(axis=1)
    denom = np.sqrt((rows * rows).sum(axis=1)) * math.sqrt(float(query @ query))
    scores = np.zeros(len(rows))
    scores[denom > 0] = dots[denom > 0] / denom[denom > 0]
    return np.argsort(-scores, kind="stable")[:k].tolist()


def pool_with_vectors(vectors):
    examples = tuple(
        LabeledExample(
            kind=ExampleKind.RFE_EXTRACTION,
            input_text=f"text {i}",
            age=i,
            sex="female",
            label="- x (present)",
        )
        for i in range(len(vectors))
    )
    mapping = {
        SelectionQuery(age=ex.age, sex=ex.sex, text=ex.input_text).render(): vectors[i]
        for i, ex in enumerate(examples)
    }
    return ExamplePool(ExampleKind.RFE_EXTRACTION, examples), mapping


class TestBuildIndex:
    def test_index_has_one_vector_per_example(self):
        pool = build_index(make_pool(ExampleKind.RFE_EXTRACTION, 5), HashEmbedder(16))
        assert pool.index.shape == (5, 16)

    def test_rebuild_identical(self):
        base = make_pool(ExampleKind.RFE_EXTRACTION, 4)
        a = build_index(base, HashEmbedder(16))
        b = build_index(base, HashEmbedder(16))
        assert np.array_equal(a.index, b.index)

    def test_empty_pool_is_error(self):
        pool = ExamplePool(ExampleKind.RFE_EXTRACTION, ())
        with pytest.raises(SelectionError):
            build_index(pool, HashEmbedder(8))

    def test_embedding_failure_names_example(self):
        class Exploding:
            dimension = 4

            def embed_many(self, texts):
                raise RuntimeError("boom")

        with pytest.raises(SelectionError, match="example 0"):
            build_index(make_pool(ExampleKind.RFE_EXTRACTION, 3), Exploding())

    def test_embedding_failure_names_the_first_failing_example(self):
        pool = make_pool(ExampleKind.RFE_EXTRACTION, 4)
        ex = pool.examples[2]
        bad = SelectionQuery(ex.age, ex.sex, ex.input_text).render()

        class RefusesOne:
            dimension = 4

            def embed_many(self, texts):
                if bad in texts:
                    raise RuntimeError("refused")
                return HashEmbedder(4).embed_many(texts)

        with pytest.raises(SelectionError, match="example 2: refused"):
            build_index(pool, RefusesOne())

    def test_batch_only_failure_names_the_pool(self):
        class RefusesBatches:
            dimension = 4

            def embed_many(self, texts):
                if len(texts) > 1:
                    raise RuntimeError("batch too large")
                return HashEmbedder(4).embed_many(texts)

        with pytest.raises(SelectionError, match="the pool: batch too large"):
            build_index(make_pool(ExampleKind.RFE_EXTRACTION, 3), RefusesBatches())

    @pytest.mark.parametrize("shape", [(2, 4), (3, 3), (3,)])
    def test_result_of_the_wrong_shape_is_named(self, shape):
        class Misshapen:
            dimension = 4

            def embed_many(self, texts):
                return np.zeros(shape)

        named = rf"shape {re.escape(str(shape))}, expected \(3, 4\)"
        with pytest.raises(SelectionError, match=named):
            build_index(make_pool(ExampleKind.RFE_EXTRACTION, 3), Misshapen())


class TestSelectRandom:
    def test_full_draw_is_permutation(self):
        pool = make_pool(ExampleKind.RFE_EXTRACTION, 6)
        drawn = select_random(pool, 6, seed=7)
        assert sorted(e.input_text for e in drawn) == sorted(
            e.input_text for e in pool.examples
        )

    def test_same_seed_same_selection(self):
        pool = make_pool(ExampleKind.RFE_EXTRACTION, 10)
        assert select_random(pool, 4, seed=123) == select_random(pool, 4, seed=123)

    def test_zero_k(self):
        assert select_random(make_pool(ExampleKind.RFE_EXTRACTION, 3), 0, seed=1) == []

    def test_k_exceeding_pool_is_error(self):
        with pytest.raises(ValueError):
            select_random(make_pool(ExampleKind.RFE_EXTRACTION, 3), 4, seed=1)

    def test_pinned_draw_for_generator_stability(self):
        # PCG64 with a fixed seed must reproduce this draw on any platform;
        # frozen from the declared generator, guards against silent PRNG swaps.
        pool = make_pool(ExampleKind.RFE_EXTRACTION, 5)
        drawn = select_random(pool, 3, seed=42)
        assert [pool.examples.index(e) for e in drawn] == [4, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 9), st.integers(0, 2**64 - 1)),
        n=st.sampled_from([1, 2, 3, 60, 300, 1000]),
    )
    def test_order_is_the_pure_python_reference_stream(self, seed, n):
        """`_order` rests on `Generator.permutation`, which NEP 19 leaves free
        to change between numpy releases; a change fails here, by name."""
        assert _order(seed, n).tolist() == reference_permutation(seed, n)

    @settings(max_examples=40, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(
                # A few small seeds repeat across calls; large ones do not.
                st.one_of(st.integers(0, 5), st.integers(0, 2**64 - 1)),
                st.integers(1, 40),
                st.integers(0, 40),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_memoized_draws_equal_a_fresh_generator(self, calls):
        """Draws repeated and interleaved from 8 threads are each the first
        k of a fresh PCG64 permutation, whatever the memo holds."""
        pools = {n: make_pool(ExampleKind.RFE_EXTRACTION, n) for _, n, _ in calls}
        calls = [(seed, n, min(k, n)) for seed, n, k in calls]
        expected = [
            np.random.Generator(np.random.PCG64(seed)).permutation(n)[:k].tolist()
            for seed, n, k in calls
        ]
        results = [[None] * len(calls) for _ in range(8)]
        start = threading.Barrier(8)

        def worker(t):
            start.wait(timeout=10)
            order = range(len(calls)) if t % 2 else reversed(range(len(calls)))
            for i in order:
                seed, n, k = calls[i]
                drawn = select_random(pools[n], k, seed)
                results[t][i] = [pools[n].examples.index(e) for e in drawn]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result == expected for result in results)


class TestSelectSemantic:
    def test_self_query_ranks_first_with_unit_similarity(self):
        embedder = HashEmbedder(24)
        pool = build_index(make_pool(ExampleKind.RFE_EXTRACTION, 5), embedder)
        target = pool.examples[3]
        query = SelectionQuery(age=target.age, sex=target.sex, text=target.input_text)
        top = select_semantic(pool, query, 1, embedder)[0]
        assert top == target
        similarity = float(
            pool.index[3] @ np.asarray(embedder.embed_many([query.render()])[0])
        )
        assert abs(similarity - 1.0) < 1e-9

    def test_k1_matches_brute_force_argmax(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(20, 8)).tolist()
        pool, mapping = pool_with_vectors(vectors)
        query_vec = rng.normal(size=8).tolist()
        query = SelectionQuery(age=99, sex="other", text="the query")
        mapping[query.render()] = query_vec
        embedder = FixedEmbedder(mapping, 8)
        pool = build_index(pool, embedder)
        [top] = select_semantic(pool, query, 1, embedder)
        oracle = brute_force_top_k(vectors, query_vec, 1)
        assert pool.examples.index(top) == oracle[0]

    def test_exact_tie_breaks_toward_lower_id(self):
        same = [1.0, 0.0, 0.0]
        vectors = [[0.0, 1.0, 0.0], same, same]
        pool, mapping = pool_with_vectors(vectors)
        query = SelectionQuery(age=99, sex="other", text="q")
        mapping[query.render()] = same
        embedder = FixedEmbedder(mapping, 3)
        pool = build_index(pool, embedder)
        chosen = select_semantic(pool, query, 2, embedder)
        assert [pool.examples.index(e) for e in chosen] == [1, 2]

    def test_missing_index_is_error(self):
        pool = make_pool(ExampleKind.RFE_EXTRACTION, 3)
        with pytest.raises(SelectionError, match="index"):
            select_semantic(
                pool, SelectionQuery(1, "f", "q"), 1, HashEmbedder(8)
            )

    def test_query_rows_of_the_wrong_shape_are_named(self):
        pool = build_index(make_pool(ExampleKind.RFE_EXTRACTION, 3), HashEmbedder(8))

        class OneRowShort:
            dimension = 8

            def embed_many(self, texts):
                return HashEmbedder(8).embed_many(texts[1:])

        queries = [SelectionQuery(1, "f", "q"), SelectionQuery(2, "m", "r")]
        with pytest.raises(SelectionError, match=r"shape \(1, 8\), expected \(2, 8\)"):
            select_semantic_many(pool, queries, 1, OneRowShort())

    def test_k_exceeding_pool_is_error(self):
        embedder = HashEmbedder(8)
        pool = build_index(make_pool(ExampleKind.RFE_EXTRACTION, 3), embedder)
        with pytest.raises(ValueError):
            select_semantic(pool, SelectionQuery(1, "f", "q"), 4, embedder)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        dim=st.integers(min_value=2, max_value=16),
        k=st.integers(min_value=0, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_top_k_equals_brute_force(self, n, dim, k, seed):
        k = min(k, n)
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, dim)).tolist()
        query_vec = rng.normal(size=dim).tolist()
        pool, mapping = pool_with_vectors(vectors)
        query = SelectionQuery(age=0, sex="x", text="q")
        mapping[query.render()] = query_vec
        embedder = FixedEmbedder(mapping, dim)
        pool = build_index(pool, embedder)
        chosen = select_semantic(pool, query, k, embedder)
        assert [pool.examples.index(e) for e in chosen] == brute_force_top_k(
            vectors, query_vec, k
        )

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=1, max_value=40),
    )
    def test_ranking_equals_the_sorted_reference(self, data, dim, n):
        # Rows drawn from a few distinct vectors, the zero vector among them,
        # so pools hold duplicated and zero rows and scores tie exactly.
        component = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3))
        vector = st.lists(component, min_size=dim, max_size=dim)
        distinct = data.draw(st.lists(vector, min_size=1, max_size=4)) + [[0.0] * dim]
        rows = data.draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n))
        query_vec = data.draw(st.one_of(st.sampled_from(distinct), vector))
        k = data.draw(st.integers(min_value=0, max_value=n))
        pool, mapping = pool_with_vectors(rows)
        query = SelectionQuery(age=0, sex="x", text="q")
        mapping[query.render()] = query_vec
        embedder = FixedEmbedder(mapping, dim)
        pool = build_index(pool, embedder)

        # The ranking as first written: scores recomputed from the rows,
        # then a Python sort on (-score, id).
        index, q = pool.index, np.asarray(query_vec, dtype=float)
        dots = (index * q).sum(axis=1)
        denom = np.sqrt((index * index).sum(axis=1)) * np.sqrt(float(q @ q))
        scores = np.zeros(n)
        scores[denom > 0] = dots[denom > 0] / denom[denom > 0]
        expected = sorted(range(n), key=lambda i: (-scores[i], i))[:k]

        chosen = select_semantic(pool, query, k, embedder)
        assert [pool.examples.index(e) for e in chosen] == expected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_batched_kernel_equals_the_full_scan_for_every_query(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40), label="n")
        dim = data.draw(st.integers(min_value=1, max_value=24), label="dim")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        bases = rng.normal(size=(data.draw(st.integers(1, 4), label="bases"), dim))
        # Every row is a scaled copy of a base, so most scores tie in exact
        # arithmetic: duplicates and power-of-two scalings tie exactly, other
        # scalings score a few ulps apart, inside the slack.
        exact = [1.0, 2.0, 0.5]
        scale = st.sampled_from(exact + [3.0, 0.1, 0.3, 7.0, 1.0 + 2.0**-40])
        base = st.integers(min_value=0, max_value=len(bases) - 1)
        copies = data.draw(st.lists(st.tuples(base, scale), min_size=n, max_size=n), label="rows")
        rows = np.array([bases[b] * factor for b, factor in copies])
        query_vector = st.one_of(
            st.integers(0, 2**32 - 1).map(lambda s: np.random.default_rng(s).normal(size=dim)),
            st.builds(lambda b, factor: bases[b] * factor, base, scale),
        )
        vectors = data.draw(st.lists(query_vector, min_size=1, max_size=20), label="queries")
        # At most one input outside the filter's norm range, so that every
        # pair is scored: a zero row, a row scaled by 2**-600, or a zero or
        # NaN query.
        outliers = ["", "", "zero row", "tiny row", "zero query", "nan query"]
        outlier = data.draw(st.sampled_from(outliers), label="outlier")
        if outlier.endswith("row"):
            rows[data.draw(st.integers(0, n - 1))] *= 0.0 if outlier == "zero row" else 2.0**-600
        elif outlier:
            vectors.append(np.full(dim, 0.0 if outlier == "zero query" else math.nan))
        k = data.draw(st.integers(min_value=0, max_value=n), label="k")

        pool, mapping = pool_with_vectors(rows.tolist())
        queries = [SelectionQuery(age=0, sex="x", text=f"q{i}") for i in range(len(vectors))]
        mapping.update((q.render(), v.tolist()) for q, v in zip(queries, vectors))
        embedder = FixedEmbedder(mapping, dim)
        pool = build_index(pool, embedder)
        chosen = select_semantic_many(pool, queries, k, embedder)

        assert len(chosen) == len(queries)
        for vector, examples in zip(vectors, chosen):
            ids = [pool.examples.index(e) for e in examples]
            assert ids == full_scan_top_k(pool.index, vector, k)
            # Python sums round apart from numpy's, so the pure-Python
            # oracle agrees wherever the only near-ties are exact ones.
            if outlier != "tiny row" and all(factor in exact for _, factor in copies):
                assert ids == brute_force_top_k(rows.tolist(), vector.tolist(), k)


class TestPoolLoading:
    def test_load_grouped_by_kind(self, tmp_path):
        import json

        path = tmp_path / "pools.jsonl"
        records = [
            {"kind": "rfe_extraction", "input_text": "a", "age": 1, "sex": "f", "label": "- x (present)"},
            {"kind": "summarization", "input_text": "b", "age": 2, "sex": "m", "label": "s"},
            {"kind": "rfe_extraction", "input_text": "c", "age": 3, "sex": "f", "label": "- y (absent)"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        pools = load_example_pools(path)
        assert len(pools[ExampleKind.RFE_EXTRACTION]) == 2
        assert len(pools[ExampleKind.SUMMARIZATION]) == 1

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "pools.jsonl"
        path.write_text('{"kind": "rfe_extraction"}\n')
        with pytest.raises(SelectionError, match="line 1"):
            load_example_pools(path)

    def test_mixed_kind_pool_rejected(self):
        wrong = LabeledExample(
            kind=ExampleKind.SUMMARIZATION, input_text="x", age=1, sex="f", label="l"
        )
        with pytest.raises(SelectionError):
            ExamplePool(ExampleKind.RFE_EXTRACTION, (wrong,))
