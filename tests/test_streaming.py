"""Streaming ingestion: chunked CSV reader, incremental builder, equality.

The load-bearing property: ``Relation.from_csv_stream`` is equal to the
eager ``read_csv`` — same schema, same row set, same value coercion —
for **every** chunk size, and the two readers share one parsing core so
they cannot diverge on dialect, NUL bytes, blank lines, or ragged rows.
"""

import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import planted_mvd_relation
from repro.discovery.miner import mine_jointree
from repro.errors import SchemaError
from repro.factorize.pipeline import decompose
from repro.relations.builder import ColumnStoreBuilder, relation_from_chunks
from repro.relations.columns import ColumnStore
from repro.relations.io import (
    DEFAULT_CHUNK_ROWS,
    _coerce,
    infer_integer_domains,
    iter_csv_chunks,
    read_csv,
    sniff_header,
    write_csv,
)
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema


@pytest.fixture()
def csv_path(tmp_path):
    path = tmp_path / "table.csv"
    lines = ["A,B,C"]
    for i in range(100):
        lines.append(f"{i % 7},{'xyz'[i % 3]},{(i % 5) / 2}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestIterCsvChunks:
    def test_chunks_partition_the_rows(self, csv_path):
        chunks = list(iter_csv_chunks(csv_path, chunk_rows=30))
        assert [c.start_row for c in chunks] == [0, 30, 60, 90]
        assert [len(c.rows) for c in chunks] == [30, 30, 30, 10]
        assert all(c.header == ("A", "B", "C") for c in chunks)

    def test_rows_match_eager_reader(self, csv_path):
        eager = read_csv(csv_path)
        streamed = [
            row
            for chunk in iter_csv_chunks(csv_path, chunk_rows=7)
            for row in chunk.rows
        ]
        assert frozenset(streamed) == eager.rows()

    def test_header_only_file_yields_one_empty_chunk(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("A,B\n")
        chunks = list(iter_csv_chunks(path))
        assert len(chunks) == 1
        assert chunks[0].header == ("A", "B")
        assert chunks[0].rows == []

    def test_chunk_rows_must_be_positive(self, csv_path):
        with pytest.raises(SchemaError):
            list(iter_csv_chunks(csv_path, chunk_rows=0))

    def test_blank_lines_skipped_like_eager(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("A,B\n1,2\n\n3,4\n\n")
        chunks = list(iter_csv_chunks(path, chunk_rows=1))
        assert sum(len(c.rows) for c in chunks) == 2
        assert [c.start_row for c in chunks] == [0, 1]

    def test_ragged_row_raises_lazily(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("A,B\n1,2\n3\n")
        stream = iter_csv_chunks(path, chunk_rows=1)
        first = next(stream)
        assert first.rows == [(1, 2)]
        with pytest.raises(SchemaError, match="fields"):
            list(stream)

    def test_missing_file_raises_schema_error(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            list(iter_csv_chunks(tmp_path / "nope.csv"))

    def test_untyped_and_delimiter(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("A;B\n1;2\n")
        chunks = list(iter_csv_chunks(path, typed=False, delimiter=";"))
        assert chunks[0].rows == [("1", "2")]

    def test_sniff_header(self, csv_path):
        assert sniff_header(csv_path) == ("A", "B", "C")


class TestSharedParsingRules:
    """Eager and chunked readers must fail identically on bad input."""

    @pytest.mark.parametrize(
        "content,match",
        [
            ("", "header row is required"),
            ("A,B\n1,2\n3\n", "fields"),
            ("A,B\n1,\x002\n", "NUL byte"),
            ("A,\x00B\n1,2\n", "NUL byte"),
        ],
    )
    def test_both_paths_raise_the_same_error(self, tmp_path, content, match):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(SchemaError, match=match) as eager_exc:
            read_csv(path)
        with pytest.raises(SchemaError, match=match) as chunked_exc:
            list(iter_csv_chunks(path, chunk_rows=1))
        assert str(eager_exc.value) == str(chunked_exc.value)

    def test_binary_garbage_rejected_by_both(self, tmp_path):
        path = tmp_path / "garbage.csv"
        path.write_bytes(b"\xff\xfe\x00\x01binary\x00soup\x9c")
        with pytest.raises(SchemaError):
            read_csv(path)
        with pytest.raises(SchemaError):
            list(iter_csv_chunks(path))


class TestColumnStoreBuilder:
    def test_incremental_dedup(self):
        builder = ColumnStoreBuilder(2)
        builder.add_rows([(1, "x"), (2, "y"), (1, "x")])
        builder.add_rows([(1, "x"), (3, "z")])
        assert builder.rows_ingested == 5
        assert builder.rows_distinct == 3
        relation = builder.finish(RelationSchema.from_names(["A", "B"]))
        assert relation.rows() == {(1, "x"), (2, "y"), (3, "z")}

    def test_numeric_equality_collapses_like_frozenset(self):
        # 1 == True == 1.0 collapse exactly as in Relation's row set.
        builder = ColumnStoreBuilder(1)
        builder.add_rows([(1,)])
        builder.add_rows([(1.0,), (True,)])
        relation = builder.finish(RelationSchema.from_names(["A"]))
        eager = Relation(RelationSchema.from_names(["A"]), [(1,), (1.0,), (True,)])
        assert relation == eager
        assert len(relation) == 1

    def test_seeded_store_answers_queries(self):
        builder = ColumnStoreBuilder(2)
        builder.add_rows([(0, "a"), (1, "b")])
        builder.add_rows([(0, "b"), (0, "a")])
        relation = builder.finish(RelationSchema.from_names(["A", "B"]))
        assert relation._store is not None  # pre-seeded, not lazily rebuilt
        assert relation.projection_counts(["A"]) == {(0,): 2, (1,): 1}
        assert relation.projection_counts(["A"]) == (
            relation.projection_counts_naive(["A"])
        )
        assert relation.select_eq("B", "b").rows() == {(1, "b"), (0, "b")}

    def test_empty_builder_finishes_to_empty_relation(self):
        builder = ColumnStoreBuilder(2)
        relation = builder.finish(RelationSchema.from_names(["A", "B"]))
        assert relation.is_empty()

    def test_arity_validation(self):
        with pytest.raises(SchemaError):
            ColumnStoreBuilder(0)
        builder = ColumnStoreBuilder(2)
        with pytest.raises(SchemaError, match="fields"):
            builder.add_rows([(1, 2, 3)])
        with pytest.raises(SchemaError, match="attributes"):
            builder.finish(RelationSchema.from_names(["A"]))

    def test_finish_is_single_shot(self):
        builder = ColumnStoreBuilder(1)
        builder.add_rows([(1,)])
        builder.finish(RelationSchema.from_names(["A"]))
        with pytest.raises(SchemaError, match="finished"):
            builder.finish(RelationSchema.from_names(["A"]))
        with pytest.raises(SchemaError, match="finished"):
            builder.add_rows([(2,)])

    def test_relation_from_chunks(self):
        relation = relation_from_chunks(
            ["A", "B"], [[(1, 2)], [(3, 4), (1, 2)]]
        )
        assert relation.rows() == {(1, 2), (3, 4)}


class TestFromCsvStream:
    def test_equal_to_eager_for_every_chunk_size(self, csv_path):
        eager = read_csv(csv_path)
        for chunk_rows in (1, 3, 7, 50, 99, 100, 101, DEFAULT_CHUNK_ROWS):
            streamed = Relation.from_csv_stream(csv_path, chunk_rows=chunk_rows)
            assert streamed == eager
            assert streamed.schema.names == eager.schema.names
            assert streamed.projection_counts(["A", "B"]) == (
                eager.projection_counts(["A", "B"])
            )

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("A,B\n")
        streamed = Relation.from_csv_stream(path)
        assert streamed.is_empty()
        assert streamed.schema.names == ("A", "B")

    def test_from_csv_alias(self, csv_path):
        assert Relation.from_csv(csv_path) == read_csv(csv_path)

    def test_round_trip_via_write_csv(self, tmp_path):
        schema = RelationSchema.from_names(["A", "B"])
        original = Relation(schema, [(1, "x"), (2, "y"), (3, "x")])
        path = tmp_path / "out.csv"
        write_csv(original, path)
        assert Relation.from_csv_stream(path, chunk_rows=2) == original

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n_cols=st.integers(min_value=1, max_value=4),
        n_rows=st.integers(min_value=0, max_value=30),
    )
    def test_streaming_equals_eager_property(self, data, n_cols, n_rows):
        """Bit-for-bit equality with the eager reader, any chunk size."""
        import tempfile
        from pathlib import Path

        value = st.one_of(
            st.integers(min_value=-5, max_value=5),
            st.sampled_from(["x", "y", "zz", "0.5", "-3", ""]),
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(
                lambda f: round(f, 3)
            ),
        )
        rows = data.draw(
            st.lists(
                st.tuples(*[value] * n_cols), min_size=n_rows, max_size=n_rows
            )
        )
        chunk_rows = data.draw(st.integers(min_value=1, max_value=n_rows + 2))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow([f"C{i}" for i in range(n_cols)])
                writer.writerows(rows)
            eager = read_csv(path)
            streamed = Relation.from_csv_stream(path, chunk_rows=chunk_rows)
        assert streamed == eager
        if not eager.is_empty():
            subset = eager.schema.names[: max(1, n_cols - 1)]
            assert streamed.projection_counts(subset) == (
                eager.projection_counts(subset)
            )


#: Token pools per column kind for the columnar-route property below.
INT_TOKENS = st.sampled_from(["0", "1", "01", "007", "7", "-3", "12", "+2"])
STR_TOKENS = st.sampled_from(["x", "y", "zz", "", "N/A", "abc"])
MIXED_TOKENS = st.one_of(
    INT_TOKENS,
    STR_TOKENS,
    st.sampled_from(["1.0", "0.5", "-2.25", "1e3", "inf", "-inf", "nan", "NaN"]),
)


class TestColumnarRoute:
    """``read_csv`` codes tokens per column and never builds row tuples."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        kinds=st.lists(
            st.sampled_from(["int", "str", "mixed"]), min_size=1, max_size=4
        ),
        n_rows=st.integers(min_value=1, max_value=25),
    )
    def test_codes_and_counts_match_factorizing_coerced_rows(
        self, tmp_path_factory, data, kinds, n_rows
    ):
        """The reference coerces every cell, dedups the row tuples and
        factorizes them with ``ColumnStore``: the one-route builder must
        give the same int and str column codes and, on every attribute
        subset, the same multiset of counts, for every chunk size."""
        pools = {"int": INT_TOKENS, "str": STR_TOKENS, "mixed": MIXED_TOKENS}
        tokens = data.draw(
            st.lists(
                st.tuples(*[pools[kind] for kind in kinds]),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        path = tmp_path_factory.mktemp("route") / "t.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f"C{j}" for j in range(len(kinds))])
            writer.writerows(tokens)
        coerced = tuple(
            dict.fromkeys(tuple(map(_coerce, row)) for row in tokens)
        )
        reference = ColumnStore(coerced, len(kinds))
        subsets = [
            subset
            for k in range(1, len(kinds) + 1)
            for subset in itertools.combinations(range(len(kinds)), k)
        ]
        for chunk_rows in range(1, n_rows + 2):
            relation = Relation.from_csv_stream(path, chunk_rows=chunk_rows)
            store = relation.columns()
            assert len(relation) == len(coerced)
            for j, kind in enumerate(kinds):
                if kind != "mixed":
                    assert np.array_equal(store.codes[j], reference.codes[j])
                    assert store.cards[j] == reference.cards[j]
            for subset in subsets:
                assert np.array_equal(
                    np.sort(store.counts(subset)),
                    np.sort(reference.counts(subset)),
                )
            assert relation._row_cache is None
            assert relation.rows() == frozenset(coerced)

    def test_mine_and_decompose_leave_rows_undecoded(self, tmp_path):
        planted = planted_mvd_relation(8, 8, 5, np.random.default_rng(3))
        path = tmp_path / "planted.csv"
        write_csv(planted, path)
        relation = infer_integer_domains(read_csv(path))
        mined = mine_jointree(relation, threshold=0.05)
        decompose(relation, mined.jointree)
        assert relation._row_cache is None
        assert relation.columns()._row_list is None
        assert relation == planted

    def test_nan_tokens_are_one_value_on_every_route(self, tmp_path):
        base = tmp_path / "base.csv"
        base.write_text("A,B\nnan,x\nNaN,x\n1,y\n")
        whole = tmp_path / "whole.csv"
        whole.write_text("A,B\nnan,x\nNaN,x\n1,y\nnan,y\n-nan,x\n")
        delta = tmp_path / "delta.csv"
        delta.write_text("A,B\nnan,y\n-nan,x\n")
        assert len(read_csv(base)) == 2
        appended = read_csv(base).extended_with(
            next(iter_csv_chunks(delta)).rows
        )
        assert len(appended) == 3
        assert appended.fingerprint() == read_csv(whole).fingerprint()
