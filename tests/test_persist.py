"""Persistent columnar snapshots: round-trip fidelity, corruption rejection.

The load-bearing properties:

* ``save_snapshot`` → ``load_snapshot`` is **bit-identical**: same
  fingerprint (repr-sensitive), same row set, same schema, same
  per-column cardinalities — for mixed-type columns, unicode, NaN, and
  the streaming-builder path alike, with or without ``mmap``.
* A relation whose values cannot round-trip through columnar decoding
  (the ``1 == True == 1.0`` hash collapse) is rejected at **save** time
  with :class:`SnapshotError` and nothing is written.
* Truncated, corrupted, or version-mismatched snapshots are rejected at
  **load** time with :class:`SnapshotError` — never a silent wrong
  relation, never a raw numpy/JSON error.
* The optional ``digests.npy`` is adopted only when it hashes to the
  recorded fingerprint; a damaged one is ignored, never trusted.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loss import spurious_loss
from repro.errors import SnapshotError
from repro.factorize.pipeline import decompose
from repro.info.engine import EntropyEngine
from repro.jointrees.build import jointree_from_schema
from repro.relations.builder import relation_from_chunks
from repro.relations.io import read_csv
from repro.relations import persist
from repro.relations.persist import (
    DIGESTS_FILE,
    FORMAT_VERSION,
    META_FILE,
    atomic_write_text,
    code_dtype_for,
    load_engine_memo,
    load_snapshot,
    quarantine_snapshot,
    read_snapshot_meta,
    save_engine_memo,
    save_snapshot,
)
from repro.relations.relation import DIGEST_DTYPE, Relation
from repro.relations.schema import RelationSchema


def make_relation(rows, names=None):
    names = names or [f"C{i}" for i in range(len(rows[0]))]
    return Relation(RelationSchema.from_names(names), rows)


def assert_identical(reloaded, original):
    assert reloaded.schema.names == original.schema.names
    assert reloaded.rows() == original.rows()
    assert len(reloaded) == len(original)
    assert reloaded.fingerprint() == original.fingerprint()


class TestRoundTrip:
    def test_basic_mixed_columns(self, tmp_path):
        original = make_relation(
            [(1, "x", 0.5), (2, "y", -1.25), (1, "y", 0.5), (3, "", 2.0)]
        )
        out = save_snapshot(original, tmp_path / "snap")
        assert out == tmp_path / "snap"
        assert_identical(load_snapshot(out), original)
        assert_identical(load_snapshot(out, mmap=False), original)

    def test_unicode_and_none(self, tmp_path):
        original = make_relation(
            [("héllo", None), ("☃️", "a\nb"), ("", None)]
        )
        save_snapshot(original, tmp_path / "snap")
        assert_identical(load_snapshot(tmp_path / "snap"), original)

    def test_metadata_is_compact_and_indented_metadata_loads(self, tmp_path):
        original = make_relation([(1, "a"), (2.5, "b"), (None, "c")])
        save_snapshot(original, tmp_path / "snap")
        meta_path = tmp_path / "snap" / META_FILE
        text = meta_path.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        # Snapshots written before the compact format indent meta.json.
        meta_path.write_text(json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n")
        assert_identical(load_snapshot(tmp_path / "snap"), original)

    def test_nan_and_inf_round_trip(self, tmp_path):
        nan = float("nan")
        original = make_relation(
            [(nan, "a"), (float("inf"), "b"), (-float("inf"), "a")]
        )
        save_snapshot(original, tmp_path / "snap")
        reloaded = load_snapshot(tmp_path / "snap")
        assert reloaded.fingerprint() == original.fingerprint()
        assert len(reloaded) == 3

    def test_empty_relation(self, tmp_path):
        original = Relation(RelationSchema.from_names(["A", "B"]), [])
        save_snapshot(original, tmp_path / "snap")
        reloaded = load_snapshot(tmp_path / "snap")
        assert reloaded.is_empty()
        assert_identical(reloaded, original)

    def test_streaming_builder_relation(self, tmp_path):
        original = relation_from_chunks(
            ["A", "B"],
            [[(i % 7, f"s{i % 3}") for i in range(50)], [(99, "tail")]],
        )
        save_snapshot(original, tmp_path / "snap")
        assert_identical(load_snapshot(tmp_path / "snap"), original)

    def test_relation_method_round_trip(self, tmp_path, monkeypatch):
        original = make_relation([(1, "a"), (2, "b")])
        original.save_snapshot(tmp_path / "snap")
        assert_identical(Relation.load_snapshot(tmp_path / "snap"), original)

    def test_entropy_parity_after_reload(self, tmp_path):
        original = make_relation(
            [(i % 5, i % 3, f"v{i % 2}") for i in range(40)],
            names=["A", "B", "C"],
        )
        save_snapshot(original, tmp_path / "snap")
        reloaded = load_snapshot(tmp_path / "snap")
        for attrs in (["A"], ["B", "C"], ["A", "B", "C"]):
            assert EntropyEngine.for_relation(reloaded).entropy(attrs) == (
                EntropyEngine.for_relation(original).entropy(attrs)
            )

    def test_entropy_queries_do_not_decode_rows(self, tmp_path):
        original = make_relation(
            [(i % 5, i % 3, f"v{i % 2}") for i in range(40)],
            names=["A", "B", "C"],
        )
        save_snapshot(original, tmp_path / "snap")
        reloaded = load_snapshot(tmp_path / "snap")
        engine = EntropyEngine.for_relation(reloaded)
        for attrs in (["A"], ["B", "C"], ["A", "B", "C"]):
            engine.entropy(attrs)
        engine.cmi(["A"], ["B"], ["C"])
        assert reloaded.columns()._row_list is None

    def test_rho_decompose_and_project_do_not_decode_rows(self, tmp_path):
        original = make_relation(
            [(i % 5, i % 3, i % 4) for i in range(60)], names=["A", "B", "C"]
        )
        save_snapshot(original, tmp_path / "snap")
        reloaded = load_snapshot(tmp_path / "snap")
        tree = jointree_from_schema([{"A", "C"}, {"B", "C"}])
        assert spurious_loss(reloaded, tree) == spurious_loss(original, tree)
        assert decompose(reloaded, tree).report.rho == (
            decompose(original, tree).report.rho
        )
        assert reloaded.project(["A", "C"]) == original.project(["A", "C"])
        assert reloaded.columns()._row_list is None

    def test_domains_flag_builds_declared_domains(self, tmp_path):
        original = make_relation([(1, "x"), (5, "y"), (3, "x")])
        save_snapshot(original, tmp_path / "snap")
        reloaded = load_snapshot(tmp_path / "snap", domains=True)
        assert_identical(reloaded, original)
        domain = reloaded.schema.attributes[0].domain
        assert domain is not None and set(domain) == {1, 3, 5}

    def test_overwrite_is_atomic_replace(self, tmp_path):
        first = make_relation([(1, "a")])
        second = make_relation([(2, "b"), (3, "c")])
        save_snapshot(first, tmp_path / "snap")
        save_snapshot(second, tmp_path / "snap")
        assert_identical(load_snapshot(tmp_path / "snap"), second)
        # no temp siblings survive
        leftovers = [p for p in tmp_path.iterdir() if p.name != "snap"]
        assert leftovers == []

    def test_expected_fingerprint_pin(self, tmp_path):
        original = make_relation([(1, "a"), (2, "b")])
        save_snapshot(original, tmp_path / "snap")
        loaded = load_snapshot(
            tmp_path / "snap", expected_fingerprint=original.fingerprint()
        )
        assert loaded.fingerprint() == original.fingerprint()
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "snap", expected_fingerprint="0" * 32)

    def test_verify_content_rehashes(self, tmp_path):
        original = make_relation([(1, "a"), (2, "b")])
        save_snapshot(original, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap", verify_content=True)
        assert loaded.fingerprint() == original.fingerprint()

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), n_cols=st.integers(min_value=1, max_value=4))
    def test_round_trip_property(self, data, n_cols, tmp_path_factory):
        """Save → load is bit-identical for per-column-typed tables.

        Column types are drawn independently (ints, bools, strings
        including unicode, non-integer floats, None-able strings), so
        tables mix types across columns without tripping the intra-column
        ``1 == True == 1.0`` collapse that the fidelity gate rejects.
        """
        column_types = [
            st.integers(min_value=-10, max_value=10),
            st.booleans(),
            st.sampled_from(["x", "ünïcode", "", "a,b", "\t"]),
            st.sampled_from([0.5, -1.25, 3.75, 1e-3]),
            st.sampled_from([None, "s1", "s2"]),
        ]
        cols = [data.draw(st.sampled_from(column_types)) for _ in range(n_cols)]
        rows = data.draw(
            st.lists(st.tuples(*cols), min_size=0, max_size=25)
        )
        original = Relation(
            RelationSchema.from_names([f"C{i}" for i in range(n_cols)]), rows
        )
        out = tmp_path_factory.mktemp("prop") / "snap"
        save_snapshot(original, out)
        assert_identical(load_snapshot(out), original)
        assert_identical(load_snapshot(out, mmap=False, domains=True), original)


class TestFidelityGate:
    def test_bool_int_collapse_rejected_without_writing(self, tmp_path):
        # (True, "a") and (1, "b") are distinct rows, but column 0 codes
        # True and 1 identically (hash equality), so decoding cannot
        # reproduce both reprs — the save must refuse, not corrupt.
        original = make_relation([(True, "a"), (1, "b")])
        with pytest.raises(SnapshotError):
            save_snapshot(original, tmp_path / "snap")
        assert not (tmp_path / "snap").exists()
        assert list(tmp_path.iterdir()) == []  # no temp debris either

    def test_int_float_collapse_rejected(self, tmp_path):
        original = make_relation([(1.0, "a"), (1, "b")])
        with pytest.raises(SnapshotError):
            save_snapshot(original, tmp_path / "snap")
        assert not (tmp_path / "snap").exists()

    def test_unsupported_value_type_rejected(self, tmp_path):
        original = make_relation([((1, 2), "a")])  # tuple cell
        with pytest.raises(SnapshotError):
            save_snapshot(original, tmp_path / "snap")
        assert not (tmp_path / "snap").exists()


    def test_value_that_reads_back_differently_rejected(self, tmp_path):
        # A numpy scalar tags as a float whose repr float() cannot parse:
        # the save must refuse it instead of publishing an unloadable
        # snapshot.
        original = relation_from_chunks(
            ["a", "b"], [[(np.float64(1.5), "x"), (2.5, "y")]]
        )
        with pytest.raises(SnapshotError):
            save_snapshot(original, tmp_path / "snap")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("built", ["builder", "rows"])
    def test_two_nan_objects_in_one_column_rejected(self, built, tmp_path):
        # Two distinct NaN objects are two codes with equal reprs; both
        # save as the tag ["f", "nan"] and would reload as one value,
        # making the two rows duplicates the loader refuses.
        rows = [(float("nan"), "x"), (float("nan"), "x")]
        original = (
            relation_from_chunks(["a", "b"], [rows])
            if built == "builder"
            else make_relation(rows, ["a", "b"])
        )
        assert len(original) == 2
        with pytest.raises(SnapshotError, match="merge"):
            save_snapshot(original, tmp_path / "snap")
        assert list(tmp_path.iterdir()) == []

    def test_one_nan_object_per_column_still_saves(self, tmp_path):
        nan = float("nan")
        original = relation_from_chunks(["a", "b"], [[(nan, "x"), (nan, "y")]])
        save_snapshot(original, tmp_path / "snap")
        reloaded = load_snapshot(tmp_path / "snap")
        assert len(reloaded.rows()) == 2
        assert reloaded.fingerprint() == original.fingerprint()

    def test_undecoded_relation_saves_without_rebuild(self, tmp_path, monkeypatch):
        original = relation_from_chunks(
            ["a", "b"], [[(i % 7, f"s{i % 3}") for i in range(30)]]
        )
        assert original._row_cache is None

        def no_rebuild(*args, **kwargs):
            raise AssertionError("the O(N) rebuild ran for an undecoded relation")

        monkeypatch.setattr(persist, "_assemble", no_rebuild)
        save_snapshot(original, tmp_path / "snap")
        monkeypatch.undo()
        reloaded = load_snapshot(tmp_path / "snap", verify_content=True)
        assert_identical(reloaded, original)


class TestRowDigestsFile:
    @pytest.fixture()
    def saved(self, tmp_path):
        original = relation_from_chunks(
            ["a", "b", "c"],
            [[(i % 5, f"s{i % 7}", i * 0.5) for i in range(60)]],
        )
        path = tmp_path / "snap"
        save_snapshot(original, path)
        return original, path

    def test_adopted_on_reload(self, saved, digested_rows):
        original, path = saved
        stored = np.load(path / DIGESTS_FILE)
        assert stored.dtype == DIGEST_DTYPE and stored.shape == (60,)
        reloaded = load_snapshot(path)
        assert reloaded._row_digests().tobytes() == original._row_digests().tobytes()
        assert sum(digested_rows) == 0

    @pytest.mark.parametrize("damage", ["flipped_byte", "unsorted", "short"])
    def test_damaged_file_ignored(self, saved, digested_rows, damage):
        original, path = saved
        digests = np.load(path / DIGESTS_FILE)
        if damage == "flipped_byte":
            raw = bytearray(digests.tobytes())
            raw[-1] ^= 0x01  # keeps the order; breaks the hash
            digests = np.frombuffer(bytes(raw), dtype=DIGEST_DTYPE)
        elif damage == "unsorted":
            digests = digests[::-1]
        else:
            digests = digests[:-1]
        np.save(path / DIGESTS_FILE, digests)
        reloaded = load_snapshot(path)
        assert reloaded._row_digests().tobytes() == original._row_digests().tobytes()
        assert sum(digested_rows) == 60  # recomputed from the rows
        reloaded._fingerprint = None
        assert reloaded.fingerprint() == original.fingerprint()

    def test_snapshot_without_digests_still_loads(self, saved):
        original, path = saved
        (path / DIGESTS_FILE).unlink()
        reloaded = load_snapshot(path)
        assert reloaded._row_digests().tobytes() == original._row_digests().tobytes()

    def test_append_to_reloaded_version_digests_only_delta(
        self, saved, digested_rows
    ):
        original, path = saved
        reloaded = load_snapshot(path, domains=True)
        appended = reloaded.extended_with([(9, "new", 0.25), (0, "s0", 0.0)])
        fingerprint = appended.fingerprint()
        assert digested_rows == [1]  # (0, "s0", 0.0) is already a row
        assert fingerprint == Relation(
            appended.schema, appended.rows(), validate=False
        ).fingerprint()


class TestCorruptionRejection:
    @pytest.fixture()
    def snap(self, tmp_path):
        original = make_relation(
            [(i % 4, f"s{i % 3}", i % 2 == 0) for i in range(20)]
        )
        path = tmp_path / "snap"
        save_snapshot(original, path)
        return path

    def _meta(self, snap):
        return json.loads((snap / META_FILE).read_text())

    def _write_meta(self, snap, meta):
        (snap / META_FILE).write_text(json.dumps(meta))

    def test_missing_snapshot(self, tmp_path):
        with pytest.raises(SnapshotError):
            read_snapshot_meta(tmp_path / "nope")
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "nope")

    def test_version_mismatch(self, snap):
        meta = self._meta(snap)
        meta["version"] = FORMAT_VERSION + 1
        self._write_meta(snap, meta)
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(snap)

    def test_wrong_format_marker(self, snap):
        meta = self._meta(snap)
        meta["format"] = "some-other-format"
        self._write_meta(snap, meta)
        with pytest.raises(SnapshotError):
            load_snapshot(snap)

    def test_garbled_meta_json(self, snap):
        (snap / META_FILE).write_text("{not json")
        with pytest.raises(SnapshotError):
            load_snapshot(snap)

    def test_truncated_column_array(self, snap):
        col = snap / self._meta(snap)["columns"][0]
        col.write_bytes(col.read_bytes()[: col.stat().st_size // 2])
        with pytest.raises(SnapshotError):
            load_snapshot(snap)

    def test_garbage_column_array(self, snap):
        col = snap / self._meta(snap)["columns"][0]
        col.write_bytes(b"this is not a npy file")
        with pytest.raises(SnapshotError):
            load_snapshot(snap)

    def test_missing_column_file(self, snap):
        (snap / self._meta(snap)["columns"][-1]).unlink()
        with pytest.raises(SnapshotError):
            load_snapshot(snap)

    def test_row_count_shape_mismatch(self, snap):
        meta = self._meta(snap)
        meta["n_rows"] = meta["n_rows"] + 1
        self._write_meta(snap, meta)
        with pytest.raises(SnapshotError):
            load_snapshot(snap)

    def test_code_out_of_cardinality_range(self, snap):
        meta = self._meta(snap)
        col = snap / meta["columns"][0]
        codes = np.load(col)
        codes[0] = meta["cards"][0] + 7
        with col.open("wb") as handle:
            np.save(handle, codes)
        with pytest.raises(SnapshotError):
            load_snapshot(snap)

    def test_wrong_dtype_rejected(self, snap):
        meta = self._meta(snap)
        col = snap / meta["columns"][0]
        with col.open("wb") as handle:
            np.save(handle, np.zeros(meta["n_rows"], dtype=np.float64))
        with pytest.raises(SnapshotError):
            load_snapshot(snap)

    def test_tampered_fingerprint(self, snap):
        meta = self._meta(snap)
        meta["fingerprint"] = "f" * 32
        self._write_meta(snap, meta)
        with pytest.raises(SnapshotError):
            load_snapshot(snap, verify_content=True)

    def test_path_traversal_in_column_names(self, snap):
        meta = self._meta(snap)
        meta["columns"][0] = "../evil.npy"
        self._write_meta(snap, meta)
        with pytest.raises(SnapshotError):
            load_snapshot(snap)

    def test_quarantine_moves_the_directory(self, snap):
        moved = quarantine_snapshot(snap)
        assert moved is not None and moved.exists()
        assert not snap.exists()
        assert moved.parent.name == "quarantine"


class TestNarrowDtypes:
    """Format v2: column codes stored in the narrowest dtype that fits."""

    def test_code_dtype_for_boundaries(self):
        assert code_dtype_for(1) == np.uint8
        assert code_dtype_for(256) == np.uint8
        assert code_dtype_for(257) == np.uint16
        assert code_dtype_for(1 << 16) == np.uint16
        assert code_dtype_for((1 << 16) + 1) == np.uint32
        assert code_dtype_for(1 << 32) == np.uint32
        assert code_dtype_for((1 << 32) + 1) == np.int64

    def test_small_cardinality_columns_stored_uint8(self, tmp_path):
        original = make_relation(
            [(i % 4, f"s{i % 3}", i % 2 == 0) for i in range(20)]
        )
        path = save_snapshot(original, tmp_path / "snap")
        meta = json.loads((path / META_FILE).read_text())
        assert meta["version"] == FORMAT_VERSION == 2
        for column in meta["columns"]:
            assert np.load(path / column).dtype == np.uint8
        assert_identical(load_snapshot(path), original)

    def test_loaded_codes_narrow_to_int32(self, tmp_path):
        """Loads hand the store signed int32 codes: packed_key's
        mixed-radix arithmetic would overflow silently in a uint8 column
        under NEP 50."""
        original = make_relation(
            [(i % 4, i % 3, i * 1009) for i in range(300)]  # uint8, uint16
        )
        path = save_snapshot(original, tmp_path / "snap")
        for mmap in (True, False):
            codes = load_snapshot(path, mmap=mmap).columns().codes
            assert {c.dtype for c in codes} == {np.dtype(np.int32)}
        reloaded = load_snapshot(path)
        engine = EntropyEngine.for_relation(reloaded)
        baseline = EntropyEngine.for_relation(original)
        names = original.schema.names
        assert engine.entropy(frozenset(names)) == pytest.approx(
            baseline.entropy(frozenset(names))
        )

    def test_v1_int64_snapshot_still_loads(self, tmp_path):
        """Snapshots written before the dtype narrowing stay readable."""
        original = make_relation(
            [(i % 4, f"s{i % 3}", i % 2 == 0) for i in range(20)]
        )
        path = save_snapshot(original, tmp_path / "snap")
        meta = json.loads((path / META_FILE).read_text())
        meta["version"] = 1  # v1 stored every column as int64
        (path / META_FILE).write_text(json.dumps(meta))
        for column in meta["columns"]:
            codes = np.load(path / column).astype(np.int64)
            with (path / column).open("wb") as handle:
                np.save(handle, codes)
        reloaded = load_snapshot(path)
        assert_identical(reloaded, original)
        assert {c.dtype for c in reloaded.columns().codes} == {np.dtype(np.int32)}

    def test_v1_snapshot_with_narrow_dtype_rejected(self, tmp_path):
        """A v1 snapshot must carry int64 columns — anything else is
        corruption, exactly as before the format bump."""
        original = make_relation([(i % 4, i % 3) for i in range(12)])
        path = save_snapshot(original, tmp_path / "snap")
        meta = json.loads((path / META_FILE).read_text())
        meta["version"] = 1
        (path / META_FILE).write_text(json.dumps(meta))
        with pytest.raises(SnapshotError):
            load_snapshot(path)  # columns are uint8 on disk


class TestHydrateAndMemoMerge:
    """The worker-side hydrate helper and the dispatcher's memo fold."""

    @pytest.fixture()
    def fixture_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        lines = ["A,B,C"]
        for i in range(16):
            lines.append(f"{i % 4},{i % 3},{i % 2}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_hydrates_from_snapshot_first(self, fixture_csv, tmp_path):
        from repro.relations.io import read_csv
        from repro.relations.persist import hydrate_relation

        original = read_csv(fixture_csv)
        snap = save_snapshot(original, tmp_path / "snap")
        relation, origin = hydrate_relation(
            expected_fingerprint=original.fingerprint(),
            snapshot_path=snap,
            source=str(fixture_csv),
        )
        assert origin == "snapshot"
        assert relation.fingerprint() == original.fingerprint()

    def test_falls_back_to_csv_when_snapshot_missing(self, fixture_csv, tmp_path):
        from repro.relations.io import read_csv
        from repro.relations.persist import hydrate_relation

        original = read_csv(fixture_csv)
        relation, origin = hydrate_relation(
            expected_fingerprint=original.fingerprint(),
            snapshot_path=tmp_path / "never-written",
            source=str(fixture_csv),
        )
        assert origin == "csv"
        assert relation.fingerprint() == original.fingerprint()

    def test_mutated_csv_source_rejected(self, fixture_csv):
        from repro.relations.io import read_csv
        from repro.relations.persist import hydrate_relation

        fingerprint = read_csv(fixture_csv).fingerprint()
        fixture_csv.write_text("A,B,C\n9,9,9\n")
        with pytest.raises(SnapshotError):
            hydrate_relation(
                expected_fingerprint=fingerprint, source=str(fixture_csv)
            )

    def test_no_route_raises(self):
        from repro.relations.persist import hydrate_relation

        with pytest.raises(SnapshotError):
            hydrate_relation(expected_fingerprint="d" * 32)

    def test_merge_engine_memo_noop_without_snapshot(self, tmp_path):
        """A worker's memo write is a no-op where no snapshot was written."""
        relation = make_relation([(1, "a"), (2, "b")], names=["A", "B"])
        engine = EntropyEngine.for_relation(relation)
        engine.entropy(["A"])
        missing = tmp_path / "missing"
        assert save_engine_memo(missing, engine) is False
        assert not missing.exists()


class TestEngineMemoSidecar:
    def test_round_trip(self, tmp_path):
        original = make_relation(
            [(i % 3, i % 2) for i in range(12)], names=["A", "B"]
        )
        snap = tmp_path / "snap"
        save_snapshot(original, snap)
        engine = EntropyEngine.for_relation(original)
        expected = {
            ("A",): engine.entropy(["A"]),
            ("A", "B"): engine.entropy(["A", "B"]),
        }
        assert save_engine_memo(snap, engine) is True
        restored = load_engine_memo(snap)
        for key, value in expected.items():
            assert restored[key] == value

    def test_absent_memo_is_empty(self, tmp_path):
        original = make_relation([(1, "a")])
        snap = tmp_path / "snap"
        save_snapshot(original, snap)
        assert load_engine_memo(snap) == {}

    def test_corrupt_memo_raises(self, tmp_path):
        original = make_relation([(1, "a")])
        snap = tmp_path / "snap"
        save_snapshot(original, snap)
        (snap / "memo.json").write_text("{broken")
        with pytest.raises(SnapshotError):
            load_engine_memo(snap)


class TestAtomicWriteText:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "one")
        assert target.read_text() == "one"
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


class TestCsvParityThroughSnapshot:
    def test_csv_ingest_and_snapshot_reload_share_fingerprint(self, tmp_path):
        path = tmp_path / "t.csv"
        lines = ["A,B,C"]
        for i in range(60):
            lines.append(f"{i % 7},{'xyz'[i % 3]},{(i % 5) / 2}")
        path.write_text("\n".join(lines) + "\n")
        original = read_csv(path)
        snap = tmp_path / "snap"
        save_snapshot(original, snap, source=str(path))
        reloaded = load_snapshot(snap)
        assert_identical(reloaded, original)
        meta = read_snapshot_meta(snap)
        assert meta["source"]["path"] == str(path)
