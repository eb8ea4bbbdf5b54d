"""Content fingerprints: stable across ingestion paths, orders, processes."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.relations.io import infer_integer_domains, read_csv
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema

SRC_PATH = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def mixed_csv(tmp_path):
    """A small table mixing ints, floats, and strings (typed coercion)."""
    path = tmp_path / "mixed.csv"
    lines = ["A,B,C"]
    for i in range(13):
        lines.append(f"{i % 4},{i / 2},name-{i % 5}")
    lines.append("0,0.0,name-0")  # duplicate of an earlier coerced row
    path.write_text("\n".join(lines) + "\n")
    return path


class TestFingerprintBasics:
    def test_row_order_independent(self):
        schema = RelationSchema.from_names(["A", "B"])
        a = Relation(schema, [(1, "x"), (2, "y"), (3, "z")])
        b = Relation(schema, [(3, "z"), (1, "x"), (2, "y")])
        assert a.fingerprint() == b.fingerprint()

    def test_shape_is_32_hex_digits(self):
        schema = RelationSchema.from_names(["A"])
        fp = Relation(schema, [(1,)]).fingerprint()
        assert len(fp) == 32
        int(fp, 16)  # must parse as hex

    def test_cached_on_the_relation(self):
        schema = RelationSchema.from_names(["A", "B"])
        r = Relation(schema, [(1, 2)])
        assert r.fingerprint() is r.fingerprint()

    def test_content_changes_change_it(self):
        schema = RelationSchema.from_names(["A", "B"])
        base = Relation(schema, [(1, 2), (3, 4)]).fingerprint()
        assert Relation(schema, [(1, 2), (3, 5)]).fingerprint() != base
        assert Relation(schema, [(1, 2)]).fingerprint() != base

    def test_attribute_names_and_order_matter(self):
        rows = [(1, 2), (3, 4)]
        ab = Relation(RelationSchema.from_names(["A", "B"]), rows)
        xy = Relation(RelationSchema.from_names(["X", "Y"]), rows)
        ba = Relation(RelationSchema.from_names(["B", "A"]), rows)
        assert len({ab.fingerprint(), xy.fingerprint(), ba.fingerprint()}) == 3

    def test_empty_relation_has_a_fingerprint(self):
        schema = RelationSchema.from_names(["A", "B"])
        fp = Relation.empty(schema).fingerprint()
        assert len(fp) == 32

    def test_from_codes_matches_constructor(self):
        schema = RelationSchema.from_names(["A", "B"])
        via_codes = Relation.from_codes(schema, [[0, 1], [2, 3]])
        direct = Relation(schema, [(0, 1), (2, 3)])
        assert via_codes.fingerprint() == direct.fingerprint()


class TestFingerprintIngestionPaths:
    def test_eager_equals_streamed_for_every_chunk_size(self, mixed_csv):
        eager = read_csv(mixed_csv).fingerprint()
        n_rows = len(read_csv(mixed_csv))
        for chunk_rows in range(1, n_rows + 2):
            streamed = Relation.from_csv_stream(
                mixed_csv, chunk_rows=chunk_rows
            )
            assert streamed.fingerprint() == eager, (
                f"chunk_rows={chunk_rows} diverged"
            )

    def test_equal_values_keep_the_first_spelling_on_every_path(self, tmp_path):
        """``1`` and ``1.0`` in one column are one value: the first seen."""
        path = tmp_path / "spellings.csv"
        path.write_text("A,B\n1,x\n1.0,y\n")
        expected = Relation(
            RelationSchema.from_names(["A", "B"]), [(1, "x"), (1, "y")]
        ).fingerprint()
        assert read_csv(path).fingerprint() == expected
        for chunk_rows in (1, 2, 3):
            streamed = Relation.from_csv_stream(path, chunk_rows=chunk_rows)
            assert streamed.fingerprint() == expected

    def test_infer_integer_domains_preserves_it(self, mixed_csv):
        relation = read_csv(mixed_csv)
        fp = relation.fingerprint()
        assert infer_integer_domains(relation).fingerprint() == fp

    def test_stable_across_processes_and_hash_seeds(self, mixed_csv):
        """String hashing is seed-randomized; the fingerprint must not be."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.relations.io import read_csv\n"
            "print(read_csv(sys.argv[2]).fingerprint())"
        )
        outputs = set()
        for seed in ("0", "1", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", script, str(SRC_PATH), str(mixed_csv)],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONHASHSEED": seed},
            )
            outputs.add(result.stdout.strip())
        assert outputs == {read_csv(mixed_csv).fingerprint()}
