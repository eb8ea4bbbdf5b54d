"""Delta ingest + the v1 API: fingerprint chains, revalidation, envelopes.

Covers the PR's three contracts end to end:

* **Append = re-ingest.**  Appending rows through the dict-coding
  append path (``ColumnStoreBuilder.from_relation`` →
  ``Relation.extended_with``) yields a relation whose fingerprint is
  bit-identical to a from-scratch ingest of the concatenated source —
  property-tested across arbitrary chunkings.
* **Incremental maintenance.**  The registry re-keys the entry (old
  fingerprint aliased to the new), the version chain survives restart
  via the snapshot ``extra``, and cached mined jointrees are
  revalidated (re-scored on the appended relation) instead of blindly
  invalidated.
* **Typed errors.**  Every HTTP failure carries the
  ``{"error": {"code", "message", "retryable", "retry_after_s"}}``
  envelope with a documented code, a bare path outside ``/v1/`` is a
  404 ``unknown_route``, and the client maps codes to typed exceptions.
"""

import hashlib
import json
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CircuitOpenError,
    DatasetDegradedError,
    QueueFullError,
    ReproError,
    ServiceError,
    UnknownDatasetError,
    UnknownJobError,
)
from repro.relations.builder import ColumnStoreBuilder
from repro.relations.io import _coerce, infer_integer_domains, read_csv
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema
from repro.service import Service, ServiceClient, ServiceConfig
from repro.service.client import (
    BadRequestError,
    ServiceClientError,
    UnknownResourceError,
)
from repro.service.http import ERROR_CATALOG, classify_error, error_envelope
from repro.service.registry import DatasetRegistry


# ----------------------------------------------------------------------
# The core property: append-then-fingerprint == concat-then-ingest
# ----------------------------------------------------------------------
_VALUES = st.one_of(st.integers(0, 4), st.sampled_from(["x", "y", "zz"]))


@st.composite
def chunked_rows(draw):
    """Random rows over a random small schema, cut at random boundaries."""
    arity = draw(st.integers(min_value=1, max_value=4))
    names = [f"c{i}" for i in range(arity)]
    rows = draw(
        st.lists(
            st.tuples(*[_VALUES] * arity), min_size=1, max_size=24
        )
    )
    # The first chunk is never empty (a registered base dataset always
    # has rows); later chunks may be empty, exercising no-op appends.
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, len(rows)), min_size=0, max_size=4
            )
        )
    )
    bounds = [0] + cuts + [len(rows)]
    chunks = [
        rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])
    ]
    return names, chunks


class TestAppendFingerprintProperty:
    @given(data=chunked_rows())
    @settings(max_examples=60, deadline=None)
    def test_append_equals_concat_ingest(self, data):
        names, chunks = data
        schema = RelationSchema.from_names(names)
        relation = infer_integer_domains(
            Relation(schema, chunks[0], validate=False)
        )
        for chunk in chunks[1:]:
            relation = infer_integer_domains(relation.extended_with(chunk))
        all_rows = [row for chunk in chunks for row in chunk]
        expected = Relation(schema, all_rows, validate=False)
        assert relation.fingerprint() == expected.fingerprint()
        assert relation.rows() == expected.rows()
        assert relation.attributes == expected.attributes

    def test_extended_with_never_mutates_base(self):
        schema = RelationSchema.from_names(["a", "b"])
        base = Relation(schema, [(0, 5), (2, 7)], validate=False)
        before = base.fingerprint()
        extended = base.extended_with([(9, 5), (0, 5)])
        assert base.fingerprint() == before
        assert len(base) == 2 and len(extended) == 3

    def test_value_equal_to_an_identity_code_gap_keeps_its_spelling(self):
        # The base codes column a by identity, so codes 0 and 1 are
        # gaps; an appended 1.0 must not decode as the gap's int 1.
        schema = RelationSchema.from_names(["a"])
        base = Relation(schema, [(2,)], validate=False)
        extended = base.extended_with([(1.0,)])
        expected = Relation(schema, [(2,), (1.0,)], validate=False)
        assert extended.fingerprint() == expected.fingerprint()
        assert sorted(map(repr, extended.rows())) == ["(1.0,)", "(2,)"]

    def test_hash_equal_values_collapse_like_ingest(self):
        # 1 == True == 1.0 under set semantics; the append path must
        # dedup them exactly as a from-scratch Relation would.
        schema = RelationSchema.from_names(["a"])
        base = Relation(schema, [(1,)], validate=False)
        extended = base.extended_with([(True,), (1.0,), (2,)])
        expected = Relation(schema, [(1,), (True,), (1.0,), (2,)], validate=False)
        assert extended.fingerprint() == expected.fingerprint()
        assert len(extended) == 2


# ----------------------------------------------------------------------
# The incremental fingerprint: each version's sorted row-digest array
# ----------------------------------------------------------------------
#: Values a relation built in code may hold: ``1 == True == 1.0``
#: collide under set semantics, NaN is unequal to itself.
_CODE_VALUES = st.one_of(
    st.integers(0, 4),
    st.sampled_from(["x", "a,b", 'say "hi"', True, 1.0, float("nan")]),
)
#: CSV cell spellings: NaN and number spellings that coerce to colliding
#: values, a bool-like string, empty fields, commas and quotes.
_CSV_TOKENS = st.sampled_from(
    ["nan", "NaN", "1", "1.0", "01", "2", "True", "", "x", "a,b", 'say "hi"']
)


@st.composite
def chunked_cells(draw, cells):
    """A random table of ``cells`` cut into a non-empty base plus appends."""
    arity = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.lists(st.tuples(*[cells] * arity), min_size=1, max_size=24))
    cuts = sorted(draw(st.lists(st.integers(1, len(rows)), max_size=4)))
    bounds = [0] + cuts + [len(rows)]
    names = [f"c{i}" for i in range(arity)]
    return names, [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def python_digests(relation) -> bytes:
    """The fingerprint's digest bytes, the way a plain loop computes them."""
    return b"".join(
        sorted(
            hashlib.blake2b(repr(row).encode("utf-8"), digest_size=16).digest()
            for row in relation.rows()
        )
    )


class TestIncrementalFingerprint:
    @given(data=chunked_cells(_CODE_VALUES))
    @settings(max_examples=60, deadline=None)
    def test_decoded_base_any_split(self, data):
        names, chunks = data
        schema = RelationSchema.from_names(names)
        relation = infer_integer_domains(
            Relation(schema, chunks[0], validate=False)
        )
        relation.fingerprint()
        for chunk in chunks[1:]:
            relation = infer_integer_domains(relation.extended_with(chunk))
        # Read the cached array before anything decodes the rows.
        digests = relation._row_digests().tobytes()
        assert digests == python_digests(relation)
        assert (
            relation.fingerprint()
            == Relation(schema, relation.rows(), validate=False).fingerprint()
        )

    @given(data=chunked_cells(_CSV_TOKENS))
    @settings(max_examples=60, deadline=None)
    def test_csv_loaded_base_any_split(self, data):
        names, chunks = data
        schema = RelationSchema.from_names(names)

        def ingest(token_rows):
            # What Relation.from_csv_stream does with a file's tokens.
            builder = ColumnStoreBuilder(len(names))
            builder.add_tokens(token_rows)
            return infer_integer_domains(builder.finish(schema))

        relation = ingest(chunks[0])
        relation.fingerprint()
        for chunk in chunks[1:]:
            # Delta rows are coerced cell by cell, like an append body.
            delta = [tuple(map(_coerce, row)) for row in chunk]
            relation = infer_integer_domains(relation.extended_with(delta))
            assert relation._row_cache is None
            assert relation._digests is not None  # merged, not recomputed
        digests = relation._row_digests().tobytes()
        scratch = ingest([row for chunk in chunks for row in chunk])
        assert relation.fingerprint() == scratch.fingerprint()
        assert digests == python_digests(relation)

    def test_append_digests_only_new_rows(self, digested_rows):
        builder = ColumnStoreBuilder(2)
        builder.add_tokens([[str(i), f"v{i % 5}"] for i in range(40)])
        base = builder.finish(RelationSchema.from_names(["a", "b"]))
        base.fingerprint()
        digested_rows.clear()
        # Two new rows, one repeated row, one row the base already holds.
        appended = base.extended_with([(40, "v0"), (41, "v9"), (40, "v0"), (3, "v3")])
        fingerprint = appended.fingerprint()
        assert digested_rows == [2]
        assert len(appended) == 42
        assert fingerprint == Relation(
            appended.schema, appended.rows(), validate=False
        ).fingerprint()

    def test_pinned_fingerprints(self):
        # Values computed by the from-scratch per-row hashing loop the
        # digest array replaced; the hex must never change.
        schema = RelationSchema.from_names(["A", "B", "C"])
        rows = [
            (1, "x", 2.5),
            (2, "a,b", float("nan")),
            (3, 'say "hi"', None),
            (True, "", -0.0),
        ]
        assert (
            Relation(schema, rows).fingerprint()
            == "7f932a956bd22639664434bab5ee6dcd"
        )
        builder = ColumnStoreBuilder(3)
        builder.add_tokens(
            [
                ["1", "x", "2.5"],
                ["01", "a,b", "NaN"],
                ["1.0", 'say "hi"', ""],
                ["True", "", "nan"],
            ]
        )
        assert (
            builder.finish(schema).fingerprint()
            == "367bafc1cfcf8abbe51876235b0b8cb9"
        )


# ----------------------------------------------------------------------
# Registry: re-key, alias, chain persistence
# ----------------------------------------------------------------------
BASE_CSV = "A,B,C\n" + "".join(
    f"{a + 2 * c},{b},{c}\n" for c in (0, 1) for a in (0, 1) for b in (0, 1)
)
DELTA_CSV = "A,B,C\n8,0,2\n8,1,2\n9,0,2\n9,1,2\n"
DELTA_ROWS = [(8, 0, 2), (8, 1, 2), (9, 0, 2), (9, 1, 2)]


class TestRegistryAppend:
    def registry(self, tmp_path):
        return DatasetRegistry(spill_dir=tmp_path / "spill")

    def test_append_rekeys_and_aliases(self, tmp_path):
        registry = self.registry(tmp_path)
        entry, _ = registry.register_text(BASE_CSV, name="t")
        old_fp = entry.fingerprint
        entry2, info = registry.append_rows(old_fp, DELTA_ROWS)
        assert info["changed"] is True and info["rows_added"] == 4
        assert entry2.version == 2
        assert entry2.base_fingerprint == old_fp
        assert len(entry2.chunk_fingerprints) == 1
        assert info["chain"]["version"] == 2
        # The old fingerprint transparently resolves to the new entry.
        assert registry.resolve(old_fp) == entry2.fingerprint
        assert registry.get(old_fp) is entry2
        stats = registry.stats()
        assert stats["appends"] == 1 and stats["aliases"] == 1

    def test_appended_fingerprint_matches_concat_csv(self, tmp_path):
        registry = self.registry(tmp_path)
        entry, _ = registry.register_text(BASE_CSV, name="t")
        _, info = registry.append_rows(entry.fingerprint, DELTA_ROWS)
        concat = tmp_path / "concat.csv"
        concat.write_text(BASE_CSV + DELTA_CSV.split("\n", 1)[1])
        assert read_csv(concat).fingerprint() == info["fingerprint"]

    def test_duplicate_delta_is_noop(self, tmp_path):
        registry = self.registry(tmp_path)
        entry, _ = registry.register_text(BASE_CSV, name="t")
        _, info = registry.append_rows(entry.fingerprint, DELTA_ROWS)
        entry3, again = registry.append_rows(info["fingerprint"], DELTA_ROWS)
        assert again["changed"] is False and again["rows_added"] == 0
        assert entry3.version == 2
        assert registry.stats()["append_noops"] == 1

    def test_chain_survives_restart(self, tmp_path):
        registry = self.registry(tmp_path)
        entry, _ = registry.register_text(BASE_CSV, name="t")
        old_fp = entry.fingerprint
        _, info = registry.append_rows(old_fp, DELTA_ROWS)
        new_fp = info["fingerprint"]
        # A fresh registry over the same spill dir restores the chain
        # from the snapshot's extra metadata.
        reborn = self.registry(tmp_path)
        entry2 = reborn.get(new_fp)
        assert entry2.version == 2
        assert entry2.base_fingerprint == old_fp
        assert entry2.chunk_fingerprints == info["chain"]["chunks"]
        assert reborn.relation(new_fp).fingerprint() == new_fp

    def test_append_leaves_the_resident_version_undecoded(self, tmp_path):
        import csv
        from io import StringIO

        registry = self.registry(tmp_path)
        entry, _ = registry.register_text(BASE_CSV, name="t")
        entry2, info = registry.append_rows(entry.fingerprint, DELTA_ROWS)
        relation = entry2.relation
        # No row frozenset on the resident version: the spill wrote from
        # the store's decoded row list.
        assert relation._row_cache is None
        spilled = tmp_path / "spill" / f"dataset-{info['fingerprint']}.csv"
        expected = StringIO()
        writer = csv.writer(expected)
        writer.writerow(relation.schema.names)
        writer.writerows(relation.sorted_rows())  # the set-ordered rows
        assert spilled.read_bytes() == expected.getvalue().encode("utf-8")


    def test_resident_versions_keep_no_decoded_row_list(self, tmp_path):
        # Neither the fingerprint nor the CSV spill caches N decoded row
        # tuples on a resident version's store.
        registry = self.registry(tmp_path)
        entry, _ = registry.register_text(BASE_CSV, name="t")
        assert entry.relation.columns()._row_list is None
        entry2, _ = registry.append_rows(entry.fingerprint, DELTA_ROWS)
        assert entry2.relation._row_cache is None
        assert entry2.relation.columns()._row_list is None

    def test_superseded_fingerprint_reloads_evicted_live_version(
        self, tmp_path
    ):
        # A job queued before an append still holds the old fingerprint;
        # once the appended relation is evicted, loading it through that
        # alias must reload the live version, not raise a KeyError.
        registry = DatasetRegistry(
            memory_budget_bytes=1, spill_dir=tmp_path / "spill"
        )
        entry, _ = registry.register_text(BASE_CSV, name="t")
        old_fp = entry.fingerprint
        _, info = registry.append_rows(old_fp, DELTA_ROWS)
        registry.register_text("X,Y\n1,1\n", name="other")  # evicts "t"
        assert registry.get(info["fingerprint"]).relation is None
        relation = registry.relation(old_fp)
        assert relation.fingerprint() == info["fingerprint"]
        assert not registry.get(old_fp).degraded

# ----------------------------------------------------------------------
# HTTP end to end: append endpoint + revalidation
# ----------------------------------------------------------------------
@pytest.fixture()
def service(tmp_path):
    config = ServiceConfig(
        port=0, workers=2, spill_dir=tmp_path / "spill", max_queue=256
    )
    with Service(config) as running:
        yield running


@pytest.fixture()
def client(service):
    return ServiceClient(f"http://127.0.0.1:{service.port}")


class TestAppendEndpoint:
    def test_append_then_mine_is_revalidated_cache_hit(self, client):
        fp = client.register_dataset(csv=BASE_CSV, name="t")["fingerprint"]
        cold = client.run(fp, "mine", {})
        assert cold["cached"] is False
        # The delta extends the planted MVD (new class C=2), so the
        # mined tree re-scores within the default tolerance and the
        # cache entry is kept under the new fingerprint.
        out = client.append_dataset(fp, csv=DELTA_CSV)
        assert out["changed"] is True and out["version"] == 2
        assert out["chain"]["base"] == fp
        assert out["revalidation"]["examined"] == 1
        assert out["revalidation"]["revalidated"] == 1
        warm = client.run(out["fingerprint"], "mine", {})
        assert warm["cached"] is True
        assert warm["result"]["revalidated"] is True
        assert warm["result"]["revalidated_from"] == fp

    def test_append_response_matches_concat_ingest(self, client, tmp_path):
        fp = client.register_dataset(csv=BASE_CSV, name="t")["fingerprint"]
        out = client.append_dataset(fp, csv=DELTA_CSV)
        concat = tmp_path / "concat.csv"
        concat.write_text(BASE_CSV + DELTA_CSV.split("\n", 1)[1])
        assert read_csv(concat).fingerprint() == out["fingerprint"]
        # The superseded fingerprint keeps working (alias).
        assert client.get_dataset(fp)["fingerprint"] == out["fingerprint"]
        assert client.get_dataset(fp)["version"] == 2

    def test_replayed_append_is_idempotent(self, client):
        fp = client.register_dataset(csv=BASE_CSV, name="t")["fingerprint"]
        first = client.append_dataset(fp, csv=DELTA_CSV)
        # A client whose response was lost retries against the OLD
        # fingerprint: the alias resolves and the dedup makes it a no-op.
        replay = client.append_dataset(fp, csv=DELTA_CSV)
        assert replay["changed"] is False
        assert replay["fingerprint"] == first["fingerprint"]
        assert replay["version"] == first["version"]

    def test_append_by_server_local_path(self, client, tmp_path):
        fp = client.register_dataset(csv=BASE_CSV, name="t")["fingerprint"]
        delta_path = tmp_path / "delta.csv"
        delta_path.write_text(DELTA_CSV)
        out = client.append_dataset(fp, path=str(delta_path))
        assert out["changed"] is True and out["rows_added"] == 4

    def test_append_header_mismatch_400(self, client):
        fp = client.register_dataset(csv=BASE_CSV, name="t")["fingerprint"]
        with pytest.raises(BadRequestError) as excinfo:
            client.append_dataset(fp, csv="X,Y\n1,2\n")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

    def test_append_unknown_dataset_404(self, client):
        with pytest.raises(UnknownResourceError) as excinfo:
            client.append_dataset("0" * 32, csv=DELTA_CSV)
        assert excinfo.value.code == "unknown_dataset"

    def test_append_needs_exactly_one_source(self, client):
        fp = client.register_dataset(csv=BASE_CSV, name="t")["fingerprint"]
        with pytest.raises(BadRequestError):
            client.append_dataset(fp)
        with pytest.raises(BadRequestError):
            client.append_dataset(fp, csv=DELTA_CSV, path="delta.csv")

    def test_zero_tolerance_invalidates_moved_results(self, tmp_path):
        config = ServiceConfig(
            port=0,
            workers=2,
            spill_dir=tmp_path / "spill",
            revalidate_tolerance=0.0,
        )
        with Service(config) as running:
            client = ServiceClient(f"http://127.0.0.1:{running.port}")
            fp = client.register_dataset(csv=BASE_CSV, name="t")["fingerprint"]
            client.run(fp, "mine", {})
            # (0,0,1) breaks the planted MVD: J moves off 0.0, so at
            # tolerance 0 the cached tree must be dropped, not kept.
            out = client.append_dataset(fp, csv="A,B,C\n0,0,1\n")
            assert out["revalidation"]["invalidated"] == 1
            assert out["revalidation"]["revalidated"] == 0
            fresh = client.run(out["fingerprint"], "mine", {})
            assert fresh["cached"] is False
            stats = client.stats()
            assert stats["jobs"]["revalidation_invalidated"] == 1
            assert stats["cache"]["invalidated"] >= 1


# ----------------------------------------------------------------------
# Typed error envelope: classification + wire contract
# ----------------------------------------------------------------------
class TestErrorEnvelope:
    def test_classification_ladder(self):
        cases = [
            (QueueFullError("q"), 503, "queue_full", True, None),
            (
                CircuitOpenError("c", retry_after_s=2.5),
                503,
                "circuit_open",
                True,
                2.5,
            ),
            (UnknownJobError("j"), 404, "unknown_job", False, None),
            (UnknownDatasetError("d"), 404, "unknown_dataset", False, None),
            (DatasetDegradedError("g"), 409, "dataset_degraded", False, None),
            (ReproError("r"), 400, "bad_request", False, None),
            (ServiceError("s"), 400, "bad_request", False, None),
            (RuntimeError("x"), 500, "internal", False, None),
        ]
        for exc, status, code, retryable, retry_after in cases:
            assert classify_error(exc) == (status, code, retryable, retry_after)
            # Every emitted code is documented in the catalogue, with
            # the status the classifier actually uses.
            assert ERROR_CATALOG[code] == status

    def test_envelope_shape(self):
        doc = error_envelope("queue_full", "busy", retryable=True)
        assert doc["error"] == {
            "code": "queue_full",
            "message": "busy",
            "retryable": True,
            "retry_after_s": None,
        }
        assert doc["message"] == "busy"  # legacy-compat copy

    @pytest.mark.parametrize(
        "method,path,body,status,code",
        [
            ("GET", "/datasets/" + "0" * 32, None, 404, "unknown_dataset"),
            ("GET", "/jobs/job-999999", None, 404, "unknown_job"),
            ("GET", "/frobnicate", None, 404, "unknown_route"),
            ("POST", "/frobnicate", {}, 404, "unknown_route"),
            ("POST", "/datasets", {}, 400, "bad_request"),
            ("POST", "/jobs", {"fingerprint": 5}, 400, "bad_request"),
            (
                "POST",
                "/jobs",
                {"fingerprint": "0" * 32, "operation": "mine"},
                404,
                "unknown_dataset",
            ),
            (
                "POST",
                "/datasets/" + "0" * 32 + "/append",
                {"csv": "A\n1\n"},
                404,
                "unknown_dataset",
            ),
        ],
    )
    def test_wire_contract_v1_and_legacy(
        self, service, method, path, body, status, code
    ):
        request = urllib.request.Request(
            f"http://127.0.0.1:{service.port}/v1{path}",
            data=json.dumps(body).encode() if body is not None else None,
            headers={"Content-Type": "application/json"},
            method=method,
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        response = excinfo.value
        assert response.code == status
        document = json.loads(response.read())
        envelope = document["error"]
        assert envelope["code"] == code
        assert isinstance(envelope["message"], str)
        assert isinstance(envelope["retryable"], bool)
        assert document["message"] == envelope["message"]

    def test_get_errors_classified_by_type_not_404(
        self, service, client, monkeypatch
    ):
        # Regression: do_GET used to map EVERY ServiceError to 404.
        # The shared ladder now classifies GET exactly like POST.
        monkeypatch.setattr(
            service.jobs,
            "get",
            lambda job_id: (_ for _ in ()).throw(ServiceError("boom")),
        )
        with pytest.raises(ServiceClientError) as excinfo:
            client.get_job("whatever")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        monkeypatch.setattr(
            service.jobs,
            "get",
            lambda job_id: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(ServiceClientError) as excinfo:
            client.get_job("whatever")
        assert excinfo.value.status == 500
        assert excinfo.value.code == "internal"

    def test_client_typed_exceptions_carry_envelope(self, client):
        with pytest.raises(UnknownResourceError) as excinfo:
            client.get_dataset("0" * 32)
        exc = excinfo.value
        assert exc.status == 404
        assert exc.code == "unknown_dataset"
        assert exc.retryable is False
        assert exc.retry_after_s is None

    def test_bare_route_is_unknown_route(self, client):
        assert client.healthz()["status"] == "ok"
        with pytest.raises(UnknownResourceError) as excinfo:
            client._request("GET", "/healthz")  # the retired bare alias
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_route"


# ----------------------------------------------------------------------
# Cluster mode: the append dispatches to the shard owner
# ----------------------------------------------------------------------
class TestClusterAppend:
    def test_cluster_append_rekeys_and_snapshots(self, tmp_path):
        config = ServiceConfig(
            port=0,
            workers=2,
            spill_dir=tmp_path / "spill",
            worker_procs=1,
        )
        with Service(config) as running:
            client = ServiceClient(f"http://127.0.0.1:{running.port}")
            fp = client.register_dataset(csv=BASE_CSV, name="t")["fingerprint"]
            client.run(fp, "mine", {})
            out = client.append_dataset(fp, csv=DELTA_CSV)
            assert out["changed"] is True and out["version"] == 2
            new_fp = out["fingerprint"]
            concat = tmp_path / "concat.csv"
            concat.write_text(BASE_CSV + DELTA_CSV.split("\n", 1)[1])
            assert read_csv(concat).fingerprint() == new_fp
            # The worker wrote the new version's snapshot where the new
            # owner (and a restarted front end) hydrates from.
            assert (tmp_path / "spill" / f"snapshot-{new_fp}").is_dir()
            # Jobs against both the new and the aliased old fingerprint
            # keep working across the re-shard.
            assert client.get_dataset(fp)["fingerprint"] == new_fp
            report = client.mine(new_fp)
            assert report["n_rows"] == 12
