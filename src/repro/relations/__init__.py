"""Relational algebra substrate: schemas, relation instances, joins.

See :mod:`repro.relations.schema`, :mod:`repro.relations.relation`,
:mod:`repro.relations.join`, :mod:`repro.relations.io` (CSV in and
out), and :mod:`repro.relations.builder` (the columnar ingest route).
"""

from repro.relations.builder import ColumnStoreBuilder, relation_from_chunks
from repro.relations.io import (
    DEFAULT_CHUNK_ROWS,
    CsvChunk,
    iter_csv_chunks,
    sniff_header,
)
from repro.relations.join import (
    acyclic_join_size,
    cartesian_size,
    join_size,
    materialized_acyclic_join,
    natural_join,
    natural_join_all,
    split_join_size,
)
from repro.relations.columns import CellRecord, ColumnStore, GroupIndex
from repro.relations.io import infer_integer_domains, read_csv, write_csv
from repro.relations.persist import (
    atomic_write_text,
    load_snapshot,
    read_snapshot_meta,
    save_snapshot,
)
from repro.relations.relation import Relation
from repro.relations.schema import Attribute, RelationSchema, Row, Value
from repro.relations.semijoin import (
    dangling_counts,
    full_reduce,
    is_globally_consistent,
    projections_for_tree,
    semijoin,
)
from repro.relations.yannakakis import (
    evaluate_acyclic_join,
    evaluate_decomposition,
)

__all__ = [
    "Attribute",
    "CellRecord",
    "ColumnStore",
    "ColumnStoreBuilder",
    "CsvChunk",
    "DEFAULT_CHUNK_ROWS",
    "GroupIndex",
    "Relation",
    "RelationSchema",
    "Row",
    "Value",
    "acyclic_join_size",
    "atomic_write_text",
    "cartesian_size",
    "dangling_counts",
    "evaluate_acyclic_join",
    "evaluate_decomposition",
    "full_reduce",
    "infer_integer_domains",
    "is_globally_consistent",
    "iter_csv_chunks",
    "join_size",
    "load_snapshot",
    "materialized_acyclic_join",
    "natural_join",
    "natural_join_all",
    "projections_for_tree",
    "read_csv",
    "read_snapshot_meta",
    "relation_from_chunks",
    "save_snapshot",
    "semijoin",
    "sniff_header",
    "split_join_size",
    "write_csv",
]
