"""Factorized decomposition pipeline: project, reduce, measure, persist.

The paper's end-to-end story in one module: given a universal relation
and a join tree (user-supplied or mined), materialize the acyclic
decomposition ``{R[Ωᵢ]}``, run Yannakakis' full semijoin reduction over
the columnar backend, measure exactly what the factorization costs — a
:class:`DecompositionReport` with ``J`` in both forms, ``ρ``, the
per-split CMIs of Theorem 2.2, the spurious-tuple count from the
message-passing join counter, and the storage footprint — and optionally
write the whole thing to disk as one CSV per bag plus a JSON report.

All measurement flows through the relation's shared
:class:`~repro.core.evalcontext.EvalContext`, so decomposing after
mining (or analyzing after decomposing) re-uses every entropy and join
size already paid for.

>>> import numpy as np
>>> from repro.datasets.synthetic import planted_mvd_relation
>>> from repro.jointrees.build import jointree_from_schema
>>> r = planted_mvd_relation(6, 6, 4, np.random.default_rng(0))
>>> dec = decompose(r, jointree_from_schema([{"A", "C"}, {"B", "C"}]))
>>> dec.report.spurious == 0 and reconstruct(dec) == r
True
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from repro.core.evalcontext import EvalContext
from repro.core.jmeasure import j_measure, j_measure_kl, support_cmis
from repro.errors import ReproError
from repro.jointrees.jointree import JoinTree
from repro.jointrees.metrics import (
    TreeMetrics,
    compression_ratio,
    storage_cells,
    tree_metrics,
)
from repro.relations.io import write_csv
from repro.relations.relation import Relation
from repro.relations.semijoin import full_reduce, projections_for_tree
from repro.relations.yannakakis import evaluate_acyclic_join

__all__ = [
    "BagTable",
    "Decomposition",
    "DecompositionReport",
    "decompose",
    "discover_and_decompose",
    "reconstruct",
    "write_decomposition",
]


@dataclass(frozen=True)
class DecompositionReport:
    """Everything the paper says about one materialized decomposition.

    All information quantities are in nats.  ``spurious`` and
    ``join_size`` come from the message-passing counter
    (:func:`~repro.relations.join.acyclic_join_size`), never from a
    materialized join.
    """

    n_rows: int
    n_cols: int
    schema: tuple[tuple[str, ...], ...]
    j_measure: float
    j_kl: float
    rho: float
    spurious: int
    join_size: int
    split_cmis: tuple[float, ...]
    storage_cells: int
    compression_ratio: float
    metrics: TreeMetrics

    @property
    def lossless(self) -> bool:
        """Whether the AJD holds exactly (no spurious tuples)."""
        return self.spurious == 0

    def to_dict(self) -> dict:
        """JSON-ready view (merged into the CLI's shared report schema)."""
        return {
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "schema": [list(bag) for bag in self.schema],
            # Same shape as `mine --json`'s bags (attribute-name lists),
            # so the report family stays uniformly consumable.
            "bags": [list(bag) for bag in self.schema],
            "j_measure": self.j_measure,
            "j_kl": self.j_kl,
            "rho": self.rho,
            "spurious": self.spurious,
            "join_size": self.join_size,
            "lossless": self.lossless,
            "split_cmis": list(self.split_cmis),
            "storage_cells": self.storage_cells,
            "compression_ratio": self.compression_ratio,
            "tree": {
                "num_bags": self.metrics.num_bags,
                "width": self.metrics.width,
                "max_separator_size": self.metrics.max_separator_size,
                "diameter": self.metrics.diameter,
            },
        }


@dataclass(frozen=True)
class BagTable:
    """One materialized (and fully reduced) bag of the decomposition."""

    node: int
    attributes: tuple[str, ...]
    relation: Relation


@dataclass(frozen=True)
class Decomposition:
    """A materialized factorized instance plus its measured report."""

    jointree: JoinTree
    bags: tuple[BagTable, ...]
    report: DecompositionReport
    attribute_order: tuple[str, ...]


def decompose(
    relation: Relation,
    jointree: JoinTree,
    *,
    context: EvalContext | None = None,
) -> Decomposition:
    """Materialize and measure the decomposition of ``relation`` by ``jointree``.

    Projects every bag, applies Yannakakis' full semijoin reduction
    (a provable no-op for projections of one instance — running it keeps
    the pipeline honest for arbitrary inputs and costs two columnar
    sweeps), and assembles the :class:`DecompositionReport` from the
    shared evaluation context.
    """
    tree_attrs = jointree.attributes()
    if tree_attrs != relation.schema.name_set:
        raise ReproError(
            f"decomposition needs χ(T) = Ω; tree covers {sorted(tree_attrs)} "
            f"but the relation has {sorted(relation.schema.name_set)}"
        )
    if relation.is_empty():
        raise ReproError("cannot decompose an empty relation")
    if context is None:
        context = EvalContext.for_relation(relation)
    reduced = full_reduce(projections_for_tree(relation, jointree), jointree)
    join_size = context.join_size(jointree)
    report = DecompositionReport(
        n_rows=len(relation),
        n_cols=relation.schema.arity,
        schema=tuple(sorted(tuple(sorted(bag)) for bag in jointree.schema())),
        j_measure=j_measure(relation, jointree, engine=context.engine),
        j_kl=j_measure_kl(relation, jointree),
        rho=context.spurious_loss(jointree),
        spurious=join_size - len(relation),
        join_size=join_size,
        split_cmis=tuple(
            term.cmi
            for term in support_cmis(relation, jointree, engine=context.engine)
        ),
        storage_cells=storage_cells(relation, jointree, context=context),
        compression_ratio=compression_ratio(relation, jointree, context=context),
        metrics=tree_metrics(jointree),
    )
    bags = tuple(
        BagTable(
            node=node,
            attributes=reduced[node].schema.names,
            relation=reduced[node],
        )
        for node in jointree.node_ids()
    )
    return Decomposition(
        jointree=jointree,
        bags=bags,
        report=report,
        attribute_order=relation.schema.names,
    )


def discover_and_decompose(
    relation: Relation,
    *,
    strategy: str = "recursive",
    threshold: float = 1e-9,
    max_separator_size: int = 2,
    deadline: float | None = None,
    seed: int = 0,
    backend: "object | None" = None,
):
    """Mine a low-J schema, then decompose and measure it in one call.

    Returns ``(decomposition, mined)`` where ``mined`` is the
    :class:`~repro.discovery.miner.MinedSchema`.  The mining run and the
    decomposition report share the relation's entropy memo and join-size
    cache, so the measurement step is nearly free after the search.

    ``backend`` steers the *mining* phase only (as with the CLI's
    ``decompose --backend``): the materialized decomposition and its
    report always measure with the exact engine.  ``deadline`` bounds
    the mining search the way :func:`~repro.discovery.miner.mine_jointree`
    does.
    """
    from repro.discovery.miner import mine_jointree

    mined = mine_jointree(
        relation,
        threshold=threshold,
        max_separator_size=max_separator_size,
        strategy=strategy,
        deadline=deadline,
        seed=seed,
        backend=backend,
    )
    return decompose(relation, mined.jointree), mined


def reconstruct(decomposition: Decomposition) -> Relation:
    """Re-join the bags with Yannakakis' algorithm (columns re-aligned).

    This materializes exactly the join whose *size* the report counts;
    use it only when ``report.join_size`` is small enough to hold.  For a
    lossless decomposition the result equals the original relation.
    """
    joined = evaluate_acyclic_join(
        {bag.node: bag.relation for bag in decomposition.bags},
        decomposition.jointree,
    )
    return joined.reorder(decomposition.attribute_order)


def _bag_filename(index: int, attributes: tuple[str, ...]) -> str:
    """Deterministic, filesystem-safe CSV name for one bag."""
    safe = "_".join(
        re.sub(r"[^A-Za-z0-9_-]", "", attr) or "col" for attr in attributes
    )
    return f"bag_{index}_{safe}.csv"


def write_decomposition(
    decomposition: Decomposition,
    out_dir: str | Path,
    *,
    report_extra: dict | None = None,
) -> dict[str, Path]:
    """Persist a decomposition: one CSV per bag plus ``report.json``.

    ``report.json`` always satisfies the CLI's shared report schema
    (:mod:`repro.factorize.report`): the core fields default to
    ``command="decompose"``, ``strategy=None``, and ``wall_time_s=0.0``
    (library callers have no end-to-end clock; the CLI overrides all
    three).  ``bags`` keeps the family-wide shape (a list of
    attribute-name lists, as in ``mine --json``); the per-file details
    live under ``bag_files``.  ``report_extra`` entries are merged over
    the payload last.  Returns the written paths keyed by ``"report"``
    and each bag's filename.
    """
    from repro.factorize.report import base_report

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    bag_files = []
    for index, bag in enumerate(decomposition.bags):
        name = _bag_filename(index, bag.attributes)
        path = out / name
        write_csv(bag.relation, path)
        paths[name] = path
        bag_files.append(
            {"file": name, "attributes": list(bag.attributes), "rows": len(bag.relation)}
        )
    report = decomposition.report
    payload = base_report(
        command="decompose",
        strategy=None,
        j_measure=report.j_measure,
        rho=report.rho,
        wall_time_s=0.0,
        n_rows=report.n_rows,
        n_cols=report.n_cols,
    )
    payload.update(report.to_dict())
    payload["bag_files"] = bag_files
    if report_extra:
        payload.update(report_extra)
    report_path = out / "report.json"
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    paths["report"] = report_path
    return paths
