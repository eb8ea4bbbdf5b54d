"""Evaluation context: everything one loss evaluation needs, in one bundle.

The discovery layer has :class:`~repro.discovery.context.SearchContext`;
this is its evaluation-side sibling.  An :class:`EvalContext` carries one
relation together with its memoizing :class:`~repro.info.engine.EntropyEngine`
*and* three further memo layers the evaluation pipeline shares:

* **tree join sizes** — ``|⋈ᵢ R[Ωᵢ]|`` per join tree (hashable), so
  ``ρ``, the product-bound check, and the stepwise-expansion bound all
  pay for each message-passing count exactly once (the stepwise bound's
  last prefix *is* the full tree, so even cross-function reuse happens);
* **split join sizes** — the two-projection counts of Eq. 28, keyed by
  the unordered ``{left, right}`` pair, shared between per-split losses,
  the product bound, and the classwise decomposition;
* **projection sizes** — active domain sizes ``|Π_Y(R)|`` for the
  bounds' ``d_A``-style quantities.

Like the relation's entropy engine, the context is cached *on* the
relation (:meth:`EvalContext.for_relation`), so every evaluation entry
point — :func:`~repro.core.analysis.analyze`, the loss functions, the
factorization pipeline, experiments — converges on one shared memo per
relation instance.  Relations are immutable, hence nothing is ever
invalidated.  The relation owns its cached context, which reaches it only
through the engine's weak reference, so dropping the relation frees all three.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import DistributionError, ReproError
from repro.info.engine import EntropyEngine
from repro.jointrees.jointree import JoinTree
from repro.relations.join import acyclic_join_size, split_join_size
from repro.relations.relation import Relation

#: Cache key for an unordered two-projection split.
_SplitKey = frozenset


@dataclass
class EvalContext:
    """Shared memo state for evaluating schemas against one relation.

    Attributes
    ----------
    engine:
        The relation's memoizing entropy engine; all ``H``/CMI queries
        route through it, and :attr:`relation` is its relation.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.random_relations import random_relation
    >>> from repro.jointrees.build import jointree_from_schema
    >>> r = random_relation({"A": 4, "B": 4, "C": 2}, 20, np.random.default_rng(0))
    >>> ctx = EvalContext.for_relation(r)
    >>> tree = jointree_from_schema([{"A", "C"}, {"B", "C"}])
    >>> ctx.spurious_count(tree) == ctx.join_size(tree) - len(r)
    True
    >>> ctx.join_size(tree) == ctx.join_size(tree)  # second call is a memo hit
    True
    """

    engine: EntropyEngine
    _join_sizes: dict[JoinTree, int] = field(default_factory=dict, repr=False)
    _split_sizes: dict[frozenset, int] = field(default_factory=dict, repr=False)
    _projection_sizes: dict[tuple[str, ...], int] = field(
        default_factory=dict, repr=False
    )

    @classmethod
    def for_relation(
        cls, relation: Relation, *, engine: EntropyEngine | None = None
    ) -> "EvalContext":
        """The context cached on ``relation`` (created on first use).

        All evaluation call sites route through this accessor, so any mix
        of ``analyze`` / loss / factorization calls against the same
        relation instance shares one memo, exactly like
        :meth:`EntropyEngine.for_relation`.  Passing an explicit
        ``engine`` builds a detached context around it instead; an engine
        built for another relation raises :class:`~repro.errors.ReproError`.
        """
        if engine is not None:
            if engine.relation is not relation:
                raise ReproError("the engine was built for a different relation")
            return cls(engine)
        context = relation._eval
        if context is None:
            context = cls(EntropyEngine.for_relation(relation))
            relation._eval = context
        return context

    @property
    def relation(self) -> Relation:
        """The universal relation instance ``R`` being evaluated."""
        return self.engine.relation

    # ------------------------------------------------------------------
    # Entropy queries (delegated to the engine)
    # ------------------------------------------------------------------
    def entropy(self, attributes: Iterable[str], *, base: float | None = None) -> float:
        """``H(attributes)`` via the shared engine memo."""
        return self.engine.entropy(attributes, base=base)

    def cmi(
        self,
        left: Iterable[str],
        right: Iterable[str],
        given: Iterable[str] = (),
        *,
        base: float | None = None,
    ) -> float:
        """``I(left; right | given)`` via the shared engine memo."""
        return self.engine.cmi(left, right, given, base=base)

    # ------------------------------------------------------------------
    # Counting queries (memoized here)
    # ------------------------------------------------------------------
    def projection_size(self, attributes: Iterable[str]) -> int:
        """``|Π_attributes(R)|`` (memoized per canonical subset)."""
        key = self.relation.schema.canonical_order(attributes)
        size = self._projection_sizes.get(key)
        if size is None:
            size = self.relation.projection_size(key)
            self._projection_sizes[key] = size
        return size

    def join_size(self, jointree: JoinTree) -> int:
        """``|⋈ᵢ R[Ωᵢ]|`` for the tree's bags (memoized per tree)."""
        size = self._join_sizes.get(jointree)
        if size is None:
            size = acyclic_join_size(self.relation, jointree)
            self._join_sizes[jointree] = size
        return size

    def split_join_size(self, left: Iterable[str], right: Iterable[str]) -> int:
        """``|R[left] ⋈ R[right]|`` (memoized per unordered side pair)."""
        schema = self.relation.schema
        left_key = frozenset(schema.canonical_order(left))
        right_key = frozenset(schema.canonical_order(right))
        key = _SplitKey((left_key, right_key))
        size = self._split_sizes.get(key)
        if size is None:
            size = split_join_size(self.relation, left_key, right_key)
            self._split_sizes[key] = size
        return size

    # ------------------------------------------------------------------
    # Loss quantities
    # ------------------------------------------------------------------
    def spurious_count(self, jointree: JoinTree) -> int:
        """``|⋈ᵢ R[Ωᵢ]| − |R|`` — the number of spurious tuples."""
        if self.relation.is_empty():
            return 0
        return self.join_size(jointree) - len(self.relation)

    def spurious_loss(self, jointree: JoinTree) -> float:
        """``ρ(R, S)`` (Eq. 1) for the schema defined by ``jointree``."""
        if self.relation.is_empty():
            raise DistributionError("ρ(R, S) is undefined for an empty relation")
        return self.spurious_count(jointree) / len(self.relation)

    def j_measure(self, jointree: JoinTree, *, base: float | None = None) -> float:
        """``J(T)`` (entropy form) through the shared engine."""
        from repro.core.jmeasure import j_measure

        return j_measure(self.relation, jointree, base=base, engine=self.engine)

    def j_measure_kl(self, jointree: JoinTree, *, base: float | None = None) -> float:
        """``J(T) = D_KL(P‖P^T)`` on the columnar KL path."""
        from repro.core.jmeasure import j_measure_kl

        return j_measure_kl(self.relation, jointree, base=base)

    def cache_stats(self) -> dict[str, int]:
        """Sizes of the context's memo layers (diagnostics/tests)."""
        return {
            "entropies": self.engine.cache_size(),
            "tree_join_sizes": len(self._join_sizes),
            "split_join_sizes": len(self._split_sizes),
            "projection_sizes": len(self._projection_sizes),
        }
