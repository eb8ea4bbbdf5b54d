"""Split scoring: one batched CMI gather per candidate batch.

Every discovery strategy reduces to the same inner question — *given a
batch of candidate splits ``X ↠ Y|Z``, what is each one's conditional
mutual information ``I(Y; Z | X)``?*  :class:`SerialSplitScorer` answers
it in-process through the run's shared memoizing
:class:`~repro.info.engine.EntropyEngine`.  Strategies reach it only
through ``context.scorer``, so a caller may pass a subclass (for example
one that counts or times the batches) to :func:`mine_jointree`.

A :class:`CandidateBatch` holds the splits of one attribute set as three
parallel lists of attribute bitmasks (the engine's encoding: bit ``i`` is
schema position ``i``).  Scoring fills the memo for every entropy the
batch needs and computes all CMIs as one numpy expression, in the
operation order of :meth:`EntropyEngine.cmi`, so each value is
bit-identical to the per-candidate call.  The result, a
:class:`ScoredBatch`, ranks its candidates with one ``np.lexsort`` that
orders them exactly as :func:`rank_key` does, and builds an
:class:`MVDSplit` (frozensets) only for the splits a strategy takes.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass
from operator import or_

import numpy as np

from repro.info.engine import EntropyEngine
from repro.relations.relation import Relation


@dataclass(frozen=True)
class MVDSplit:
    """A scored candidate split ``separator ↠ left | right``."""

    separator: frozenset[str]
    left: frozenset[str]
    right: frozenset[str]
    cmi: float


def rank_key(split: MVDSplit) -> tuple:
    """The canonical split-ordering key: CMI, separator size, lexicographic.

    The reference definition of the order :meth:`ScoredBatch.ranked`
    computes in bulk; every strategy's choice of split and the legacy
    bit-for-bit guarantee hang on this one tuple.
    """
    return (
        split.cmi,
        len(split.separator),
        sorted(split.separator),
        sorted(split.left),
    )


def prefer_split(candidate: MVDSplit, incumbent: MVDSplit) -> bool:
    """Whether ``candidate`` strictly precedes ``incumbent`` in rank order."""
    return rank_key(candidate) < rank_key(incumbent)


@dataclass(frozen=True)
class CandidateBatch:
    """Candidate splits ``separators[i] ↠ lefts[i] | rights[i]`` as masks."""

    separators: list[int]
    lefts: list[int]
    rights: list[int]

    def __len__(self) -> int:
        return len(self.separators)


def _ranks(masks: list[int], key: Callable[[int], Hashable]) -> np.ndarray:
    """Each mask's position among the batch's distinct masks sorted by ``key``."""
    distinct = sorted(dict.fromkeys(masks), key=key)
    rank = {mask: position for position, mask in enumerate(distinct)}
    return np.fromiter(map(rank.__getitem__, masks), dtype=np.int64, count=len(masks))


class ScoredBatch:
    """A candidate batch with its CMIs (``cmi[i]`` scores candidate ``i``)."""

    __slots__ = ("_engine", "_order", "candidates", "cmi")

    def __init__(
        self, candidates: CandidateBatch, cmi: np.ndarray, engine: EntropyEngine
    ) -> None:
        self.candidates = candidates
        self.cmi = cmi
        self._engine = engine
        self._order: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.candidates)

    def ranked(self) -> np.ndarray:
        """Candidate indices in :func:`rank_key` order.

        The name-order ranks are computed once per distinct mask, so ties
        break on sorted attribute *names* as :func:`rank_key` does, even
        where name order differs from schema order.
        """
        if self._order is None:
            names = self._engine.names
            candidates = self.candidates
            separator_rank = _ranks(
                candidates.separators,
                lambda mask: (mask.bit_count(), sorted(names(mask))),
            )
            left_rank = _ranks(candidates.lefts, lambda mask: sorted(names(mask)))
            self._order = np.lexsort((left_rank, separator_rank, self.cmi))
        return self._order

    def admissible(self, threshold: float) -> np.ndarray:
        """Ranked candidate indices whose CMI is at most ``threshold``."""
        order = self.ranked()
        return order[self.cmi[order] <= threshold]

    def split(self, index: int) -> MVDSplit:
        """Candidate ``index`` as an :class:`MVDSplit` of attribute names."""
        names = self._engine.names
        candidates = self.candidates
        return MVDSplit(
            frozenset(names(candidates.separators[index])),
            frozenset(names(candidates.lefts[index])),
            frozenset(names(candidates.rights[index])),
            float(self.cmi[index]),
        )


class SerialSplitScorer:
    """In-process scoring through the relation's shared entropy memo."""

    def score_batch(
        self,
        relation: Relation,
        candidates: CandidateBatch,
        *,
        engine: EntropyEngine | None = None,
    ) -> ScoredBatch:
        """Score ``candidates`` against ``relation``, preserving order."""
        if engine is None:
            engine = EntropyEngine.for_relation(relation)
        separators, rights = candidates.separators, candidates.rights
        ac = list(map(or_, separators, candidates.lefts))
        bc = list(map(or_, separators, rights))
        abc = list(map(or_, ac, rights))
        h_c, h_ac, h_bc, h_abc = map(engine.mask_entropies, (separators, ac, bc, abc))
        # EntropyEngine.cmi's operation order, so every value is bit-identical.
        return ScoredBatch(
            candidates, np.maximum(h_bc + h_ac - h_abc - h_c, 0.0), engine
        )
