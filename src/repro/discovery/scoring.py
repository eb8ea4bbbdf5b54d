"""Split scoring: batched CMI evaluation.

Every discovery strategy reduces to the same inner question — *given a
batch of candidate splits ``X ↠ Y|Z``, what is each one's conditional
mutual information ``I(Y; Z | X)``?*  :class:`SerialSplitScorer` answers
it in-process through the run's shared memoizing
:class:`~repro.info.engine.EntropyEngine`, so overlapping candidates'
four-entropy expansions are each computed once.  Strategies reach it
only through ``context.scorer``, so a caller may pass a subclass (for
example one that counts or times the batches) to :func:`mine_jointree`.

A *candidate* is a ``(separator, left, right)`` triple of attribute
frozensets; a scored candidate is an :class:`MVDSplit`.  Candidate order
is preserved, so deterministic tie-breaking (:func:`prefer_split`) is
well defined.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.info.engine import EntropyEngine
from repro.relations.relation import Relation

#: A candidate split: (separator, left, right) attribute frozensets.
SplitCandidate = tuple[frozenset[str], frozenset[str], frozenset[str]]


@dataclass(frozen=True)
class MVDSplit:
    """A scored candidate split ``separator ↠ left | right``."""

    separator: frozenset[str]
    left: frozenset[str]
    right: frozenset[str]
    cmi: float


def rank_key(split: MVDSplit) -> tuple:
    """The canonical split-ordering key: CMI, separator size, lexicographic.

    Single source of truth for every consumer — :func:`prefer_split`'s
    fold, the beam strategy's admissible ordering, the anytime
    strategy's top-k sampling.  The legacy bit-for-bit guarantee and
    cross-strategy determinism both hang on this one tuple.
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


class SerialSplitScorer:
    """In-process scoring through the relation's shared entropy memo."""

    def score_batch(
        self,
        relation: Relation,
        candidates: Sequence[SplitCandidate],
        *,
        engine: EntropyEngine | None = None,
    ) -> list[MVDSplit]:
        """Score ``candidates`` against ``relation``, preserving order."""
        if engine is None:
            engine = EntropyEngine.for_relation(relation)
        return [
            MVDSplit(separator, left, right, engine.cmi(left, right, separator))
            for separator, left, right in candidates
        ]
