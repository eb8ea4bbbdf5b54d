"""Memoizing entropy engine: one relation, one cache, all of ``H``/CMI.

Every quantity the paper computes — joint entropies ``H(Y)``, the CMIs
``I(Y;Z|X)`` that drive MVD mining, and the J-measure assembled from both —
reduces to projection multiplicity counts of a *single* relation instance.
:class:`EntropyEngine` wraps one relation and memoizes ``H(Y)`` (in nats)
per canonical attribute-subset key, so a lattice search that revisits
overlapping subsets (the discovery miner evaluates thousands of CMIs whose
four-entropy expansions share terms) computes each distinct entropy once,
from the relation's vectorized columnar counts.

Cache keying and invalidation
-----------------------------
Keys are attribute-set bitmasks: bit ``i`` stands for the attribute at
schema position ``i`` (TANE's bit-vector lattice, Huhtala et al.,
*Comput. J.* 1999), so every spelling of the same set hits the same
entry, and a Python int keys a schema of any width.  Names are turned
into a mask once per call (:meth:`EntropyEngine.mask`); the discovery
layer works in masks throughout and scores a whole candidate batch with
one gather (:meth:`EntropyEngine.mask_entropies`).  The tuple-keyed
:meth:`~EntropyEngine.cache_snapshot` / :meth:`~EntropyEngine.merge_cache`
pair keeps names in the schema's canonical order at the edge, for the
persisted memo sidecar.  Relations are immutable, hence the memo is
never invalidated:
derived relations (projections, selections, unions) are new objects with
fresh engines.  Use :meth:`EntropyEngine.for_relation` to get the engine
cached *on* the relation, which is how the discovery, core, and info
layers all end up sharing one cache per relation instance.  The relation
owns that engine, which refers back to it weakly, so dropping the last
reference to the relation frees both; a *detached* engine (built
directly, or for a non-exact backend) holds its relation strongly.

Backends
--------
*How* each memoized entropy is produced is pluggable
(:mod:`repro.info.backends`): the default ``"exact"`` backend computes
plug-in entropies from the exact columnar counts (bit-identical to the
pre-backend engine), while ``"sketch"`` streams each subset's keys in
bounded-memory chunks through CountMin/KMV counters and returns
Miller–Madow-corrected estimates.  The memo layer is backend-agnostic.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import DistributionError, ReproError, UnknownAttributeError
from repro.info.backends import EntropyBackend, make_backend
from repro.relations.relation import Relation


def _convert(value_nats: float, base: float | None) -> float:
    if base is None:
        return value_nats
    if base <= 0 or base == 1.0:
        raise DistributionError(f"log base must be positive and != 1, got {base}")
    return value_nats / math.log(base)


class EntropyEngine:
    """Vectorized, memoizing empirical-entropy oracle for one relation.

    All entropies are plug-in (maximum-likelihood) entropies of the
    relation's empirical distribution, in nats unless ``base`` is given —
    exactly the quantities of Section 2.2 of the paper.

    Examples
    --------
    >>> from repro.relations.schema import RelationSchema
    >>> schema = RelationSchema.from_names(["A", "B"])
    >>> r = Relation(schema, [(0, 0), (0, 1), (1, 0), (1, 1)])
    >>> engine = EntropyEngine.for_relation(r)
    >>> round(engine.entropy(["A"], base=2), 6)
    1.0
    >>> engine.cmi(["A"], ["B"])  # independent: I(A;B) = 0
    0.0
    """

    __slots__ = (
        "_backend",
        "_bits",
        "_cache",
        "_log_n",
        "_n",
        "_names",
        "_owner",
        "_ref",
    )

    def __init__(
        self,
        relation: Relation,
        *,
        backend: "str | EntropyBackend | None" = None,
    ) -> None:
        # `_owner` keeps a detached engine's relation alive; see for_relation.
        self._ref = weakref.ref(relation)
        self._owner: Relation | None = relation
        self._backend = make_backend(backend)
        self._names = relation.schema.names
        self._bits = {name: 1 << i for i, name in enumerate(self._names)}
        # H(∅) = 0 is seeded so that gathers need no branch for the empty
        # separator; it has no key, so it is not counted as a memo entry.
        self._cache: dict[int, float] = {0: 0.0}
        self._n = len(relation)
        self._log_n = math.log(self._n) if self._n else None

    @classmethod
    def for_relation(
        cls,
        relation: Relation,
        *,
        backend: "str | EntropyBackend | None" = None,
    ) -> "EntropyEngine":
        """The engine cached on ``relation`` (created on first use).

        All library call sites route through this accessor, so any mix of
        ``joint_entropy`` / CMI / J-measure / miner calls against the same
        relation instance shares a single memo.

        With ``backend=None`` (the default) the cached engine is returned
        whatever backend it was built with.  Requesting a specific
        backend returns the cached engine when it matches; otherwise a
        fresh *detached* engine is built around the requested backend.
        **Only exact engines are ever cached on the relation**: an
        approximate backend must never leak into callers that asked for
        the default (e.g. an exact ``decompose`` report following a
        sketch-backed mining run), so non-exact requests always get
        detached engines.
        """
        engine = relation._engine
        if engine is not None:
            if backend is None or engine._matches_backend(backend):
                return engine
            return cls(relation, backend=backend)
        engine = cls(relation, backend=backend)
        if engine._backend.name == "exact":
            engine._owner = None
            relation._engine = engine
        return engine

    def _matches_backend(self, backend: "str | EntropyBackend") -> bool:
        if isinstance(backend, EntropyBackend):
            return self._backend is backend
        return self._backend.name == backend

    @property
    def relation(self) -> Relation:
        """The wrapped relation (a ``ReproError`` once it has been freed)."""
        relation = self._ref()
        if relation is None:
            raise ReproError("the relation of this cached entropy engine was freed")
        return relation

    @property
    def backend(self) -> EntropyBackend:
        """The entropy backend producing this engine's (memoized) values."""
        return self._backend

    def key(self, attributes: Iterable[str]) -> tuple[str, ...]:
        """An attribute subset's names in schema order."""
        return self.relation.schema.canonical_order(attributes)

    def mask(self, attributes: Iterable[str]) -> int:
        """The bitmask of an attribute subset (bit ``i`` = schema position ``i``).

        Unknown names raise :class:`~repro.errors.UnknownAttributeError`.
        """
        bits = self._bits
        mask = 0
        unknown = []
        for name in attributes:
            bit = bits.get(name)
            if bit is None:
                unknown.append(name)
            else:
                mask |= bit
        if unknown:
            raise UnknownAttributeError(
                f"unknown attributes {sorted(set(map(str, unknown)))}; "
                f"schema has {list(self._names)}"
            )
        return mask

    def names(self, mask: int) -> tuple[str, ...]:
        """The attribute names of ``mask``, in schema order."""
        names = self._names
        out = []
        while mask:
            low = mask & -mask
            out.append(names[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def cache_size(self) -> int:
        """Number of memoized entropy entries."""
        return len(self._cache) - 1

    def cache_info(self) -> dict:
        """JSON-ready memo summary (the service's ``/stats`` embeds it).

        Long-lived holders of an engine (the service's dataset registry
        keeps one resident per dataset) report this to show how much
        cross-request amortization the shared memo is buying.
        """
        return {
            "backend": self._backend.name,
            "entries": self.cache_size(),
            "n_rows": self._n,
        }

    def cache_snapshot(self) -> dict[tuple[str, ...], float]:
        """A shallow copy of the memo: canonical subset key → ``H`` (nats).

        Used to spill the memo beside a snapshot
        (:func:`repro.relations.persist.save_engine_memo`).
        """
        # One C-level copy first: job threads sharing this engine may add
        # entries meanwhile, and iterating a growing dict raises.
        cache = dict(self._cache)
        return {self.names(mask): value for mask, value in cache.items() if mask}

    def merge_cache(self, entries: dict[tuple[str, ...], float]) -> int:
        """Adopt precomputed entropies (canonical keys, nats).

        Entries already memoized locally are kept (both sides compute the
        same value for the same key, so precedence is irrelevant).
        Keys naming an attribute outside the schema are skipped: no
        lookup could reach them.
        Returns the number of newly added entries.  A process hydrating
        a snapshot adopts its memo sidecar here.
        """
        added = 0
        cache = self._cache
        for key, value in entries.items():
            try:
                mask = self.mask(key)
            except UnknownAttributeError:
                continue
            if mask not in cache:
                cache[mask] = value
                added += 1
        return added

    # ------------------------------------------------------------------
    # Entropies
    # ------------------------------------------------------------------
    def _entropy_nats(self, mask: int) -> float:
        """``H`` of the attribute set ``mask``, in nats (memoized)."""
        cached = self._cache.get(mask)
        if cached is not None:
            return cached
        return self._compute(mask)

    def _compute(self, mask: int) -> float:
        if self._log_n is None:
            raise DistributionError("entropy over an empty relation is undefined")
        key = self.names(mask)
        value = max(self._backend.entropy_nats(self.relation, key), 0.0)
        self._cache[mask] = value
        return value

    def mask_entropies(self, masks: Sequence[int]) -> np.ndarray:
        """``H`` (nats) of each attribute-set mask, as a float64 array.

        Masks missing from the memo are computed first, in order of first
        appearance, through the same backend call :meth:`entropy` makes;
        the result is then one gather from the memo.  A Python int keys
        a schema of any width, so there is no width limit.
        """
        cache = self._cache
        for mask in masks:
            if mask not in cache:
                self._compute(mask)
        return np.fromiter(
            map(cache.__getitem__, masks), dtype=np.float64, count=len(masks)
        )

    def entropy(
        self, attributes: Iterable[str], *, base: float | None = None
    ) -> float:
        """``H(attributes)`` under the relation's empirical distribution.

        The empty set yields ``H(∅) = 0``; unknown attribute names raise
        :class:`~repro.errors.UnknownAttributeError`.
        """
        return _convert(self._entropy_nats(self.mask(attributes)), base)

    def entropies(
        self,
        subsets: Iterable[Iterable[str]],
        *,
        base: float | None = None,
    ) -> list[float]:
        """Batched :meth:`entropy` over several attribute subsets."""
        return [self.entropy(subset, base=base) for subset in subsets]

    def conditional_entropy(
        self,
        targets: Iterable[str],
        given: Iterable[str] = (),
        *,
        base: float | None = None,
    ) -> float:
        """``H(targets | given) = H(targets ∪ given) − H(given)`` (clamped)."""
        given_mask = self.mask(given)
        joint = self._entropy_nats(self.mask(targets) | given_mask)
        if not given_mask:
            return _convert(joint, base)
        return _convert(max(joint - self._entropy_nats(given_mask), 0.0), base)

    def cmi(
        self,
        left: Iterable[str],
        right: Iterable[str],
        given: Iterable[str] = (),
        *,
        base: float | None = None,
    ) -> float:
        """``I(left; right | given)`` via the four-entropy formula (Eq. 4).

        The sides may overlap (Theorem 2.2 applies the measure to
        overlapping prefix/suffix unions); with empty ``given`` this is
        the plain mutual information.  Clamped at zero.
        """
        a = self.mask(left)
        b = self.mask(right)
        c = self.mask(given)
        if not a or not b:
            raise DistributionError("mutual information needs non-empty sides")
        h_c = self._entropy_nats(c)
        h_ac = self._entropy_nats(a | c)
        h_bc = self._entropy_nats(b | c)
        h_abc = self._entropy_nats(a | b | c)
        return _convert(max(h_bc + h_ac - h_abc - h_c, 0.0), base)

    def mutual_information(
        self,
        left: Iterable[str],
        right: Iterable[str],
        *,
        base: float | None = None,
    ) -> float:
        """``I(left; right)`` — :meth:`cmi` with an empty separator."""
        return self.cmi(left, right, (), base=base)
