"""Property-style tests: the vectorized engine matches the naive path.

Every quantity served by the columnar backend and the memoizing
:class:`~repro.info.engine.EntropyEngine` is re-derived here with an
independent row-at-a-time ``Counter`` implementation and compared
bit-for-bit (within 1e-12) on random relations — including
single-attribute subsets, the full attribute set Ω, empty-separator CMIs,
and deliberately numpy-hostile value types (mixed types, ``True``/``1``
collisions) that exercise the dict-factorization fallback.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from repro.core.jmeasure import j_measure
from repro.core.random_relations import random_relation
from repro.discovery.miner import mine_jointree
from repro.errors import DistributionError
from repro.info.divergence import conditional_mutual_information
from repro.info.engine import EntropyEngine
from repro.info.entropy import conditional_entropy, joint_entropy
from repro.jointrees.build import jointree_from_schema
from repro.relations.join import _acyclic_join_size_python, acyclic_join_size
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema

TOL = 1e-12


# ----------------------------------------------------------------------
# Naive reference implementations (independent of the columnar backend)
# ----------------------------------------------------------------------
def naive_counts(relation, attrs):
    ordered = relation.schema.canonical_order(attrs)
    idx = relation.schema.indices(ordered)
    return Counter(tuple(row[i] for i in idx) for row in relation.rows())


def naive_entropy(relation, attrs):
    counts = naive_counts(relation, attrs)
    n = sum(counts.values())
    return math.log(n) - sum(c * math.log(c) for c in counts.values()) / n


def naive_cmi(relation, left, right, given):
    left, right, given = set(left), set(right), set(given)
    h_c = naive_entropy(relation, given) if given else 0.0
    return max(
        naive_entropy(relation, left | given)
        + naive_entropy(relation, right | given)
        - naive_entropy(relation, left | right | given)
        - h_c,
        0.0,
    )


def all_nonempty_subsets(names):
    for size in range(1, len(names) + 1):
        yield from itertools.combinations(names, size)


# ----------------------------------------------------------------------
# Random integer relations: engine vs naive, every subset
# ----------------------------------------------------------------------
@pytest.fixture(
    params=[
        ({"A": 3, "B": 4, "C": 2}, 15),
        ({"A": 6, "B": 2, "C": 3, "D": 4}, 60),
        ({"A": 2, "B": 2}, 4),
        ({"A": 9}, 7),
    ],
    ids=["abc", "abcd", "tiny", "single"],
)
def random_rel(request):
    sizes, n = request.param
    return random_relation(sizes, n, np.random.default_rng(hash(n) % 2**31))


class TestEntropyMatchesNaive:
    def test_every_subset(self, random_rel):
        engine = EntropyEngine.for_relation(random_rel)
        for subset in all_nonempty_subsets(random_rel.attributes):
            assert engine.entropy(subset) == pytest.approx(
                naive_entropy(random_rel, subset), abs=TOL
            )

    def test_full_omega_is_log_n(self, random_rel):
        engine = EntropyEngine.for_relation(random_rel)
        assert engine.entropy(random_rel.attributes) == pytest.approx(
            math.log(len(random_rel)), abs=TOL
        )

    def test_single_attribute(self, random_rel):
        engine = EntropyEngine.for_relation(random_rel)
        name = random_rel.attributes[0]
        assert engine.entropy([name]) == pytest.approx(
            naive_entropy(random_rel, [name]), abs=TOL
        )

    def test_empty_subset_is_zero(self, random_rel):
        engine = EntropyEngine.for_relation(random_rel)
        assert engine.entropy([]) == 0.0

    def test_batched_entropies(self, random_rel):
        engine = EntropyEngine.for_relation(random_rel)
        subsets = list(all_nonempty_subsets(random_rel.attributes))
        batched = engine.entropies(subsets)
        assert batched == [engine.entropy(s) for s in subsets]

    def test_memoization_and_key_canonicalization(self, random_rel):
        engine = EntropyEngine(random_rel)
        names = random_rel.attributes
        before = engine.cache_size()
        h1 = engine.entropy(names)
        h2 = engine.entropy(tuple(reversed(names)))  # same set, other spelling
        assert h1 == h2
        assert engine.cache_size() == before + 1

    def test_joint_entropy_routes_through_shared_engine(self, random_rel):
        h = joint_entropy(random_rel, random_rel.attributes)
        engine = EntropyEngine.for_relation(random_rel)
        assert engine.cache_size() >= 1
        assert h == pytest.approx(naive_entropy(random_rel, random_rel.attributes), abs=TOL)


class TestConditionalAndCMI:
    def test_conditional_entropy(self, random_rel):
        engine = EntropyEngine.for_relation(random_rel)
        names = random_rel.attributes
        if len(names) < 2:
            pytest.skip("needs two attributes")
        target, given = [names[0]], list(names[1:])
        expected = naive_entropy(random_rel, set(target) | set(given)) - naive_entropy(
            random_rel, given
        )
        assert engine.conditional_entropy(target, given) == pytest.approx(
            max(expected, 0.0), abs=TOL
        )
        assert conditional_entropy(random_rel, target, given) == pytest.approx(
            max(expected, 0.0), abs=TOL
        )

    def test_conditional_entropy_empty_given(self, random_rel):
        engine = EntropyEngine.for_relation(random_rel)
        name = random_rel.attributes[0]
        assert engine.conditional_entropy([name], []) == pytest.approx(
            naive_entropy(random_rel, [name]), abs=TOL
        )

    def test_cmi_empty_separator(self, random_rel):
        names = random_rel.attributes
        if len(names) < 2:
            pytest.skip("needs two attributes")
        left, right = [names[0]], [names[1]]
        assert conditional_mutual_information(
            random_rel, left, right, ()
        ) == pytest.approx(naive_cmi(random_rel, left, right, ()), abs=TOL)

    def test_cmi_all_separators(self, random_rel):
        names = random_rel.attributes
        if len(names) < 3:
            pytest.skip("needs three attributes")
        left, right = [names[0]], [names[1]]
        for sep_size in range(1, len(names) - 1):
            for sep in itertools.combinations(names[2:], sep_size):
                assert conditional_mutual_information(
                    random_rel, left, right, sep
                ) == pytest.approx(
                    naive_cmi(random_rel, left, right, sep), abs=TOL
                )

    def test_cmi_rejects_empty_sides(self, random_rel):
        engine = EntropyEngine.for_relation(random_rel)
        with pytest.raises(DistributionError):
            engine.cmi([], [random_rel.attributes[0]])

    def test_empty_relation_raises(self):
        schema = RelationSchema.from_names(["A", "B"])
        engine = EntropyEngine(Relation.empty(schema))
        with pytest.raises(DistributionError):
            engine.entropy(["A"])


# ----------------------------------------------------------------------
# Columnar relation API vs the naive row-at-a-time path
# ----------------------------------------------------------------------
class TestColumnarMatchesRowPath:
    def test_projection_counts_matches_naive(self, random_rel):
        for subset in all_nonempty_subsets(random_rel.attributes):
            assert random_rel.projection_counts(
                subset
            ) == random_rel.projection_counts_naive(subset)

    def test_projection_count_values(self, random_rel):
        for subset in all_nonempty_subsets(random_rel.attributes):
            expected = sorted(random_rel.projection_counts_naive(subset).values())
            got = sorted(random_rel.projection_count_values(subset).tolist())
            assert got == expected

    def test_projection_size(self, random_rel):
        for subset in all_nonempty_subsets(random_rel.attributes):
            assert random_rel.projection_size(subset) == len(
                random_rel.project(subset)
            )

    def test_project_matches_set_semantics(self, random_rel):
        for subset in all_nonempty_subsets(random_rel.attributes):
            ordered = random_rel.schema.canonical_order(subset)
            idx = random_rel.schema.indices(ordered)
            expected = {tuple(row[i] for i in idx) for row in random_rel.rows()}
            assert random_rel.project(subset).rows() == frozenset(expected)

    def test_select_eq_matches_scan(self, random_rel):
        name = random_rel.attributes[0]
        pos = random_rel.schema.index(name)
        for value in sorted(random_rel.active_domain(name), key=repr):
            expected = frozenset(
                row for row in random_rel.rows() if row[pos] == value
            )
            assert random_rel.select_eq(name, value).rows() == expected
        assert random_rel.select_eq(name, object()).is_empty()

    def test_select_attrs_fast_path(self, random_rel):
        name = random_rel.attributes[-1]
        pos = random_rel.schema.index(name)
        values = sorted(random_rel.active_domain(name), key=repr)
        pivot = values[len(values) // 2]
        full = random_rel.select(lambda t: t[name] == pivot)
        fast = random_rel.select(lambda t: t[name] == pivot, attrs=[name])
        assert full == fast
        assert full.rows() == frozenset(
            row for row in random_rel.rows() if row[pos] == pivot
        )


# ----------------------------------------------------------------------
# Numpy-hostile values: the dict-factorization fallback
# ----------------------------------------------------------------------
class TestHeterogeneousValues:
    @pytest.fixture()
    def messy(self):
        schema = RelationSchema.from_names(["A", "B"])
        rows = [
            (1, "x"),
            ("1", "x"),      # str "1" must stay distinct from int 1
            (True, "y"),     # True collides with 1 (Python semantics)
            (2.5, (0, 1)),   # float and tuple values
            (None, "x"),
            (1, "y"),
        ]
        return Relation(schema, rows, validate=False)

    def test_counts_match_naive(self, messy):
        for subset in (["A"], ["B"], ["A", "B"]):
            assert messy.projection_counts(subset) == messy.projection_counts_naive(
                subset
            )

    def test_entropy_matches_naive(self, messy):
        engine = EntropyEngine.for_relation(messy)
        for subset in (["A"], ["B"], ["A", "B"]):
            assert engine.entropy(subset) == pytest.approx(
                naive_entropy(messy, subset), abs=TOL
            )

    def test_true_one_collapse(self, messy):
        # (1, "y") and (True, "y") are the same tuple in Python containers.
        assert len(messy) == 5
        assert messy.projection_counts(["A"])[(1,)] == 2

    def test_select_eq_heterogeneous(self, messy):
        assert len(messy.select_eq("A", 1)) == 2  # matches both 1 and True rows
        assert len(messy.select_eq("A", "1")) == 1
        assert messy.select_eq("A", "missing").is_empty()

    def test_float_nan_column_uses_exact_fallback(self):
        schema = RelationSchema.from_names(["A"])
        nan = float("nan")
        r = Relation(schema, [(nan,), (1.0,), (2.0,)], validate=False)
        assert r.projection_counts(["A"]) == r.projection_counts_naive(["A"])


# ----------------------------------------------------------------------
# End-to-end: discovery and join-size results are path-independent
# ----------------------------------------------------------------------
class TestEndToEndEquivalence:
    def test_mine_jointree_matches_naive_j(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            relation = random_relation({"A": 5, "B": 5, "C": 3}, 40, rng)
            mined = mine_jointree(relation, threshold=0.2)
            naive_j = (
                sum(
                    naive_entropy(relation, bag)
                    for bag in mined.jointree.bags()
                )
                - sum(
                    naive_entropy(relation, sep)
                    for sep in mined.jointree.separators()
                    if sep
                )
                - math.log(len(relation))
            )
            assert mined.j_value == pytest.approx(max(naive_j, 0.0), abs=TOL)
            assert mined.j_value == pytest.approx(
                j_measure(relation, mined.jointree), abs=TOL
            )

    def test_join_size_paths_agree(self):
        rng = np.random.default_rng(17)
        tree = jointree_from_schema([{"A", "B"}, {"B", "C"}, {"C", "D"}])
        for _ in range(5):
            relation = random_relation(
                {"A": 4, "B": 3, "C": 3, "D": 4}, 30, rng
            )
            order = tree.topological_order()
            parents = tree.parents()
            python = _acyclic_join_size_python(relation, tree, order, parents)
            assert acyclic_join_size(relation, tree) == python


# ----------------------------------------------------------------------
# Mixed-radix overflow recompression (forced via a tiny _MAX_PACK)
# ----------------------------------------------------------------------
class TestPackedKeyRecompression:
    def test_counts_survive_forced_recompression(self, monkeypatch):
        from repro.relations import columns

        monkeypatch.setattr(columns, "_MAX_PACK", 10_000)
        rng = np.random.default_rng(23)
        sizes = {name: 30 for name in "ABCDEF"}
        relation = random_relation(sizes, 200, rng)
        # Fresh relation in this process sees the patched constant.
        for subset in (tuple("ABCDEF"), ("A", "C", "E"), ("B", "D")):
            assert relation.projection_counts(
                subset
            ) == relation.projection_counts_naive(subset)
        engine = EntropyEngine(relation)
        assert engine.entropy(tuple("ABCDEF")) == pytest.approx(
            math.log(len(relation)), abs=TOL
        )
