"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.jointrees.build import jointree_from_schema
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema


@pytest.fixture()
def rng():
    """Deterministic random generator (fresh per test)."""
    return np.random.default_rng(12345)


@pytest.fixture()
def abc_schema():
    """Integer-domain schema over A, B, C with sizes 4, 4, 3."""
    return RelationSchema.integer_domains({"A": 4, "B": 4, "C": 3})


@pytest.fixture()
def small_relation(abc_schema):
    """A hand-built 6-tuple relation over A, B, C."""
    rows = [
        (0, 0, 0),
        (0, 1, 0),
        (1, 0, 0),
        (1, 1, 0),
        (2, 2, 1),
        (3, 3, 2),
    ]
    return Relation(abc_schema, rows)


@pytest.fixture()
def mvd_tree():
    """The join tree of the MVD C ↠ A|B: bags {A,C} and {B,C}."""
    return jointree_from_schema([{"A", "C"}, {"B", "C"}])


@pytest.fixture()
def chain_tree():
    """A three-bag chain over A, B, C, D."""
    return jointree_from_schema([{"A", "B"}, {"B", "C"}, {"C", "D"}])


@pytest.fixture()
def digested_rows(monkeypatch):
    """Row counts hashed by each call of the relation's row-digest helper.

    Counting starts when the fixture is set up, so request it after the
    fixtures whose own hashing should not count.
    """
    import repro.relations.relation as relation_module

    calls: list[int] = []
    original = relation_module._digest_rows

    def counting(rows):
        rows = list(rows)
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(relation_module, "_digest_rows", counting)
    return calls
