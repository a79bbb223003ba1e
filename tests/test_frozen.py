"""The value classes built on polyvol.frozen.Frozen behave as frozen
dataclasses did: immutable, compared, hashed and printed by their fields,
and copied and pickled through their constructors."""

import copy
import pickle

import pytest

from polyvol import (
    BipartiteGraph,
    EhrhartFit,
    FamilySpec,
    Graph,
    HStar,
    Polynomial,
    SlicedVolume,
    parse_spec,
)
from polyvol.frozen import Frozen

# (instance, an equal instance made by keywords, a different instance, repr)
CASES = [
    (
        Graph(3, (0b010, 0b101, 0b010)),
        Graph(n=3, adj=(0b010, 0b101, 0b010)),
        Graph(3, (0, 0, 0)),
        "Graph(n=3, adj=(2, 5, 2))",
    ),
    (
        parse_spec("join(null:1,kbip:1,2)"),
        FamilySpec(
            kind="join",
            children=(FamilySpec("null", args=(1,)), FamilySpec("kbip", args=(1, 2))),
        ),
        parse_spec("join(null:1,kbip:2,1)"),
        "FamilySpec(kind='join', args=(), children=(FamilySpec(kind='null', args=(1,), "
        "children=(), edges=()), FamilySpec(kind='kbip', args=(1, 2), children=(), "
        "edges=())), edges=())",
    ),
    (
        FamilySpec("explicit", args=(3,), edges=((0, 1), (1, 2))),
        FamilySpec(kind="explicit", args=(3,), edges=((0, 1), (1, 2))),
        FamilySpec("explicit", args=(3,), edges=((0, 1),)),
        "FamilySpec(kind='explicit', args=(3,), children=(), edges=((0, 1), (1, 2)))",
    ),
    (
        BipartiteGraph(2, (frozenset({0}), frozenset(), frozenset({0, 1}))),
        BipartiteGraph(n=2, neighborhoods=[frozenset({0}), frozenset({0, 1})]),
        BipartiteGraph(2, (frozenset({1}),)),
        "BipartiteGraph(n=2, neighborhoods=(frozenset({0}), frozenset({0, 1})))",
    ),
    (
        EhrhartFit(2, "integral", Polynomial((1, 1.5, 0.5))),
        EhrhartFit(n=2, parity="integral", poly=Polynomial((1, 1.5, 0.5))),
        EhrhartFit(2, "even-only", Polynomial((1, 1.5, 0.5))),
        "EhrhartFit(n=2, parity='integral', poly=Polynomial(1 + 3/2*x + 1/2*x^2))",
    ),
    (
        HStar((1, 4, 1)),
        HStar(coefficients=(1, 4, 1)),
        HStar((1, 0, 0)),
        "HStar(coefficients=(1, 4, 1))",
    ),
    (
        SlicedVolume(2, Polynomial.monomial(2)),
        SlicedVolume(n=2, high=Polynomial((0, 0, 1))),
        SlicedVolume(3, Polynomial.monomial(2)),
        "SlicedVolume(n=2, high=Polynomial(x^2))",
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]


def twin(value):
    """An instance of another class with the same fields and values."""
    other = type("Twin", (Frozen,), {"__slots__": type(value).__slots__})()
    for name in type(value).__slots__:
        object.__setattr__(other, name, getattr(value, name))
    return other


@pytest.mark.parametrize("value, same, different, text", CASES, ids=IDS)
def test_equality_and_hash_go_by_fields_and_class(value, same, different, text):
    assert value == same and not value != same
    assert value != different
    assert hash(value) == hash(same)
    fields = tuple(getattr(value, name) for name in type(value).__slots__)
    assert hash(value) == hash(fields)
    other = twin(value)
    assert value.__eq__(other) is NotImplemented
    assert value != other and other != value
    assert value != fields


@pytest.mark.parametrize("value, same, different, text", CASES, ids=IDS)
def test_repr_names_every_field(value, same, different, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, same, different, text", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(value, same, different, text):
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == same


@pytest.mark.parametrize("value, same, different, text", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(value, same, different, text):
    for clone in (
        copy.copy(value),
        copy.deepcopy(value),
        *(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(2, 6)),
    ):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == text
