"""``StripsOperator`` keeps the frozen-dataclass contract: fields, eq, hash,
repr, ``replace`` and ``FrozenInstanceError``, whatever its ``__init__`` does."""

import copy
import pickle
from dataclasses import FrozenInstanceError, astuple, fields, replace

import pytest

from cpnet import IMPROVING, WORSENING, StripsOperator, to_strips

PRE = frozenset({("A", "a"), ("B", "bbar")})


def _operator() -> StripsOperator:
    return StripsOperator("flip-B-bbar-to-b-if-A-a", PRE, ("B", "b"), ("B", "bbar"))


def test_fields_in_declaration_order():
    assert [f.name for f in fields(StripsOperator)] == ["name", "preconditions", "add", "delete"]
    assert StripsOperator.__match_args__ == ("name", "preconditions", "add", "delete")
    op = _operator()
    assert astuple(op) == ("flip-B-bbar-to-b-if-A-a", PRE, ("B", "b"), ("B", "bbar"))
    assert vars(op) == {"name": "flip-B-bbar-to-b-if-A-a", "preconditions": PRE,
                        "add": ("B", "b"), "delete": ("B", "bbar")}


def test_positional_and_keyword_construction_agree():
    op = _operator()
    by_keyword = StripsOperator(delete=("B", "bbar"), add=("B", "b"), preconditions=PRE,
                                name="flip-B-bbar-to-b-if-A-a")
    assert op == by_keyword and hash(op) == hash(by_keyword)
    assert repr(op) == repr(by_keyword) == (
        "StripsOperator(name='flip-B-bbar-to-b-if-A-a', preconditions="
        f"{PRE!r}, add=('B', 'b'), delete=('B', 'bbar'))"
    )
    assert op != replace(op, add=("B", "c"))
    assert op != ("flip-B-bbar-to-b-if-A-a", PRE, ("B", "b"), ("B", "bbar"))
    with pytest.raises(TypeError):
        StripsOperator("flip-B-bbar-to-b-if-A-a", PRE, ("B", "b"))
    with pytest.raises(TypeError):
        StripsOperator(name="n", preconditions=PRE, add=("B", "b"), delete=("B", "bbar"), x=1)


@pytest.mark.parametrize("name", ["name", "preconditions", "add", "delete", "other"])
def test_fields_cannot_be_assigned_or_deleted(name):
    op = _operator()
    with pytest.raises(FrozenInstanceError):
        setattr(op, name, ("B", "c"))
    with pytest.raises(FrozenInstanceError):
        delattr(op, name)
    assert op == _operator()


def test_replace_copy_and_pickle():
    op = _operator()
    renamed = replace(op, name="flip-B-bbar-to-b")
    assert renamed.name == "flip-B-bbar-to-b" and renamed.preconditions is PRE
    assert renamed.add == op.add and renamed.delete == op.delete
    assert op.name == "flip-B-bbar-to-b-if-A-a"
    with pytest.raises(TypeError):
        replace(op, other=1)
    for twin in (copy.copy(op), copy.deepcopy(op), pickle.loads(pickle.dumps(op))):
        assert twin == op and hash(twin) == hash(op) and type(twin) is StripsOperator


@pytest.mark.parametrize("direction", [IMPROVING, WORSENING])
def test_exported_operators_equal_their_keyword_rebuild(chain3, direction):
    operators = to_strips(chain3, direction)
    rebuilt = [StripsOperator(**{f.name: getattr(op, f.name) for f in fields(op)})
               for op in operators]
    assert rebuilt == operators
    assert list(map(hash, rebuilt)) == list(map(hash, operators))
    assert list(map(repr, rebuilt)) == list(map(repr, operators))
    assert len(set(operators)) == len(operators)
