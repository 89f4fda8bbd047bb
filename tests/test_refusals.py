"""Each constructor locates its refusal: called directly with the arguments
a loader reads from a document with one fault, it raises with ``where`` set
to the keys of the JSON pointer that the loader reports."""

import pytest

from acygroups import serialize as ser
from acygroups.errors import AcygroupsError

import test_serialize
from test_serialize import _PAIR, _mutated


def _table(test):
    """The parametrize mark of a pointer test: its rows and ids."""
    return next(mark for mark in test.pytestmark if mark.name == "parametrize")


POINTERS = _table(test_serialize.test_error_pointers_resolve_to_the_value_at_fault)
NAMES = _table(test_serialize.test_pattern_edge_names_are_checked_with_a_pointer)
STRUCTURE = _table(test_serialize.test_pattern_structure_is_checked_with_a_pointer)


def _faulty():
    """(id, document, pointer) of every row of the three pointer tables."""
    for (make, path, value, pointer), name in zip(POINTERS.args[1], POINTERS.kwargs["ids"]):
        yield name, _mutated(make(), path, value), pointer
    pattern = {"format": "pattern", "sites": ["s", "t"], "edges": _PAIR}
    for key, value, message in NAMES.args[1]:
        yield message, _mutated(pattern, ("edges", 1, key), value), f"/edges/1/{key}"
    for path, value, pointer, message in STRUCTURE.args[1]:
        yield message, _mutated(pattern, path, value), pointer


class _Call(Exception):
    """The constructor and arguments a loader hands serialize._built."""


def _constructor_call(monkeypatch, doc):
    """(constructor, arguments) of doc's object, or None when the loader
    refuses doc before it builds the object; an inner document (the
    pattern of an igraph or igroupoid) is built as before."""
    built = ser._built

    def capture(make, pointer, *args):
        if pointer:
            return built(make, pointer, *args)
        raise _Call(make, args)

    with monkeypatch.context() as patch:
        patch.setattr(ser, "_built", capture)
        try:
            ser.load_document(doc)
        except _Call as call:
            return call.args
        except ser.SchemaError:
            return None
    raise AssertionError("the document loaded")


def _keys(doc, pointer):
    """The keys that an RFC 6901 pointer into doc names: array indices as
    integers, member names as strings."""
    keys, node = [], doc
    for token in pointer.split("/")[1:]:
        token = token.replace("~1", "/").replace("~0", "~")
        key = int(token) if isinstance(node, list) else token
        keys.append(key)
        node = node[key]
    return tuple(keys)


def test_each_constructor_refusal_names_the_pointer_keys(monkeypatch):
    refused = []
    for name, doc, pointer in _faulty():
        call = _constructor_call(monkeypatch, doc)
        if call is None:
            continue  # a type or name the loader checks itself
        make, args = call
        with pytest.raises(AcygroupsError) as err:
            make(*args)
        assert err.value.where == _keys(doc, pointer), name
        refused.append(name)
    assert refused == [
        "not-involutive", "identity", "coinciding", "two-edges-at-a-vertex", "neutral-sort",
        "generator-sort", "coinciding-generators", "igraph-sorts", "igraph-converse",
        "igraph-site", "unknown site 'zz'", "unknown site 'zz'", "unknown edge 'zz'",
        "unknown edge 's'", "duplicate edge ids", "edge reversal must be fixpoint free",
        "edge reversal must be involutive", "edge reversal must swap source and target",
        "incidence maps must be surjective onto the sites",
        "incidence maps must be surjective onto the sites"]
