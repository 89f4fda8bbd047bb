import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups import cli
from acygroups import serialize as ser
from acygroups.covering import Hypergraph, hypergraph_cover, intersection_graph
from acygroups.egraph import disjoint_union, hypercube
from acygroups.errors import AcygroupsError, SchemaError
from acygroups.groupoid import ConstraintPattern, groupoid_from_group, hat_translation, pattern_igraph
from acygroups.groups import cayley_graph, sym

from conftest import biggs_group, hypercube_group, named_hypergraph
from test_groupoid import parallel_pairs_pattern


def test_egraph_roundtrip():
    g = hypercube(["a", "b"])
    doc = ser.egraph_to_json(g)
    back = ser.egraph_from_json(doc)
    assert back == g
    assert ser.egraph_to_json(back) == doc


def test_egraph_schema_error_location():
    doc = {
        "format": "egraph",
        "vertices": ["0", "1"],
        "colors": ["a"],
        "edges": [["a", "0", "1"], ["a", "0", "7"]],
    }
    with pytest.raises(SchemaError) as err:
        ser.egraph_from_json(doc)
    assert "/edges/1/2" in str(err.value)


def test_egroup_roundtrip_including_parents():
    g = biggs_group(["a", "b"], 1)
    doc = ser.egroup_to_json(g)
    back = ser.egroup_from_json(doc)
    assert back.colors == g.colors
    assert back.gen_action == g.gen_action
    assert back.parents == g.parents
    assert ser.egroup_to_json(back) == doc


def test_a_loaded_group_walks_its_word_forest_once():
    # the loader checks reach without parent links, so loading the
    # order-55,440 stage group and asking it for a word walks one forest
    import sys

    from acygroups.synthesis import SynthesisConfig, construct_n_acyclic
    from acygroups.traverse import bfs_parents

    group, _ = construct_n_acyclic(hypercube_group(["a", "b"]), SynthesisConfig(n_acyclic=12))
    doc = ser.egroup_to_json(group)
    walks = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is bfs_parents.__code__:
            walks.append(frame.f_locals["n"])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        back = ser.egroup_from_json(doc)
        word = back.word_of(55439)
    finally:
        sys.setprofile(previous)
    assert back.order == 55440 and back.evaluate(word) == 55439
    assert walks == [55440]


def test_egroup_digest_stable_over_cayley_rebuild():
    g = hypercube_group(["a", "b"])
    doc = ser.egraph_to_json(cayley_graph(g))
    d1 = ser.digest(doc)
    g2 = ser.egroup_from_json(ser.egroup_to_json(g))
    d2 = ser.digest(ser.egraph_to_json(cayley_graph(g2)))
    assert d1 == d2


def test_pattern_and_igraph_roundtrip():
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    doc = ser.pattern_to_json(pattern)
    back = ser.pattern_from_json(doc)
    assert ser.pattern_to_json(back) == doc
    ig = pattern_igraph(pattern)
    doc2 = ser.igraph_to_json(ig)
    back2 = ser.igraph_from_json(doc2)
    assert ser.igraph_to_json(back2) == doc2


def test_igroupoid_roundtrip_with_composition_table():
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    hat = hat_translation(pattern)
    group = sym(disjoint_union([hat.igraph, hypercube(hat.igraph.colors)]), attach_hypercube=False)
    gpd = groupoid_from_group(group, hat)
    doc = ser.igroupoid_to_json(gpd)
    assert "composition" in doc
    for a, b, c in doc["composition"]:
        assert gpd.compose(a, b) == c
    back = ser.igroupoid_from_json(doc)
    assert back.sorts == gpd.sorts
    assert back.rmul == gpd.rmul
    assert ser.igroupoid_to_json(back) == doc


def test_hypergraph_and_covering_serialisation():
    tri = Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]])
    doc = ser.hypergraph_to_json(tri)
    back = ser.hypergraph_from_json(doc)
    assert ser.hypergraph_to_json(back) == doc
    ig = intersection_graph(tri)
    group = sym(disjoint_union([ig, hypercube(ig.colors)]), attach_hypercube=False)
    cov = hypergraph_cover(tri, group)
    cd = ser.covering_to_json(cov)
    assert cd["kind"] == "hypergraph"
    assert ser.digest(cd) == ser.digest(ser.covering_to_json(hypergraph_cover(tri, group)))


def test_unknown_format_rejected():
    with pytest.raises(SchemaError):
        ser.load_document({"format": "nonsense"})


def test_dot_exports_render():
    g = hypercube(["a", "b"])
    text = ser.object_to_dot(g)
    assert text.startswith("graph {") and text.count("--") == 4
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    text2 = ser.object_to_dot(pattern_igraph(pattern))
    assert "digraph" in text2
    tri = Hypergraph([0, 1, 2], [[0, 1, 2]])
    assert "graph {" in ser.object_to_dot(tri)


def test_cycle_witness_roundtrip():
    from acygroups.acyclicity import find_coset_cycle, validate_coset_cycle

    s3 = biggs_group(["a", "b"], 1)
    cyc = find_coset_cycle(s3, 6)
    doc = ser.cycle_to_json(s3, cyc)
    back = ser.cycle_from_json(doc, s3)
    assert validate_coset_cycle(s3, back)


def test_manifest_shape_and_determinism():
    doc1 = ser.manifest(["check"], {"N": 4}, {"in.json": "abc"}, {"out.json": "def"})
    doc2 = ser.manifest(["check"], {"N": 4}, {"in.json": "abc"}, {"out.json": "def"})
    assert ser.canonical_bytes(doc1) == ser.canonical_bytes(doc2)
    assert "timings" not in doc1
    doc3 = ser.manifest(["check"], {}, {}, {}, timings={"t": 1.0})
    assert "timings" in doc3


def test_egroup_from_json_rejects_nongenerating_tables():
    doc = {
        "format": "egroup",
        "colors": ["a"],
        "order": 4,
        "action": {"a": [1, 0, 3, 2]},  # two orbits: not generated from 0
    }
    with pytest.raises(SchemaError):
        ser.egroup_from_json(doc)


@pytest.mark.parametrize("action, error, message", [
    ({"a": [1, 2]}, SchemaError, r"^action row is not a permutation \(at /action/a\)$"),
    ({"a": [1, -1]}, SchemaError, r"^action row is not a permutation \(at /action/a\)$"),
    ({"a": [1, 1]}, SchemaError, r"^action row is not a permutation \(at /action/a\)$"),
    ({"a": [0]}, SchemaError, r"^generator equals the identity \(at /action/a\)$"),
    ({"a": [1, 2, 0]}, SchemaError, r"^generator 'a' not involutive \(at /action/a\)$"),
    ({"a": [1, 0], "b": [1, 0]}, SchemaError, r"^two generators coincide \(at /action/b\)$"),
    # a later row that is the identity is refused before an earlier
    # row's failure to be an involution, and that before a coincidence
    ({"a": [1, 2, 0], "b": [0, 1, 2]}, SchemaError,
     r"^generator equals the identity \(at /action/b\)$"),
    ({"a": [1, 2, 0], "b": [1, 2, 0]}, SchemaError,
     r"^generator 'a' not involutive \(at /action/a\)$"),
], ids=["out-of-range", "negative", "repeated", "identity", "not-involutive", "coinciding",
        "identity-first", "not-involutive-first"])
def test_egroup_from_json_pins_each_degenerate_table(action, error, message):
    doc = {"format": "egroup", "colors": sorted(action), "order": len(action["a"]),
           "action": action}
    with pytest.raises(error, match=message):
        ser.egroup_from_json(doc)


def _two_site_groupoid_doc():
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    hat = hat_translation(pattern)
    group = sym(disjoint_union([hat.igraph, hypercube(hat.igraph.colors)]), attach_hypercube=False)
    return ser.igroupoid_to_json(groupoid_from_group(group, hat))


_DELETE = object()


def _mutated(doc, path, value):
    import copy

    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


@pytest.mark.parametrize("path, value, pointer", [
    (("rmul", "e", 0), 99, "/rmul/e/0"),
    (("rmul", "e", 0), -2, "/rmul/e/0"),
    (("rmul", "f", 1), "x", "/rmul/f/1"),
    (("rmul", "f"), 7, "/rmul/f"),
    (("rmul", "e"), _DELETE, "/rmul/e"),
    (("neutrals", 0), 99, "/neutrals/0"),
    (("neutrals", 1), -1, "/neutrals/1"),
    (("neutrals",), [0], "/neutrals"),
    (("generators", "e"), _DELETE, "/generators/e"),
    (("generators", "f"), 99, "/generators/f"),
    (("sorts", 0), 5, "/sorts/0"),
    (("sorts", 0), ["s", "nowhere"], "/sorts/0"),
    (("sorts",), [], "/sorts"),
])
def test_igroupoid_loader_reports_bad_entries_with_a_pointer(path, value, pointer):
    doc = _mutated(_two_site_groupoid_doc(), path, value)
    with pytest.raises(SchemaError) as err:
        ser.load_document(doc)
    assert err.value.pointer == pointer


def test_egroup_action_row_with_a_non_integer_is_a_schema_error():
    doc = ser.egroup_to_json(hypercube_group(["a", "b"]))
    doc["action"]["b"][2] = "x"
    with pytest.raises(SchemaError) as err:
        ser.load_document(doc)
    assert err.value.pointer == "/action/b"


def test_egroup_of_order_zero_is_a_schema_error():
    doc = {"format": "egroup", "colors": ["a"], "order": 0, "action": {"a": []}}
    with pytest.raises(SchemaError) as err:
        ser.load_document(doc)
    assert err.value.pointer == "/order"


def test_cycle_from_json_range_checks_elements_and_sites():
    s3 = biggs_group(["a", "b"], 1)
    entries = [{"alpha": ["a"], "g": 0, "site": 0}, {"alpha": ["b"], "g": 6, "site": 1}]
    with pytest.raises(SchemaError) as err:
        ser.cycle_from_json({"entries": entries}, s3)
    assert err.value.pointer == "/entries/1/g"
    entries[1]["g"] = 1
    assert ser.cycle_from_json({"entries": entries}, s3) == [
        (frozenset({0}), 0), (frozenset({1}), 1)]
    with pytest.raises(SchemaError) as err:
        ser.cycle_from_json({"entries": entries}, s3, n_sites=1)
    assert err.value.pointer == "/entries/1/site"
    del entries[0]["site"]
    with pytest.raises(SchemaError) as err:
        ser.cycle_from_json({"entries": entries}, s3, n_sites=2)
    assert err.value.pointer == "/entries/0/site"


def _s3_witness_doc():
    s3 = biggs_group(["a", "b"], 1)
    entries = [{"alpha": ["a"], "g": 0, "site": 0}, {"alpha": ["a", "b"], "g": 1, "site": 1}]
    return {"format": "coset_cycle", "entries": entries}, s3


def _load(doc):
    """The object of doc; a witness is read against S3, with two sites."""
    if doc["format"] == "coset_cycle":
        return ser.cycle_from_json(doc, _s3_witness_doc()[1], n_sites=2)
    return ser.load_document(doc)


# every integer a loader reads, set to JSON true
@pytest.mark.parametrize("kind,path,pointer", [
    ("egroup", ("order",), "/order"),
    ("egroup", ("action", "a", 0), "/action/a"),
    ("igroupoid", ("order",), "/order"),
    ("igroupoid", ("neutrals", 0), "/neutrals/0"),
    ("igroupoid", ("rmul", "e", 0), "/rmul/e/0"),
    ("igroupoid", ("generators", "f"), "/generators/f"),
    ("witness", ("entries", 1, "g"), "/entries/1/g"),
    ("witness", ("entries", 1, "site"), "/entries/1/site"),
])
def test_json_booleans_are_not_integers(kind, path, pointer):
    doc = {
        "egroup": lambda: {"format": "egroup", "colors": ["a"], "order": 2,
                           "action": {"a": [1, 0]}},
        "igroupoid": _two_site_groupoid_doc,
        "witness": lambda: _s3_witness_doc()[0],
    }[kind]()
    _load(doc)
    with pytest.raises(SchemaError) as err:
        _load(_mutated(doc, path, True))
    assert err.value.pointer == pointer


@pytest.mark.parametrize("key,value,message", [
    ("src", "zz", "unknown site 'zz'"),
    ("tgt", "zz", "unknown site 'zz'"),
    ("inv", "zz", "unknown edge 'zz'"),
    ("inv", "s", "unknown edge 's'"),
])
def test_pattern_edge_names_are_checked_with_a_pointer(key, value, message):
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    doc = _mutated(ser.pattern_to_json(pattern), ("edges", 1, key), value)
    with pytest.raises(SchemaError, match=f"^{message} ") as err:
        ser.load_document(doc)
    assert err.value.pointer == f"/edges/1/{key}"
    inner = _mutated(ser.igraph_to_json(pattern_igraph(pattern)), ("pattern", "edges", 1, key),
                     value)
    with pytest.raises(SchemaError) as err:
        ser.load_document(inner)
    assert err.value.pointer == f"/pattern/edges/1/{key}"


_PAIR = [{"id": "e", "src": "s", "tgt": "t", "inv": "f"},
         {"id": "f", "src": "t", "tgt": "s", "inv": "e"}]


# a repeated name in each kind of document that lists names
@pytest.mark.parametrize("doc,pointer", [
    ({"format": "egraph", "vertices": ["u", "v", "u"], "colors": ["a"], "edges": []},
     "/vertices/2"),
    ({"format": "egraph", "vertices": ["u"], "colors": ["a", "a"], "edges": []}, "/colors/1"),
    ({"format": "egroup", "colors": ["a", "a"], "order": 2, "action": {"a": [1, 0]}},
     "/colors/1"),
    ({"format": "hypergraph", "vertices": ["0", "1", "0"], "hyperedges": [["0", "1"]]},
     "/vertices/2"),
    ({"format": "graph", "vertices": ["0", "1", "1"], "edges": [["0", "1"]]}, "/vertices/2"),
    ({"format": "pattern", "sites": ["s", "t", "s"], "edges": _PAIR}, "/sites/2"),
    # before, the edges bound to the last "u" and the document loaded
    ({"format": "igraph", "pattern": {"format": "pattern", "sites": ["s", "t"], "edges": _PAIR},
      "vertices": ["u", "v", "u"], "site_of": ["s", "t", "s"],
      "edges": {"e": [["u", "v"]], "f": [["v", "u"]]}}, "/vertices/2"),
])
def test_repeated_names_are_refused_with_a_pointer(doc, pointer):
    with pytest.raises(SchemaError, match="^duplicate name ") as err:
        ser.load_document(doc)
    assert err.value.pointer == pointer


def test_igraph_unknown_site_is_refused_at_its_index():
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    doc = _mutated(ser.igraph_to_json(pattern_igraph(pattern)), ("site_of", 1), "zz")
    with pytest.raises(SchemaError, match="^unknown site 'zz' ") as err:
        ser.load_document(doc)
    assert err.value.pointer == "/site_of/1"


# the structural checks of a pattern, each at the edge or site at fault
@pytest.mark.parametrize("path,value,pointer,message", [
    (("edges", 1, "id"), "e", "/edges/1/id", "duplicate edge ids"),
    (("edges", 0, "inv"), "e", "/edges/0/inv", "edge reversal must be fixpoint free"),
    (("edges", 1, "inv"), "f", "/edges/0/inv", "edge reversal must be involutive"),
    (("edges", 1, "src"), "s", "/edges/0/inv", "edge reversal must swap source and target"),
    (("sites",), ["s", "t", "u"], "/sites/2", "incidence maps must be surjective onto the sites"),
    (("edges",), [], "/sites/0", "incidence maps must be surjective onto the sites"),
])
def test_pattern_structure_is_checked_with_a_pointer(path, value, pointer, message):
    doc = _mutated({"format": "pattern", "sites": ["s", "t"], "edges": _PAIR}, path, value)
    with pytest.raises(SchemaError, match=f"^{message} ") as err:
        ser.load_document(doc)
    assert err.value.pointer == pointer
    igraph = {"format": "igraph", "pattern": doc, "vertices": [], "site_of": [], "edges": {}}
    with pytest.raises(SchemaError) as err:
        ser.load_document(igraph)
    assert err.value.pointer == f"/pattern{pointer}"


@pytest.mark.parametrize("value", ["c", 5, None, ["a"]])
def test_witness_colours_are_checked_with_a_pointer(value):
    doc, s3 = _s3_witness_doc()
    doc = _mutated(doc, ("entries", 1, "alpha", 1), value)
    with pytest.raises(SchemaError) as err:
        ser.cycle_from_json(doc, s3)
    assert err.value.pointer == "/entries/1/alpha/1"


def _paths(doc, prefix=()):
    """Every key path into a JSON document but the format tag."""
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        if prefix + (key,) != ("format",):
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


def _retyped(before, after):
    """Whether a value at a path of before (and of after) other than a
    format tag has changed its JSON type; a bool is a type of its own."""
    for path in _paths(before):
        if "format" in path:
            continue
        old, new = before, after
        for key in path:
            if type(old) is not type(new) or key not in (
                    new if isinstance(new, dict) else range(len(new))):
                break
            old, new = old[key], new[key]
        else:
            if type(old) is not type(new):
                return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_loaders_reject_mutated_documents_with_schema_errors_only(data):
    import copy

    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    original = data.draw(st.sampled_from([
        ser.egraph_to_json(hypercube(["a", "b"])),
        ser.egroup_to_json(biggs_group(["a", "b"], 1)),
        ser.pattern_to_json(pattern),
        ser.igraph_to_json(pattern_igraph(pattern)),
        ser.hypergraph_to_json(named_hypergraph(["0", "1", "2"], [["0", "1"], ["1", "2"]])),
        ser.graph_to_json([("0", "1"), ("1", "2")]),
        _s3_witness_doc()[0],
    ]))
    doc = copy.deepcopy(original)
    values = st.sampled_from([5, -1, 1.5, None, True, "x", "0", [], [5], ["x"], [[1]], {}, {"a": 1}])
    every_mutation_retypes = True
    for _ in range(data.draw(st.integers(1, 2))):
        # no loader reads the format tags below the top level
        path = data.draw(st.sampled_from([p for p in _paths(doc) if "format" not in p]))
        before = copy.deepcopy(doc)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(values)
        every_mutation_retypes = every_mutation_retypes and _retyped(before, doc)
    if not _retyped(original, doc):
        try:
            _load(doc)
        except AcygroupsError:
            pass  # a value of the same type may fail a precondition of the object
        return
    # a value of another JSON type is a schema error, unless a mutation of
    # the same type failed a precondition first
    with pytest.raises(SchemaError if every_mutation_retypes else AcygroupsError):
        _load(doc)


def _resolve(doc, pointer):
    """The value an RFC 6901 pointer names: each token, ~1 read as / and
    then ~0 as ~, is a key of an object or the decimal index of an array."""
    node = doc
    for token in pointer.split("/")[1:]:
        token = token.replace("~1", "/").replace("~0", "~")
        node = node[int(token)] if isinstance(node, list) else node[token]
    return node


def _named_pair_pattern():
    # edge names that a pointer must escape
    return ConstraintPattern(["s", "t"], [("e/1", "s", "t", "f~2"), ("f~2", "t", "s", "e/1")])


def _groupoid_doc(pattern):
    hat = hat_translation(pattern)
    group = sym(disjoint_union([hat.igraph, hypercube(hat.igraph.colors)]), attach_hypercube=False)
    return ser.igroupoid_to_json(groupoid_from_group(group, hat))


def _named_pair_groupoid_doc():
    # neutrals 0 (sort [s, s]) and 1; generators e/1 -> 2 ([s, t]) and f~2 -> 3
    return _groupoid_doc(_named_pair_pattern())


def _parallel_pairs_groupoid_doc():
    # generators e -> 2, ei -> 4, f -> 3 (of e's sort) and fi -> 5
    return _groupoid_doc(parallel_pairs_pattern())


def _named_pair_igraph_doc():
    # the pattern as a graph, with a second vertex u at site t
    doc = ser.igraph_to_json(pattern_igraph(_named_pair_pattern()))
    doc["vertices"].append("u")
    doc["site_of"].append("t")
    return doc


def _klein_doc():
    return {"format": "egroup", "colors": ["a", "b", "c"], "order": 4,
            "action": {"a": [1, 0, 3, 2], "b": [2, 3, 0, 1], "c": [3, 2, 1, 0]}}


# the value at fault, set at path, is what the error's pointer resolves to
@pytest.mark.parametrize("make,path,value,pointer", [
    (lambda: {"format": "egraph", "vertices": ["0", "1"], "colors": ["a"],
              "edges": [["a", "0", "1"]]}, ("edges", 0, 2), "7", "/edges/0/2"),
    (lambda: {"format": "egraph", "vertices": ["0", "1"], "colors": ["a"],
              "edges": [["a", "0", "1"]]}, ("edges", 0, 1), "7", "/edges/0/1"),
    (lambda: {"format": "graph", "vertices": ["0", "1"], "edges": [["0", "1"]]},
     ("edges", 0, 0), "9", "/edges/0/0"),
    (lambda: {"format": "graph", "vertices": ["0", "1"], "edges": [["0", "1"]]},
     ("edges", 0, 1), "9", "/edges/0/1"),
    # intersection-graph colours are named e<i>~<j>
    (lambda: ser.egroup_to_json(sym(intersection_graph(
        Hypergraph([0, 1, 2], [[0, 1], [1, 2]])), attach_hypercube=False)),
     ("action", "e0~1"), [0, 0], "/action/e0~01"),
    (lambda: {"format": "egroup", "colors": ["e0/2"], "order": 2, "action": {"e0/2": [1, 0]}},
     ("action", "e0/2"), [1, 1], "/action/e0~12"),
    (lambda: {"format": "egroup", "colors": ["a"], "order": 2, "action": {"a": [1, 0]}},
     ("action", "x~y"), [1, 0], "/action/x~0y"),
    (lambda: ser.igraph_to_json(pattern_igraph(_named_pair_pattern())),
     ("edges", "e/1", 0, 1), "zz", "/edges/e~11/0/1"),
    (_named_pair_groupoid_doc, ("rmul", "e/1", 0), 99, "/rmul/e~11/0"),
    (_named_pair_groupoid_doc, ("rmul", "f~2"), 7, "/rmul/f~02"),
    (_named_pair_groupoid_doc, ("generators", "f~2"), 99, "/generators/f~02"),
    (_named_pair_groupoid_doc, ("generators", "e/1"), "x", "/generators/e~11"),
    # values of the right type that the object's constructor refuses
    (_klein_doc, ("action", "c"), [1, 2, 3, 0], "/action/c"),
    (_klein_doc, ("action", "c"), [0, 1, 2, 3], "/action/c"),
    (_klein_doc, ("action", "c"), [1, 0, 3, 2], "/action/c"),
    (lambda: {"format": "egraph", "vertices": ["0", "1", "2"], "colors": ["a"],
              "edges": [["a", "0", "1"], ["a", "2", "2"]]}, ("edges", 1), ["a", "1", "2"],
     "/edges/1"),
    (_named_pair_groupoid_doc, ("sorts", 0), ["s", "t"], "/sorts/0"),
    (_named_pair_groupoid_doc, ("generators", "e/1"), 3, "/generators/e~11"),
    (_parallel_pairs_groupoid_doc, ("generators", "f"), 2, "/generators/f"),
    (_named_pair_igraph_doc, ("edges", "e/1", 0), ["t", "s"], "/edges/e~11/0"),
    (_named_pair_igraph_doc, ("edges", "e/1"), [["s", "u"]], "/edges/e~11"),
    (_named_pair_igraph_doc, ("site_of",), ["s", "s", "s"], "/site_of"),
], ids=["egraph-v", "egraph-u", "graph-u", "graph-v", "intersection-colour", "slash-colour",
        "tilde-key", "igraph-edge", "rmul-entry", "rmul-row", "generator-range", "generator-type",
        "not-involutive", "identity", "coinciding", "two-edges-at-a-vertex", "neutral-sort",
        "generator-sort", "coinciding-generators", "igraph-sorts", "igraph-converse",
        "igraph-site"])
def test_error_pointers_resolve_to_the_value_at_fault(make, path, value, pointer):
    doc = _mutated(make(), path, value)
    with pytest.raises(SchemaError) as err:
        ser.load_document(doc)
    assert err.value.pointer == pointer
    assert _resolve(doc, pointer) == value


def test_whole_document_errors_point_at_the_document(tmp_path):
    # RFC 6901: "" names the whole document, "/" the member named ""
    doc = ser.egroup_to_json(hypercube_group(["a", "b"]))
    with pytest.raises(SchemaError, match=r"^object has no DOT form \(at /\)$") as err:
        ser.object_to_dot(ser.load_document(doc))
    assert err.value.pointer == "" and _resolve(doc, err.value.pointer) is doc
    run = cli._Run(types.SimpleNamespace(manifest=None))
    for data in ('{"name": "caf\xe9"}'.encode("latin-1"), b'{"name": '):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        with pytest.raises(SchemaError, match=r"^not (UTF-8|JSON): .* \(at /\)$") as err:
            run.read(str(path))
        assert err.value.pointer == ""


def test_a_missing_name_is_pointed_at_escaped():
    doc = {"format": "egroup", "colors": ["e0/2"], "order": 2, "action": {}}
    with pytest.raises(SchemaError, match="^missing action for colour 'e0/2' ") as err:
        ser.load_document(doc)
    assert err.value.pointer == "/action/e0~12"
    parent, token = err.value.pointer.rsplit("/", 1)
    assert _resolve(doc, parent) == {}
    assert token.replace("~1", "/").replace("~0", "~") == "e0/2"
    groupoid = _mutated(_named_pair_groupoid_doc(), ("rmul", "e/1"), _DELETE)
    with pytest.raises(SchemaError, match="^missing key 'e/1' ") as err:
        ser.load_document(groupoid)
    assert err.value.pointer == "/rmul/e~11"
