import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups import serialize as ser
from acygroups.covering import Hypergraph, hypergraph_cover, intersection_graph
from acygroups.egraph import disjoint_union, hypercube
from acygroups.errors import AcygroupsError, SchemaError
from acygroups.groupoid import ConstraintPattern, groupoid_from_group, hat_translation, pattern_igraph
from acygroups.groups import cayley_graph, sym

from conftest import biggs_group, hypercube_group


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
    assert "/edges/1/v" in str(err.value)


def test_egroup_roundtrip_including_parents():
    g = biggs_group(["a", "b"], 1)
    doc = ser.egroup_to_json(g)
    back = ser.egroup_from_json(doc)
    assert back.colors == g.colors
    assert back.gen_action == g.gen_action
    assert back.parents == g.parents
    assert ser.egroup_to_json(back) == doc


def test_egroup_digest_stable_over_cayley_rebuild():
    g = hypercube_group(["a", "b"])
    doc = ser.egraph_to_json(cayley_graph(g).graph)
    d1 = ser.digest(doc)
    g2 = ser.egroup_from_json(ser.egroup_to_json(g))
    d2 = ser.digest(ser.egraph_to_json(cayley_graph(g2).graph))
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
    gpd = groupoid_from_group(group, pattern, hat=hat)
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
    text = ser.egraph_to_dot(g)
    assert text.startswith("graph {") and text.count("--") == 4
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    text2 = ser.igraph_to_dot(pattern_igraph(pattern))
    assert "digraph" in text2
    tri = Hypergraph([0, 1, 2], [[0, 1, 2]])
    assert "graph {" in ser.hypergraph_to_dot(tri)


def test_amalgam_dot_has_provenance_tooltips():
    from acygroups.amalgam import free_amalgam

    h3 = hypercube_group(["a", "b", "c"])
    am = free_amalgam(h3, [0, 1], [1, 2])
    text = ser.amalgam_to_dot(am)
    assert "tooltip=" in text


def test_cycle_witness_roundtrip():
    from acygroups.acyclicity import find_coset_cycle, validate_coset_cycle

    s3 = biggs_group(["a", "b"], 1)
    cyc = find_coset_cycle(s3, 6)
    doc = ser.cycle_to_json(s3, cyc.entries)
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


def _two_site_groupoid_doc():
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    hat = hat_translation(pattern)
    group = sym(disjoint_union([hat.igraph, hypercube(hat.igraph.colors)]), attach_hypercube=False)
    return ser.igroupoid_to_json(groupoid_from_group(group, pattern, hat=hat))


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


def _paths(doc, prefix=()):
    """Every key path into a JSON document but the format tag."""
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        if prefix + (key,) != ("format",):
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_loaders_reject_mutated_documents_with_schema_errors_only(data):
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    doc = data.draw(st.sampled_from([
        ser.egraph_to_json(hypercube(["a", "b"])),
        ser.egroup_to_json(biggs_group(["a", "b"], 1)),
        ser.pattern_to_json(pattern),
        ser.igraph_to_json(pattern_igraph(pattern)),
        ser.hypergraph_to_json(Hypergraph(["0", "1", "2"], [["0", "1"], ["1", "2"]])),
        ser.graph_to_json([("0", "1"), ("1", "2")]),
    ]))
    values = st.sampled_from([5, -1, 1.5, None, True, "x", "0", [], [5], ["x"], [[1]], {}, {"a": 1}])
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(values)
    try:
        ser.load_document(doc)
    except AcygroupsError:
        pass  # SchemaError, or a precondition of the built object
