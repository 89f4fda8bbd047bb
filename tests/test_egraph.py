import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups.canon import canonical_form
from acygroups.egraph import biggs_tree, disjoint_union, hypercube, new_egraph, trivial_completion
from acygroups.errors import IncompleteGraph, MatchingViolation, UnknownName

from conftest import rename
from oracles import (
    alpha_component,
    brute_force_isomorphic,
    find_isomorphism,
    is_symmetry,
    walk_target,
)


def test_single_edge_is_strict_and_complete():
    g = new_egraph([0, 1], ["a"], [("a", 0, 1)])
    assert g.strict and g.complete


def test_double_matching_rejected():
    with pytest.raises(MatchingViolation):
        new_egraph([0, 1, 2], ["a"], [("a", 0, 1), ("a", 1, 2)])


def test_unknown_vertex_rejected():
    with pytest.raises(UnknownName):
        new_egraph([0, 1], ["a"], [("a", 0, 7)])


def test_six_cycle_alternating_is_strict_complete():
    edges = [("a", 0, 1), ("b", 1, 2), ("a", 2, 3), ("b", 3, 4), ("a", 4, 5), ("b", 5, 0)]
    g = new_egraph(list(range(6)), ["a", "b"], edges)
    # direct check of the matching property per colour
    for c in range(2):
        degrees = [0] * 6
        for u, v in g.edges(c):
            degrees[u] += 1
            degrees[v] += 1 if u != v else 0
        assert all(d == 1 for d in degrees)
    assert g.strict and g.complete


def test_trivial_completion_adds_loop_on_isolated_vertex():
    g = new_egraph([0, 1, 2], ["a"], [("a", 0, 1)])
    bar = trivial_completion(g)
    assert bar.partner[0][2] == 2
    assert bar.partner[0][0] == 1


def test_trivial_completion_idempotent():
    g = new_egraph([0, 1, 2], ["a"], [("a", 0, 1)])
    bar = trivial_completion(g)
    assert trivial_completion(bar) == bar


def test_completion_of_depth_one_tree_loops_leaves():
    t = biggs_tree(["a", "b"], 1)
    bar = trivial_completion(t)
    b_vertex = t.vertex_names.index("b")
    a_vertex = t.vertex_names.index("a")
    assert bar.partner[t.color_index("a")][b_vertex] == b_vertex
    assert bar.partner[t.color_index("b")][a_vertex] == a_vertex


@pytest.mark.parametrize(
    "colors,n,expected",
    [(["a", "b"], 1, 3), (["a", "b"], 2, 5), (["a", "b", "c"], 1, 4)],
)
def test_biggs_tree_vertex_counts(colors, n, expected):
    t = biggs_tree(colors, n)
    assert t.n == expected
    # closed form against the enumeration
    d = len(colors)
    formula = 1 + d * sum((d - 1) ** i for i in range(n))
    assert t.n == formula


def test_biggs_tree_edge_count():
    t = biggs_tree(["a", "b", "c"], 1)
    assert len(t.all_edges()) == 3


def test_hypercube_shapes():
    g1 = hypercube(["a"])
    assert g1.n == 2 and len(g1.all_edges()) == 1
    g2 = hypercube(["a", "b"])
    assert g2.n == 4 and g2.complete
    # a 4-cycle alternating colours
    six = new_egraph(list(range(4)), ["a", "b"], [("a", 0, 1), ("b", 1, 2), ("a", 2, 3), ("b", 3, 0)])
    assert find_isomorphism(g2, six) is not None


def test_walk_target_on_hypercube():
    g = hypercube(["a", "b"])
    v = g.vertex_names.index("{}")
    w = walk_target(g, v, [g.color_index("a"), g.color_index("b")])
    assert g.vertex_names[w] == "{a,b}"


def test_walk_target_empty_word_is_identity():
    g = hypercube(["a", "b"])
    assert walk_target(g, 3, []) == 3


def test_walk_target_requires_complete():
    t = biggs_tree(["a", "b"], 1)
    with pytest.raises(IncompleteGraph):
        walk_target(t, 0, [0])


def test_walk_target_on_completed_tree():
    t = trivial_completion(biggs_tree(["a", "b"], 1))
    v = t.vertex_names.index("b")
    word = [t.color_index("b"), t.color_index("a")]
    assert t.vertex_names[walk_target(t, v, word)] == "a"


def test_walk_concatenation_compatibility():
    g = hypercube(["a", "b", "c"])
    u = [0, 1, 2, 1]
    w = [2, 0, 0, 1]
    for v in range(g.n):
        assert walk_target(g, v, u + w) == walk_target(g, walk_target(g, v, u), w)


def test_alpha_component_single_color_of_cycle():
    edges = [("a", 0, 1), ("b", 1, 2), ("a", 2, 3), ("b", 3, 4), ("a", 4, 5), ("b", 5, 0)]
    g = new_egraph(list(range(6)), ["a", "b"], edges)
    comp, emb = alpha_component(g, [g.color_index("a")], 0)
    assert comp.n == 2 and len(comp.all_edges()) == 1
    assert emb == (0, 1)


def test_alpha_component_full_colors_connected():
    g = hypercube(["a", "b"])
    comp, emb = alpha_component(g, [0, 1], 0)
    assert comp.n == g.n
    assert emb == tuple(range(g.n))


def test_alpha_component_of_cube_is_square():
    g = hypercube(["a", "b", "c"])
    a, b = g.color_index("a"), g.color_index("b")
    comp, emb = alpha_component(g, [a, b], g.vertex_names.index("{}"))
    assert comp.n == 4
    assert sorted(g.vertex_names[v] for v in emb) == ["{a,b}", "{a}", "{b}", "{}"]


def test_alpha_component_partitions():
    g = hypercube(["a", "b", "c"])
    alpha = [0, 2]
    seen = {}
    for v in range(g.n):
        _, emb = alpha_component(g, alpha, v)
        seen[v] = frozenset(emb)
    for v in range(g.n):
        for w in range(g.n):
            assert seen[v] == seen[w] or not (seen[v] & seen[w])


def test_rename_roundtrip():
    t = biggs_tree(["a", "b"], 2)
    rho = {"a": "b", "b": "a"}
    assert rename(rename(t, rho), rho) == t


def test_tree_symmetry():
    assert is_symmetry(biggs_tree(["a", "b"], 2), {"a": "b", "b": "a"})


def test_asymmetric_graph_detected():
    g = new_egraph([0, 1, 2], ["a", "b"], [("a", 0, 1), ("b", 2, 2)])
    assert not is_symmetry(g, {"a": "b", "b": "a"})


def test_disjoint_union_counts():
    g = hypercube(["a", "b"])
    u = disjoint_union([g, g, g])
    assert u.n == 12 and len(u.all_edges()) == 12


def test_canonical_form_agrees_with_brute_force():
    g1 = hypercube(["a", "b"])
    g2 = rename(g1, {"a": "b", "b": "a"})
    assert (find_isomorphism(g1, g2) is not None) == brute_force_isomorphic(g1, g2)
    h = new_egraph(list(range(4)), ["a", "b"], [("a", 0, 1), ("b", 1, 2), ("a", 2, 3)])
    assert (find_isomorphism(g1, h) is not None) == brute_force_isomorphic(g1, h) is False


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_small_graphs_iso_oracle(data):
    n = data.draw(st.integers(1, 5))
    colors = ["a", "b"]
    edges = []
    used = {c: set() for c in colors}
    for c in colors:
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
        for u, v in pairs:
            if u in used[c] or v in used[c] or (u != v and v in used[c]):
                continue
            if u in used[c] or v in used[c]:
                continue
            used[c] |= {u, v}
            edges.append((c, u, v))
    g = new_egraph(list(range(n)), colors, edges)
    perm = data.draw(st.permutations(list(range(n))))
    shuffled = new_egraph(list(range(n)), colors, [(c, perm[u], perm[v]) for c, u, v in edges])
    assert canonical_form(g) == canonical_form(shuffled)
    assert brute_force_isomorphic(g, shuffled)


def test_biggs_tree_resource_cap():
    import pytest as _pytest

    from acygroups.errors import ResourceCap

    with _pytest.raises(ResourceCap):
        biggs_tree(["a", "b", "c"], 10, cap=50)
