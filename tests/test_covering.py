import pytest

from acygroups.acyclicity import girth
from acygroups.constraint import is_n_acyclic_over, validate_i_coset_cycle
from acygroups.covering import (
    Hypergraph,
    check_n_acyclic_hypergraph,
    class_oracle_agrees,
    graph_cover,
    graph_template,
    hypergraph_cover,
    intersection_graph,
    translate_chordless_cycle,
    translate_nonconformal_clique,
    verify_cover,
)
from acygroups.egraph import disjoint_union, hypercube
from acygroups.errors import CompatibilityRequired
from acygroups.groups import sym
from acygroups.synthesis import SynthesisConfig, construct_n_acyclic_over

TRIANGLE_EDGES = [(0, 1), (1, 2), (0, 2)]


@pytest.fixture(scope="module")
def triangle_cover_group():
    tri = Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]])
    ig = intersection_graph(tri)
    g0 = sym(disjoint_union([ig, hypercube(ig.colors)]), attach_hypercube=False)
    cfg = SynthesisConfig(n_acyclic=4, early_exit=True)
    group, _ = construct_n_acyclic_over(g0, ig, cfg)
    return tri, ig, group


def base_group(template):
    return sym(disjoint_union([template, hypercube(template.colors)]), attach_hypercube=False)


def test_intersection_graph_shapes():
    tri = Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]])
    ig = intersection_graph(tri)
    assert ig.n == 3 and len(ig.colors) == 3
    assert all(len(ig.edges(c)) == 1 for c in range(3))
    disjoint = Hypergraph([0, 1, 2, 3], [[0, 1], [2, 3]])
    assert len(intersection_graph(disjoint).colors) == 0
    nested = Hypergraph([0, 1, 2], [[0, 1, 2], [0, 1]])
    assert len(intersection_graph(nested).colors) == 1


def test_graph_cover_with_own_group_is_covering():
    template = graph_template(TRIANGLE_EDGES)
    g = sym(template, attach_hypercube=True)
    cov = graph_cover(TRIANGLE_EDGES, g)
    report = verify_cover(cov)
    assert report.ok, report.issues


def test_graph_cover_requires_compatibility():
    template = graph_template(TRIANGLE_EDGES)
    other = sym(hypercube(template.colors), attach_hypercube=False)
    # the hypercube group satisfies [ee'ee'] = 1, which the triangle violates
    with pytest.raises(CompatibilityRequired):
        graph_cover(TRIANGLE_EDGES, other)


def test_graph_cover_unfolds_triangle(triangle_cover_group):
    tri, ig, group = triangle_cover_group
    # the same template doubles as an edge-labelled triangle graph
    cov = graph_cover([(0, 1), (1, 2), (0, 2)], _relabel(group, ig))
    report = verify_cover(cov)
    assert report.ok, report.issues
    assert girth(cov.cover) > 3


def _relabel(group, template):
    # graph_cover names colours after vertex pairs; reuse the group's tables
    from acygroups.covering import graph_template
    from acygroups.groups import EGroup

    t = graph_template([(0, 1), (1, 2), (0, 2)])
    assert len(t.colors) == len(group.colors)
    return EGroup(t.colors, group.gen_action, group.parents)


def test_hypergraph_cover_of_triangle(triangle_cover_group):
    tri, ig, group = triangle_cover_group
    cov = hypergraph_cover(tri, group)
    report = verify_cover(cov)
    assert report.ok, report.issues
    assert class_oracle_agrees(cov)
    ok, witness = check_n_acyclic_hypergraph(cov.cover, 4)
    assert ok and witness is None


def test_triangle_base_fails_three_conformality():
    tri = Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]])
    ok, witness = check_n_acyclic_hypergraph(tri, 3)
    assert not ok
    assert witness.kind == "nonconformal_clique" and len(witness.vertices) == 3


def test_single_hyperedge_always_acyclic():
    hg = Hypergraph([0, 1, 2, 3], [[0, 1, 2, 3]])
    for n in (3, 4, 5, 6):
        ok, _ = check_n_acyclic_hypergraph(hg, n)
        assert ok


def test_four_cycle_hypergraph_chordless():
    hg = Hypergraph([0, 1, 2, 3], [[0, 1], [1, 2], [2, 3], [0, 3]])
    ok, witness = check_n_acyclic_hypergraph(hg, 4)
    assert not ok and witness.kind == "chordless_cycle"
    assert len(witness.vertices) == 4


def test_cover_with_weak_group_translates_failures():
    # the order-24 group only gives order-2 edge subgroups, so the triangle
    # unfolds into a hexagon: a chordless 6-cycle that the translation turns
    # back into a template coset cycle of the same length
    tri = Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]])
    ig = intersection_graph(tri)
    weak = base_group(ig)
    assert not is_n_acyclic_over(weak, ig, 4)
    cov = hypergraph_cover(tri, weak)
    assert verify_cover(cov).ok
    ok, _ = check_n_acyclic_hypergraph(cov.cover, 5)
    assert ok
    ok, witness = check_n_acyclic_hypergraph(cov.cover, 6)
    assert not ok
    if witness.kind == "chordless_cycle":
        entries = translate_chordless_cycle(cov, witness.vertices)
    else:
        entries = translate_nonconformal_clique(cov, witness.vertices)
    assert len(entries) == len(witness.vertices) == 6
    assert validate_i_coset_cycle(weak, ig, entries)


def test_cover_is_trivial_for_disjoint_hyperedges():
    hg = Hypergraph([0, 1, 2, 3], [[0, 1], [2, 3]])
    from acygroups.groups import EGroup

    trivial = EGroup((), [], [None])
    cov = hypergraph_cover(hg, trivial)
    assert cov.cover.n == 4
    assert len(cov.cover.hyperedges) == 2
    assert verify_cover(cov).ok


def test_hyperedge_fibers_are_bijective(triangle_cover_group):
    tri, ig, group = triangle_cover_group
    cov = hypergraph_cover(tri, group)
    for he in cov.cover.hyperedges:
        assert len(he) == 2


def test_cover_check_matches_the_search_with_the_size_two_round():
    """Skipping the size-2 clique round changes no verdict, witness or cap."""
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    from acygroups.errors import ResourceCap
    from oracles import reference_check_n_acyclic_hypergraph

    def outcome(check, hg, n_max, budget):
        try:
            return check(hg, n_max, budget=budget)
        except ResourceCap as exc:
            return "cap", str(exc)

    edges = st.lists(st.frozensets(st.integers(0, 6), min_size=1, max_size=3),
                     min_size=1, max_size=8)
    five_cycle = [frozenset({i, (i + 1) % 5}) for i in range(5)]

    @settings(max_examples=300, deadline=None)
    @given(edges, st.integers(1, 6), st.integers(1, 60))
    @example(five_cycle, 5, 4)
    @example(five_cycle, 5, 5)
    @example(five_cycle + [frozenset({0, 2, 6})], 6, 9)
    def check(hyperedges, n_max, budget):
        hg = Hypergraph(range(7), [sorted(he) for he in hyperedges])
        got = outcome(check_n_acyclic_hypergraph, hg, n_max, budget)
        assert got == outcome(reference_check_n_acyclic_hypergraph, hg, n_max, budget)

    check()
