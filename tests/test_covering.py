import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acygroups import serialize as ser

from acygroups.acyclicity import girth
from acygroups.constraint import find_i_coset_cycle, validate_i_coset_cycle
from acygroups.covering import (
    Hypergraph,
    _chordless_cycle,
    check_n_acyclic_hypergraph,
    class_oracle_agrees,
    graph_cover,
    graph_template,
    hypergraph_cover,
    intersection_graph,
    verify_cover,
)
from acygroups.egraph import disjoint_union, hypercube
from acygroups.errors import CompatibilityRequired
from acygroups.groups import sym
from acygroups.synthesis import SynthesisConfig, construct_n_acyclic

from conftest import named_hypergraph
from paper_checks import translate_chordless_cycle, translate_nonconformal_clique

TRIANGLE_EDGES = [(0, 1), (1, 2), (0, 2)]


@pytest.fixture(scope="module")
def triangle_cover_group():
    tri = Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]])
    ig = intersection_graph(tri)
    g0 = sym(disjoint_union([ig, hypercube(ig.colors)]), attach_hypercube=False)
    cfg = SynthesisConfig(n_acyclic=4, early_exit=True)
    group, _ = construct_n_acyclic(g0, cfg, ig)
    return tri, ig, group


def base_group(template):
    return sym(disjoint_union([template, hypercube(template.colors)]), attach_hypercube=False)


def from_index_sets(names, index_sets):
    return Hypergraph(names, index_sets)


# Tests build hypergraphs two ways: by vertex names through the conftest
# helper, and by index sets through the constructor itself.
@pytest.mark.parametrize("build", [
    lambda names, edges: named_hypergraph(names, [[names[i] for i in he] for he in edges]),
    from_index_sets,
])
def test_both_hypergraph_constructors_refuse_repeated_names_and_empty_hyperedges(build):
    from acygroups.errors import PreconditionFailed, UnknownName

    with pytest.raises(UnknownName, match="duplicate vertex names"):
        build(["a", "b", "a"], [[0, 1]])
    with pytest.raises(PreconditionFailed, match="hyperedges must be nonempty"):
        build(["a", "b"], [[0, 1], []])


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
    _, ig, group = triangle_cover_group
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
    return EGroup(t.colors, group.gen_action, group.order)


def test_hypergraph_cover_of_triangle(triangle_cover_group):
    tri, _, group = triangle_cover_group
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
    assert find_i_coset_cycle(weak, ig, 4) is not None
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

    trivial = EGroup((), [], 1)
    cov = hypergraph_cover(hg, trivial)
    assert cov.cover.n == 4
    assert len(cov.cover.hyperedges) == 2
    assert verify_cover(cov).ok


def test_hyperedge_fibers_are_bijective(triangle_cover_group):
    tri, _, group = triangle_cover_group
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
    # round 4 runs over the budget, round 3 does not: the cap stands
    @example([frozenset({2, 5, 1, 4}), frozenset({6, 2, 1}), frozenset({4, 1})], 4, 13)
    # a nonconformal 4-clique comes before round 3 runs over the budget:
    # the smaller round's cap stands
    @example([frozenset({0, 2, 5, 6}), frozenset({0, 2, 4, 6}), frozenset({4}),
              frozenset({2, 4, 5, 6}), frozenset({0, 4, 5, 6}), frozenset({0, 1, 3, 6})], 4, 15)
    # rounds 3 and 4 run over the budget at the same nonconformal triangle
    @example([frozenset({0, 1, 5}), frozenset({0, 2}), frozenset({2, 4, 5})], 4, 7)
    # after a nonconformal 4-clique, round 3 counts its own cliques only
    @example([frozenset({0, 1, 4}), frozenset({4, 5, 6}), frozenset({0, 1, 5})], 4, 8)
    # two edges that grow no triangle end the vertex before the one whose
    # first edge grows the nonconformal triangle (1, 2, 3): at budget 13 the
    # count crosses between them and the cap stands; at 15 the triangle wins
    @example([frozenset({0, 1, 2, 4}), frozenset({2, 3}), frozenset({3, 5, 6}), frozenset({5, 6}),
              frozenset({4, 5, 6}), frozenset({1, 3})], 4, 13)
    @example([frozenset({0, 1, 2, 4}), frozenset({2, 3}), frozenset({3, 5, 6}), frozenset({5, 6}),
              frozenset({4, 5, 6}), frozenset({1, 3})], 4, 15)
    # an edge that grows no triangle comes right before the edge, from the
    # same vertex, that grows the nonconformal triangle (1, 5, 3): counted
    # first, it puts the triangle past budget 15; at 16 the triangle wins
    @example([frozenset({1, 5}), frozenset({0, 3, 5, 6}), frozenset({1, 2, 4}),
              frozenset({1, 3, 4}), frozenset({0, 2, 6})], 3, 15)
    @example([frozenset({1, 5}), frozenset({0, 3, 5, 6}), frozenset({1, 2, 4}),
              frozenset({1, 3, 4}), frozenset({0, 2, 6})], 3, 16)
    # two edges that grow no triangle follow the nonconformal triangle
    # (0, 2, 6) from its least vertex: at budget 13 the triangle is the last
    # clique within the budget and wins; at 12 it is the first past it
    @example([frozenset({0, 1, 3}), frozenset({0, 1, 6}), frozenset({2, 3, 4}),
              frozenset({2, 4, 6}), frozenset({0, 2, 3})], 3, 13)
    @example([frozenset({0, 1, 3}), frozenset({0, 1, 6}), frozenset({2, 3, 4}),
              frozenset({2, 4, 6}), frozenset({0, 2, 3})], 3, 12)
    def check(hyperedges, n_max, budget):
        hg = Hypergraph(range(7), [sorted(he) for he in hyperedges])
        got = outcome(check_n_acyclic_hypergraph, hg, n_max, budget)
        assert got == outcome(reference_check_n_acyclic_hypergraph, hg, n_max, budget)

    check()


THREE_EDGES = ([0, 1, 2, 3], [[0, 1, 2], [0, 3], [1, 3]])


def _per_length_witness(adj, n_max):
    from oracles import reference_chordless_cycles

    for length in range(4, n_max + 1):
        for cycle in reference_chordless_cycles(adj, length):
            return cycle
    return None


@pytest.mark.parametrize("base", [([0, 1, 2], [[0, 1], [1, 2], [0, 2]]), THREE_EDGES])
def test_one_chordless_walk_finds_the_per_length_witness(base):
    # the covers by the order-24 seed groups have chordless 6-cycles
    hg = Hypergraph(*base)
    ig = intersection_graph(hg)
    group = base_group(ig)
    assert group.order == 24
    adj = hypergraph_cover(hg, group).cover.gaifman()
    for n_max in (3, 4, 5, 6, 7):
        assert _chordless_cycle(adj, n_max) == _per_length_witness(adj, n_max)
    assert len(_chordless_cycle(adj, 6)) == 6


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 8), min_size=2, max_size=3), min_size=1, max_size=12),
       st.integers(4, 6))
def test_one_chordless_walk_matches_the_walk_per_length(hyperedges, n_max):
    adj = Hypergraph(range(9), [sorted(he) for he in hyperedges]).gaifman()
    assert _chordless_cycle(adj, n_max) == _per_length_witness(adj, n_max)


def _with_classes(cov, classes):
    return cov._replace(provenance={**cov.provenance, "classes": tuple(map(tuple, classes))})


def test_class_check_rejects_a_triple_in_no_class():
    from oracles import reference_class_oracle_agrees

    hg = Hypergraph(*THREE_EDGES)
    cov = hypergraph_cover(hg, sym(intersection_graph(hg)))
    assert verify_cover(cov).ok
    classes = list(cov.provenance["classes"])
    # vertex 2 lies in one hyperedge only, so its triples are singletons
    i, j = classes.index(((0, 2, 0),)), classes.index(((0, 2, 1),))
    classes[j] = classes[i]  # (0, 2, 1) now lies in no class
    tampered = _with_classes(cov, classes)
    assert reference_class_oracle_agrees(tampered)
    report = verify_cover(tampered)
    assert not report.ok
    assert report.issues == ("class structure disagrees with the subgroup rule",)


small_hyperedges = st.lists(st.frozensets(st.integers(0, 4), min_size=1, max_size=3),
                            min_size=1, max_size=4)


def _small_cover(hyperedges, hypercube_attached, build=hypergraph_cover):
    """The cover of a hypergraph on five vertices by the group of its
    intersection graph (the trivial group when no hyperedges meet)."""
    from acygroups.groups import EGroup

    hg = Hypergraph(range(5), [sorted(he) for he in hyperedges])
    ig = intersection_graph(hg)
    group = (sym(ig, attach_hypercube=hypercube_attached) if ig.colors
             else EGroup((), [], 1))
    return build(hg, group)


@settings(max_examples=40, deadline=None)
@given(small_hyperedges, st.booleans())
def test_cover_matches_the_reference_cover(hyperedges, hypercube_attached):
    from oracles import reference_class_oracle_agrees, reference_hypergraph_cover

    cov = _small_cover(hyperedges, hypercube_attached)
    ref = _small_cover(hyperedges, hypercube_attached, reference_hypergraph_cover)
    assert ser.canonical_bytes(ser.covering_to_json(cov)) == ser.canonical_bytes(
        ser.covering_to_json(ref))
    assert cov.provenance == ref.provenance
    assert class_oracle_agrees(cov) == reference_class_oracle_agrees(cov)
    assert class_oracle_agrees(cov)


def _partition(classes):
    return sorted(tuple(sorted(m)) for m in classes)


@settings(max_examples=150, deadline=None)
@given(small_hyperedges, st.booleans(), st.data())
def test_class_check_rejects_what_the_reference_rejects(hyperedges, hypercube_attached, data):
    """The classes pass exactly when they are the cover's partition; every
    tampering the reference check rejects is rejected."""
    from oracles import reference_class_oracle_agrees

    cov = _small_cover(hyperedges, hypercube_attached)
    hg, ng = cov.base, cov.group.order
    classes = [list(m) for m in cov.provenance["classes"]]

    def pick(minimum=1):
        fits = [i for i, m in enumerate(classes) if len(m) >= minimum]
        assume(fits)
        return data.draw(st.sampled_from(fits))

    def triple():
        return (data.draw(st.integers(0, len(hg.hyperedges) - 1)),
                data.draw(st.integers(0, hg.n - 1)), data.draw(st.integers(0, ng - 1)))

    kind = data.draw(st.sampled_from(["move", "merge", "split", "retag", "drop", "duplicate"]))
    i = pick(2 if kind == "split" else 1)
    k = data.draw(st.integers(0, len(classes[i]) - 1))
    if kind in ("move", "merge", "duplicate"):
        j = pick()
        assume(j != i or kind == "duplicate")
        if kind == "move":
            classes[j].append(classes[i].pop(k))
        elif kind == "merge":
            classes[j] += classes[i]
            classes[i] = []
        else:
            classes[j].insert(data.draw(st.integers(0, len(classes[j]))), classes[i][k])
    elif kind == "split":
        classes.append(classes[i][k:] or classes[i][:1])
        classes[i] = classes[i][:k] or classes[i][1:]
    elif kind == "retag":
        classes[i][k] = triple()
    else:
        classes[i].pop(k)
    classes = [m for m in classes if m]
    tampered = _with_classes(cov, classes)
    got = class_oracle_agrees(tampered)
    assert got == (_partition(classes) == _partition(cov.provenance["classes"]))
    if not reference_class_oracle_agrees(tampered):
        assert not got
