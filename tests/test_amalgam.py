from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups.amalgam import amalgam_chain, amalgam_cluster, one_step_classes, quotient_graph
from acygroups.canon import canonical_form
from acygroups.errors import PreconditionFailed, StrictnessViolation, TransitivityViolation
from acygroups.traverse import UnionFind

from conftest import biggs_group, evaluate_word, hypercube_group, rename, s3_three_generators
from oracles import rebuild_renamed, reference_cluster_transitive, reference_sim_transitive
from paper_checks import FailureWitness, beta_components, embed_into_cayley


def test_free_amalgam_disjoint_overlap_glues_identity():
    h3 = hypercube_group(["a", "b", "c"])
    am = amalgam_chain(h3, [([0], 0), ([1], 0)])
    assert am.graph.n == 3  # two edges wedged at the identity
    assert len(am.graph.all_edges()) == 2


def test_free_amalgam_full_overlap_is_single_copy():
    h3 = hypercube_group(["a", "b", "c"])
    am = amalgam_chain(h3, [([0, 1], 0), ([0, 1], 0)])
    assert am.graph.n == 4 and len(am.graph.all_edges()) == 4


def test_free_amalgam_two_squares_share_an_edge():
    h3 = hypercube_group(["a", "b", "c"])
    am = amalgam_chain(h3, [([0, 1], 0), ([1, 2], 0)])
    assert am.graph.n == 6
    assert len(am.graph.all_edges()) == 7
    assert am.graph.strict


@pytest.mark.parametrize("edges, message", [
    ([(0, 0, 1), (0, 2, 2)], "loop at z"),
    ([(0, 0, 1), (0, 1, 0), (0, 1, 2)], "branches colour 'a' at y"),
    ([(0, 0, 1), (1, 1, 0)], "not a strict graph"),
])
def test_quotient_graph_refuses_what_is_not_strict(edges, message):
    with pytest.raises(StrictnessViolation, match=message):
        quotient_graph(["x", "y", "z"], ["a", "b"], edges)


def test_amalgam_embedding_injective_on_two_acyclic():
    h3 = hypercube_group(["a", "b", "c"])
    am = amalgam_chain(h3, [([0, 1], 0), ([1, 2], 0)])
    images = embed_into_cayley(am, h3)
    assert not isinstance(images, FailureWitness)
    assert len(set(images)) == am.graph.n


def test_amalgam_embedding_fails_on_triangle_group():
    g = s3_three_generators()
    am = amalgam_chain(g, [([0, 1], 0), ([0, 2], 0)])
    assert am.graph.n == 10  # 6 + 6 - |G[{a}]|
    witness = embed_into_cayley(am, g)
    assert isinstance(witness, FailureWitness)


def test_chain_single_item_is_subgroup_cayley_graph():
    s3 = biggs_group(["a", "b"], 1)
    am = amalgam_chain(s3, [([0, 1], 0)])
    assert am.graph.n == 6


def test_chain_alternating_path():
    s3 = biggs_group(["a", "b"], 1)
    pa = evaluate_word(s3, ["a"])
    pb = evaluate_word(s3, ["b"])
    am = amalgam_chain(s3, [([0], pa), ([1], pb), ([0], pa), ([1], pb)])
    assert am is not None
    assert am.graph.n == 5
    assert len(am.graph.all_edges()) == 4


def test_chain_undefined_on_interfering_overlaps():
    s3 = biggs_group(["a", "b"], 1)
    pa = evaluate_word(s3, ["a"])
    # equal consecutive singleton colours make the middle overlap total
    assert amalgam_chain(s3, [([0], pa), ([0], pa), ([1], 0)]) is None
    # alternating colours with an identity interior point also interfere
    assert amalgam_chain(s3, [([0], pa), ([1], 0), ([0], pa)]) is None
    # with a non-identity interior point the chain is defined
    pb = evaluate_word(s3, ["b"])
    assert amalgam_chain(s3, [([0], pa), ([1], pb), ([0], pa)]) is not None


def test_chain_point_outside_subgroup_rejected():
    s3 = biggs_group(["a", "b"], 1)
    pb = evaluate_word(s3, ["b"])
    with pytest.raises(PreconditionFailed):
        amalgam_chain(s3, [([0], pb), ([1], 0)])


def test_chain_embedding_injective_within_acyclicity_bound():
    s3 = biggs_group(["a", "b"], 1)
    pa = evaluate_word(s3, ["a"])
    pb = evaluate_word(s3, ["b"])
    am = amalgam_chain(s3, [([0], pa), ([1], pb), ([0], pa), ([1], pb)])
    images = embed_into_cayley(am, s3)
    assert not isinstance(images, FailureWitness)


def test_chain_separators():
    # removing an overlap coset disconnects the two sides of the chain
    s3 = biggs_group(["a", "b"], 1)
    pa = evaluate_word(s3, ["a"])
    pb = evaluate_word(s3, ["b"])
    am = amalgam_chain(s3, [([0], pa), ([1], pb), ([0], pa)])
    overlap = {v for v, prov in enumerate(am.provenance) if len(prov) > 1}
    # the middle constituent's two overlap vertices separate the chain
    mid = sorted(overlap)[0]
    reach = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for row in am.graph.partner:
            w = row[u]
            if w >= 0 and w != mid and w not in reach:
                reach.add(w)
                frontier.append(w)
    assert len(reach) < am.graph.n - 1


def test_cluster_single_constituent():
    h3 = hypercube_group(["a", "b", "c"])
    am = amalgam_cluster(h3, [[0, 1]])
    assert am.graph.n == 4


def test_cluster_three_squares():
    h3 = hypercube_group(["a", "b", "c"])
    am = amalgam_cluster(h3, [[0, 1], [1, 2], [0, 2]])
    assert am.graph.n == 7
    assert len(am.graph.all_edges()) == 9
    images = embed_into_cayley(am, h3)
    assert not isinstance(images, FailureWitness)


def test_cluster_disjoint_constituents_wedge():
    h3 = hypercube_group(["a", "b", "c"])
    am = amalgam_cluster(h3, [[0], [1], [2]])
    assert am.graph.n == 4  # wedge of three edges at the identity


def test_cluster_requires_two_acyclic_constituents():
    from acygroups.egraph import new_egraph
    from acygroups.groups import sym

    g = sym(
        new_egraph([0, 1, 2, 3, 4], ["a", "b", "c", "d"],
                   [("a", 0, 1), ("b", 1, 2), ("c", 0, 2), ("d", 3, 4)]),
        attach_hypercube=False,
    )
    with pytest.raises(PreconditionFailed):
        amalgam_cluster(g, [[0, 1, 2], [3]])


def test_isomorphism_invariance_under_renaming():
    h3 = hypercube_group(["a", "b", "c"])
    am = amalgam_chain(h3, [([0, 1], 0), ([1, 2], 0)])
    renamed = rebuild_renamed(am, {"a": "b", "b": "c", "c": "a"})
    assert canonical_form(rename(am.graph, {"a": "b", "b": "c", "c": "a"})) == canonical_form(
        renamed.graph
    )


def test_beta_components_binary():
    h3 = hypercube_group(["a", "b", "c"])
    am = amalgam_chain(h3, [([0, 1], 0), ([1, 2], 0)])
    # beta = {b}: single b-edges
    comps = beta_components(am, [1])
    assert all(cls.ok for cls in comps)
    # beta = alpha_1 reproduces the first constituent
    comps_ab = beta_components(am, [0, 1])
    assert all(cls.ok for cls in comps_ab)
    kinds = {cls.kind for cls in comps_ab}
    assert "single" in kinds or "chain" in kinds


def test_beta_components_disjoint_beta_gives_singletons():
    h3 = hypercube_group(["a", "b", "c"])
    am = amalgam_chain(h3, [([0], 0), ([1], 0)])
    comps = beta_components(am, [2])
    assert all(cls.ok and cls.kind in ("single", "chain") for cls in comps)


def test_beta_components_chain():
    s3 = biggs_group(["a", "b"], 1)
    pa = evaluate_word(s3, ["a"])
    pb = evaluate_word(s3, ["b"])
    am = amalgam_chain(s3, [([0], pa), ([1], pb), ([0], pa)])
    for beta in ([0], [1]):
        comps = beta_components(am, beta)
        assert all(cls.ok for cls in comps)


def test_beta_components_cluster():
    h3 = hypercube_group(["a", "b", "c"])
    am = amalgam_cluster(h3, [[0, 1], [1, 2], [0, 2]])
    for beta in ([0], [0, 1]):
        comps = beta_components(am, beta)
        assert all(cls.ok for cls in comps)


def test_beta_components_of_two_squares_are_b_edges():
    h3 = hypercube_group(["a", "b", "c"])
    am = amalgam_chain(h3, [([0, 1], 0), ([1, 2], 0)])
    comps = beta_components(am, [1])
    assert len(comps) == 3  # 6 vertices in single b-edges
    for cls in comps:
        assert cls.ok
        assert cls.kind in ("single", "chain")


def test_one_step_classes_refuses_a_class_with_an_unglued_pair():
    with pytest.raises(TransitivityViolation, match="^not one step$"):
        one_step_classes([[4], [0, 1, 2]], {(0, 1), (1, 2)}, "not one step")


@pytest.mark.parametrize("classes", [[[0, 1, 2]], [[2, 0, 1]], [[0], [1]], [[]], []])
def test_one_step_classes_passes_glued_singleton_and_empty_classes(classes):
    one_step_classes(classes, {(0, 1), (0, 2), (1, 2)}, "not one step")


def _refuses(classes, pairs):
    try:
        one_step_classes(classes, pairs, "not one step")
    except TransitivityViolation:
        return True
    return False


def _classes(data, n, links):
    """The classes of 0..n-1 under links and up to two drawn links more,
    which may join members that no link joins."""
    uf = UnionFind(n)
    extra = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=2))
    for p, q in [*links, *extra]:
        uf.union(p, q)
    return uf.classes()[1]


GROUPS = (hypercube_group(["a", "b", "c"]), s3_three_generators())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_step_classes_agrees_with_both_reference_checks(data):
    # skeleton extensions: the copy vertices of a class, those from n_host
    # on, must be pairwise one step apart
    n = data.draw(st.integers(1, 8))
    n_host = data.draw(st.integers(0, n))
    sim_pairs = set(data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted).map(tuple),
        max_size=10)))
    classes = _classes(data, n, sim_pairs)
    tagged = [[m for m in members if m >= n_host] for members in classes]
    assert _refuses(tagged, sim_pairs) == (not reference_sim_transitive(classes, sim_pairs, n_host))
    # clusters: two (constituent, element) pairs are glued when they are one
    # element of the constituents' overlap subgroup
    group = data.draw(st.sampled_from(GROUPS))
    alphas = data.draw(st.lists(st.frozensets(st.integers(0, 2), min_size=1),
                                min_size=2, max_size=3))
    points = [(i, g) for i, a in enumerate(alphas) for g in group.subgroup_elements(a)]
    index = {p: t for t, p in enumerate(points)}
    glue = [((i, g), (j, g)) for i, j in combinations(range(len(alphas)), 2)
            for g in group.subgroup_elements(alphas[i] & alphas[j])]
    links = data.draw(st.lists(st.sampled_from(glue), max_size=6))
    classes = [frozenset(points[m] for m in members)
               for members in _classes(data, len(points), [(index[p], index[q]) for p, q in links])]
    assert _refuses(classes, set(glue)) == (
        not reference_cluster_transitive(group, alphas, classes))
