"""Table-driven forcing against the callback forcing it replaced: the same
values from ``propagate``, the same colour symmetries in the same order
whether forced or composed, and the same compatibility verdicts whether
the template is forced point by point or as one tuple per element."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups import acyclicity
from acygroups.acyclicity import GammaFilter, _colour_symmetries, proper_subsets
from acygroups.covering import Hypergraph, intersection_graph
from acygroups.egraph import disjoint_union, hypercube, new_egraph
from acygroups.groupoid import (
    IGraph,
    groupoid_cayley,
    groupoid_from_group,
    hat_translation,
    is_compatible_groupoid,
    pattern_igraph,
)
from acygroups.groups import is_compatible, sym
from acygroups.synthesis import SynthesisConfig, construct_n_acyclic
from acygroups.traverse import propagate

from conftest import corpus, trivial_constraint_graph
from oracles import (
    reference_colour_symmetries,
    reference_is_compatible,
    reference_is_compatible_groupoid,
    reference_propagate,
)
from test_comp_tables import _cases
from test_constraint import path_igraph
from test_groupoid import one_pair_pattern, parallel_pairs_pattern
from test_search_kernel import group_2592  # noqa: F401  (fixture)
from test_traverse import draw_matching


def one_transposition_group():
    """Order 16 on a, b, c: renaming a <-> b extends, no other renaming does."""
    g = new_egraph(list(range(4)), ["a", "b", "c"],
                   [("a", 1, 2), ("b", 2, 3), ("b", 0, 1), ("c", 3, 0), ("c", 2, 1)])
    return sym(g)


def rotation_group():
    """Order 432 on a, b, c: the graph is three shifted copies of the
    a-edges, so the rotations a -> b -> c -> a extend; no transposition does."""
    edges = [("a", 7, 6), ("a", 2, 8), ("a", 1, 5), ("b", 1, 0), ("b", 5, 2), ("b", 4, 8),
             ("c", 4, 3), ("c", 8, 5), ("c", 7, 2)]
    return sym(new_egraph(list(range(9)), ["a", "b", "c"], edges), attach_hypercube=False)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_propagate_matches_the_callback_reference(data):
    # partial matchings with loops, targets with repeated values, one or
    # two seeds: forced, conflicting and unreached points all occur
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 4))
    rows = [(c, draw_matching(data, n)) for c in range(data.draw(st.integers(0, 3)))]
    targets = [data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
               for _ in rows]
    points = st.integers(0, n - 1)
    seeds = data.draw(st.lists(st.tuples(points, st.integers(0, m - 1)), min_size=1,
                               max_size=2, unique_by=lambda seed: seed[0]))
    assert propagate(n, rows, seeds, targets) == reference_propagate(
        n, rows, seeds, lambda c, v: targets[c][v])


def _forcings(monkeypatch):
    """The renamings is_group_symmetry is asked to force, as they come."""
    asked = []
    forced = acyclicity.is_group_symmetry

    def recording(group, rho):
        asked.append(tuple(group.colors.index(rho[name]) for name in group.colors))
        return forced(group, rho)

    monkeypatch.setattr(acyclicity, "is_group_symmetry", recording)
    return asked


def _agrees(group, alphas):
    expected = [(tuple(perm), index) for perm, index in reference_colour_symmetries(group, alphas)]
    assert _colour_symmetries(group, alphas) == expected
    return expected


def test_colour_symmetries_match_the_reference_on_the_corpus():
    extending = 0
    for group in corpus().values():
        k = len(group.colors)
        for alphas in (proper_subsets(k), GammaFilter(2).subsets(k)):
            extending += len(_agrees(group, alphas))
    assert extending == 46


def test_colour_symmetries_of_the_order_2592_group_force_two_renamings(monkeypatch, group_2592):
    # (0, 2, 1) and (1, 0, 2) generate the other three
    asked = _forcings(monkeypatch)
    assert len(_agrees(group_2592, proper_subsets(3))) == 5
    assert asked == [(0, 2, 1), (1, 0, 2)]


@pytest.mark.parametrize("make, kept, asked", [
    # (1, 2, 0) fails once (1, 0, 2) is found, so (2, 1, 0) = (1, 2, 0) o
    # (1, 0, 2) is not forced
    (one_transposition_group, [(1, 0, 2)], [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1)]),
    # (2, 0, 1) is the square of (1, 2, 0): composed, not forced
    (rotation_group, [(1, 2, 0), (2, 0, 1)], [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 1, 0)]),
], ids=["one-transposition", "rotations"])
def test_forced_composed_and_failing_renamings_mix(monkeypatch, make, kept, asked):
    group = make()
    alphas = proper_subsets(3)
    index = {a: i for i, a in enumerate(alphas)}
    recorded = _forcings(monkeypatch)
    expected = _agrees(group, alphas)
    assert [m for _, m in expected] == [
        [index[frozenset(rho[c] for c in a)] for a in alphas] for rho in kept]
    assert recorded == asked


def test_compatibility_verdicts_match_the_reference():
    # every corpus group and every group of a case against every template
    # of its colours, and the cover templates against their own groups, a
    # cover group built over the triangle and the hypercube of their colours
    groups = list(corpus().values()) + [group for group, _ in _cases()]
    templates = [template for _, template in _cases()]
    templates += [trivial_constraint_graph(colors) for colors in ("a", "ab", "abc")]
    # point 0 is fixed by every word, so only a later point shows a conflict
    templates += [disjoint_union([trivial_constraint_graph(colors), path_igraph("ab", colors)])
                  for colors in ("ab", "abc")]
    triangle = intersection_graph(Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]]))
    three_edges = intersection_graph(Hypergraph([0, 1, 2, 3], [[0, 1, 2], [0, 3], [1, 3]]))
    for template in (triangle, three_edges):
        templates.append(template)
        groups += [sym(template), sym(hypercube(template.colors), attach_hypercube=False)]
    groups.append(construct_n_acyclic(
        sym(triangle), SynthesisConfig(n_acyclic=2, early_exit=True), triangle)[0])
    verdicts = []
    for group in groups:
        for template in templates:
            if tuple(template.colors) == group.colors:
                verdict = is_compatible(group, template)
                assert verdict == reference_is_compatible(group, template)
                verdicts.append(verdict)
    assert (verdicts.count(True), verdicts.count(False)) == (488, 233)


def _crossed_igraph(pattern):
    """Three vertices per site of the parallel pairs pattern: e joins them
    straight, f crosses the last two, so a word fixes the first vertex of a
    site and only a later one shows a conflict."""
    straight, crossed = [(0, 3), (1, 4), (2, 5)], [(0, 3), (1, 5), (2, 4)]
    edges = [straight, [(v, u) for u, v in straight], crossed, [(v, u) for u, v in crossed]]
    return IGraph(pattern, ["s0", "s1", "s2", "t0", "t1", "t2"], [0, 0, 0, 1, 1, 1], edges)


def test_groupoid_compatibility_verdicts_match_the_reference():
    groupoids = []
    for pattern in (one_pair_pattern(), parallel_pairs_pattern()):
        hat = hat_translation(pattern)
        for group in (sym(hat.igraph, attach_hypercube=False),
                      sym(disjoint_union([hat.igraph, hypercube(hat.igraph.colors)]),
                          attach_hypercube=False)):
            groupoids.append(groupoid_from_group(group, hat))
    verdicts = []
    for gpd in groupoids:
        igraphs = [pattern_igraph(gpd.pattern)]
        igraphs += [groupoid_cayley(other) for other in groupoids
                    if other.pattern.edge_ids == gpd.pattern.edge_ids]
        if gpd.pattern.n_edges == 4:
            igraphs.append(_crossed_igraph(gpd.pattern))
        for igraph in igraphs:
            verdict = is_compatible_groupoid(gpd, igraph)
            assert verdict == reference_is_compatible_groupoid(gpd, igraph)
            verdicts.append(verdict)
    assert (verdicts.count(True), verdicts.count(False)) == (12, 2)

