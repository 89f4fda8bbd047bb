"""Freeness over a template against the pairwise reference check, and the
deadline it honours."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups import constraint
from acygroups.acyclicity import all_subsets
from acygroups.constraint import (
    IContext,
    find_freeness_violation,
    is_free_over,
    is_free_skeleton,
)
from acygroups.covering import Hypergraph, intersection_graph
from acygroups.egraph import disjoint_union, hypercube, new_egraph
from acygroups.errors import ResourceCap
from acygroups.groups import sym
from acygroups.synthesis import SynthesisConfig, construct_n_acyclic

from conftest import corpus, trivial_constraint_graph
from oracles import reference_freeness_violation, reference_is_free_skeleton
from test_constraint import compat_group, path_igraph, weak_triangle
from test_search_kernel import _clock

COLORS = ["a", "b", "c"]


def _matching_graph(data, prefix, n, colors):
    """A graph on n vertices with a random partial matching per colour."""
    names = [f"{prefix}{i}" for i in range(n)]
    edges = []
    for c in colors:
        order = data.draw(st.permutations(range(n)))
        for i in range(data.draw(st.integers(0, n // 2))):
            edges.append((c, names[order[2 * i]], names[order[2 * i + 1]]))
    return new_egraph(names, colors, edges)


def _agrees_with_the_reference(group, igraph):
    """The first violation, every subset family by size and every skeleton
    verdict at a few anchors equal the reference's; the verdict."""
    violation = find_freeness_violation(group, igraph)
    assert violation == reference_freeness_violation(group, igraph)
    for k in range(len(group.colors) + 1):
        alphas = all_subsets(len(group.colors), max_size=k)
        assert find_freeness_violation(group, igraph, alphas) == reference_freeness_violation(
            group, igraph, alphas)
    ctx, ref_ctx = IContext(group, igraph), IContext(group, igraph)
    for alpha in all_subsets(len(group.colors)):
        for s in range(igraph.n):
            for g in sorted({0, group.order // 2, group.order - 1}):
                assert is_free_skeleton(ctx, alpha, s, g) == reference_is_free_skeleton(
                    ref_ctx, alpha, s, g)
    return violation is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_freeness_matches_the_reference_on_random_templates(data):
    if data.draw(st.integers(0, 3)):
        colors = COLORS[:data.draw(st.integers(2, 3))]
        igraph = _matching_graph(data, "s", data.draw(st.integers(1, 4)), colors)
    else:
        igraph = weak_triangle()[1]  # its own group is not free over it
        colors = igraph.colors
    parts = [igraph, hypercube(colors)]
    if data.draw(st.booleans()):
        # a further component makes the group larger than the template's own
        parts.append(_matching_graph(data, "h", data.draw(st.integers(2, 3)), colors))
    group = sym(disjoint_union(parts), attach_hypercube=False)
    _agrees_with_the_reference(group, igraph)


def test_freeness_matches_the_reference_on_free_and_non_free_pairs():
    cases = [weak_triangle()]
    for seq, colors in [("a", "ab"), ("ab", "ab"), ("aba", "ab"), ("ab", "abc"), ("cab", "abc")]:
        ig = path_igraph(seq, colors)
        cases.append((compat_group(ig), ig))
    for name in ("s3_three_gen", "cube_3", "biggs_3_1"):
        group = corpus()[name]
        cases.append((group, trivial_constraint_graph(group.colors)))
    verdicts = [_agrees_with_the_reference(group, ig) for group, ig in cases]
    assert verdicts[0] is False  # the triangle template
    assert verdicts.count(True) >= 5


def test_freeness_reads_the_clock_once_per_skeleton(monkeypatch):
    ig = path_igraph("ab", "ab")
    group = compat_group(ig)
    clock = _clock(0.0)
    monkeypatch.setattr(constraint, "time", clock)
    assert is_free_over(group, ig, deadline=1.0)
    assert clock.calls == len(all_subsets(2)) * ig.n
    clock.calls = 0
    assert is_free_over(group, ig)
    assert clock.calls == 0


def test_freeness_past_its_deadline_stops(monkeypatch):
    ig = path_igraph("ab", "ab")
    group = compat_group(ig)
    clock = _clock(2.0)
    monkeypatch.setattr(constraint, "time", clock)
    with pytest.raises(ResourceCap, match=r"^freeness check timed out at subset \[\], site 0$"):
        find_freeness_violation(group, ig, deadline=1.0)
    assert clock.calls == 1


def test_stage_timeout_reaches_into_the_freeness_check(monkeypatch):
    # only the freeness check sees a clock past the deadline, so stage 0
    # times out in it, after its plain search, with no stage finished
    monkeypatch.setattr(constraint, "time", _clock(float("inf")))
    ig = path_igraph("ab", "ab")
    group = compat_group(ig)
    config = SynthesisConfig(n_acyclic=3, stage_timeout=3600.0)
    with pytest.raises(ResourceCap, match=r"^freeness check timed out at subset \[\], site 0$") as info:
        construct_n_acyclic(group, config, ig)
    assert info.value.stage_reports == []
    assert info.value.partial is group


def test_a_later_stage_keeps_the_freeness_timeout_message(monkeypatch):
    # the clock passes the deadline after the three reads of stage 0's
    # check and the three of stage 1's at the empty subset, so stage 1 times
    # out at its next skeleton and reports where, with stage 0 finished
    reads = iter([0.0] * 6)
    clock = _clock(0.0)
    clock.monotonic = lambda: next(reads, float("inf"))
    monkeypatch.setattr(constraint, "time", clock)
    ig = path_igraph("ab", "ab")
    config = SynthesisConfig(n_acyclic=3, stage_timeout=3600.0)
    with pytest.raises(ResourceCap, match=r"^freeness check timed out at subset \[0\], site 0$") as info:
        construct_n_acyclic(compat_group(ig), config, ig)
    assert [r.stage for r in info.value.stage_reports] == [0]
    assert info.value.partial.order == info.value.stage_reports[0].order


@pytest.mark.parametrize("hyperedges", [[[0, 1], [1, 2], [0, 2]], [[0, 1, 2], [0, 3], [1, 3]]],
                         ids=["triangle", "three_edges"])
def test_a_tower_decides_each_skeleton_once(monkeypatch, hyperedges):
    # the final checks reuse the stage check's verdicts over the subsets of
    # at most k colours, so no skeleton of a stage group is decided twice
    calls, groups = Counter(), []
    decide = constraint.is_free_skeleton

    def counting(ctx, alpha, s, g=0):
        groups.append(ctx.group)  # keeps each group, and so its id, alive
        calls[id(ctx.group), alpha, s] += 1
        return decide(ctx, alpha, s, g)

    monkeypatch.setattr(constraint, "is_free_skeleton", counting)
    vertices = sorted({v for he in hyperedges for v in he})
    template = intersection_graph(Hypergraph(vertices, hyperedges))
    seed = sym(disjoint_union([template, hypercube(template.colors)]), attach_hypercube=False)
    config = SynthesisConfig(n_acyclic=4, early_exit=True)
    _, reports = construct_n_acyclic(seed, config, template)
    assert [r.order for r in reports] == [24, 2592]
    assert len(calls) == 46 and set(calls.values()) == {1}
