"""The coset-cycle kernel against the unrestricted reference kernel, its
deadline, and the 5-acyclicity of the order-2592 group."""

import types
from collections import Counter

import pytest

from acygroups import acyclicity
from acygroups.acyclicity import GammaFilter, find_coset_cycle
from acygroups.constraint import find_i_coset_cycle
from acygroups.egraph import biggs_tree
from acygroups.errors import ResourceCap
from acygroups.groupoid import find_groupoid_coset_cycle, groupoid_from_group, hat_translation
from acygroups.groups import sym
from acygroups.synthesis import SynthesisConfig, construct_n_acyclic

from conftest import biggs_group, corpus, hypercube_group, trivial_constraint_graph
from oracles import (
    reference_coset_cycle,
    reference_groupoid_coset_cycle,
    reference_i_coset_cycle,
    unpruned_coset_cycle,
)
from test_constraint import compat_group, path_igraph, weak_triangle
from test_groupoid import one_pair_pattern, parallel_pairs_pattern


@pytest.fixture(scope="module")
def group_2592():
    g0 = sym(biggs_tree(["a", "b", "c"], 1), attach_hypercube=False)
    group, _ = construct_n_acyclic(g0, SynthesisConfig(n_acyclic=4, early_exit=True))
    assert group.order == 2592
    return group


def _gamma_filters(n_colors):
    """(gamma, allow_full) of every size filter and the full set allowed."""
    filters = [(None, False)]
    filters += [(GammaFilter(k), False) for k in range(1, n_colors + 2)]
    filters.append((GammaFilter(n_colors + 1), True))
    return filters


def _listed_families(n_colors):
    """The families {i} and {0, i}: the groupoid and template searchers
    hand the kernel families that are not size-bounded, and it is checked
    on these two, given no symmetries."""
    return [[frozenset({i}) for i in range(n_colors)], [frozenset({0, i}) for i in range(n_colors)]]


def test_plain_kernel_matches_the_reference_on_the_corpus():
    cycles = 0
    for name, group in corpus().items():
        for n in range(2, 7):
            for gamma, allow_full in _gamma_filters(len(group.colors)):
                found = find_coset_cycle(group, n, gamma=gamma, allow_full=allow_full)
                expected = reference_coset_cycle(group, n, gamma=gamma, allow_full=allow_full)
                assert found == expected, (name, n, gamma and gamma.k, allow_full)
                cycles += found is not None
            for alphas in _listed_families(len(group.colors)):
                found = unpruned_coset_cycle(group, n, alphas=alphas)
                assert found == reference_coset_cycle(group, n, alphas=alphas), (name, n, alphas)
                cycles += found is not None
    assert cycles == 94


def test_plain_kernel_matches_the_reference_on_the_order_2592_group(group_2592):
    for gamma in (None, GammaFilter(2)):
        assert find_coset_cycle(group_2592, 4, gamma=gamma) is None
        assert reference_coset_cycle(group_2592, 4, gamma=gamma) is None


def test_template_kernel_matches_the_reference():
    cases = [weak_triangle()]
    for seq, colors in [("a", "ab"), ("ab", "ab"), ("aba", "ab"),
                        ("ab", "abc"), ("abc", "abc"), ("cab", "abc")]:
        ig = path_igraph(seq, colors)
        cases.append((compat_group(ig), ig))
    groups = [corpus()[name] for name in ("s3_three_gen", "cube_3", "six_cycle", "biggs_3_1")]
    groups += [biggs_group(["a", "b"], 1), hypercube_group(["a", "b"]), hypercube_group(["a"])]
    cases += [(group, trivial_constraint_graph(group.colors)) for group in groups]
    cycles = 0
    for group, ig in cases:
        for n in range(2, 5):
            found = find_i_coset_cycle(group, ig, n)
            assert found == reference_i_coset_cycle(group, ig, n)
            cycles += found is not None
    assert cycles == 8


def test_groupoid_kernel_matches_the_reference():
    for pattern in (one_pair_pattern(), parallel_pairs_pattern()):
        hat = hat_translation(pattern)
        gpd = groupoid_from_group(sym(hat.igraph, attach_hypercube=False), hat)
        for n in (2, 3, 4, 6, 10):
            budget = 50_000_000
            found = find_groupoid_coset_cycle(gpd, n, budget=budget)
            assert found == reference_groupoid_coset_cycle(gpd, n, budget=budget)
    assert found is not None and len(found) == 10


def test_order_2592_group_is_five_acyclic_under_the_default_budget(group_2592):
    assert find_coset_cycle(group_2592, 5) is None


@pytest.mark.parametrize("n, nodes", [(4, 25_998), (5, 451_433)])
def test_order_2592_search_node_count_pinned(group_2592, n, nodes):
    # the budget bisects to the exact node count of the exhaustive search,
    # here without the symmetry pruning
    assert unpruned_coset_cycle(group_2592, n, budget=nodes) is None
    with pytest.raises(ResourceCap, match=f"budget {nodes - 1} exceeded"):
        unpruned_coset_cycle(group_2592, n, budget=nodes - 1)


@pytest.mark.parametrize("n, nodes", [(4, 25_998), (5, 199_721), (6, 680_027)])
def test_order_2592_pruned_search_node_count_pinned(group_2592, n, nodes):
    # the group has all six renamings of a, b and c as symmetries; N = 4
    # ends below the 38,880 nodes at which the search looks for them, and
    # N = 6 finds the 6-cycle the unpruned search finds in 1,403,881 nodes
    found = find_coset_cycle(group_2592, n, budget=nodes)
    assert (found is None) == (n < 6)
    with pytest.raises(ResourceCap, match=f"budget {nodes - 1} exceeded"):
        find_coset_cycle(group_2592, n, budget=nodes - 1)
    if found is not None:
        assert found == unpruned_coset_cycle(group_2592, n)


def test_order_2592_search_met_calls_pinned(monkeypatch, group_2592):
    # the levels decided once and then counted at once build no met set:
    # 1,315 calls (2,049 when only closing levels were decided, and 23,393
    # when every candidate was walked)
    calls, met_by_ids = [], acyclicity.met_by_ids

    def met(block, tb):
        calls.append(len(block))
        return met_by_ids(block, tb)

    monkeypatch.setattr(acyclicity, "met_by_ids", met)
    assert find_coset_cycle(group_2592, 5) is None
    assert len(calls) == 1_315


def test_order_2592_search_decides_each_configuration_once(monkeypatch, group_2592):
    # at N = 5, the levels with no symmetry fixing their prefix, by the
    # entries left to add (1 at a closing level), meet fewer distinct
    # configurations, each stored once; the rest are counted at once
    made, levels, stored, extend = [], Counter(), Counter(), acyclicity._extend

    class Stores(dict):
        def __setitem__(self, key, value):
            stored[key] += 1
            super().__setitem__(key, value)

    class Recorded(acyclicity._Walk):
        def __init__(self, *args):
            super().__init__(*args)
            self.decided = Stores()
            made.append(self)

    def counted(w, m):
        if not acyclicity._fixing(w.fix[m], w.seq[m]):
            levels[w.target - 1 - m] += 1
        return extend(w, m)

    monkeypatch.setattr(acyclicity, "_Walk", Recorded)
    monkeypatch.setattr(acyclicity, "_extend", counted)
    assert find_coset_cycle(group_2592, 5) is None
    assert levels == {1: 3_437, 2: 355, 3: 28, 4: 2}
    assert Counter(key[0] for key in made[0].decided) == {1: 1_641, 2: 152, 3: 10, 4: 1}
    assert set(stored.values()) == {1}


def _clock(now):
    """A stand-in for the time module whose monotonic() reads now and
    counts its calls."""
    clock = types.SimpleNamespace(calls=0)

    def monotonic():
        clock.calls += 1
        return now

    clock.monotonic = monotonic
    return clock


@pytest.mark.parametrize("n, reads", [(4, 6), (5, 49), (6, 167)])
def test_search_reads_the_clock_every_4096_nodes(monkeypatch, group_2592, n, reads):
    # 25,998 / 199,721 / 680,027 nodes; past N = 4 one more read follows
    # the symmetries, found at 38,880 nodes
    clock = _clock(0.0)
    monkeypatch.setattr(acyclicity, "time", clock)
    assert (find_coset_cycle(group_2592, n, deadline=1.0) is None) == (n < 6)
    assert clock.calls == reads
    clock.calls = 0
    assert (find_coset_cycle(group_2592, n) is None) == (n < 6)
    assert clock.calls == 0


def test_search_past_its_deadline_stops(monkeypatch, group_2592):
    clock = _clock(2.0)
    monkeypatch.setattr(acyclicity, "time", clock)
    with pytest.raises(ResourceCap, match="timed out after 4096 nodes"):
        find_coset_cycle(group_2592, 4, deadline=1.0)
    assert clock.calls == 1


def test_stage_timeout_reaches_into_the_search(monkeypatch):
    # only the kernel sees a clock past the deadline, so the stage times out
    # inside its search and not after one of the phases synthesis checks
    monkeypatch.setattr(acyclicity, "time", _clock(float("inf")))
    g0 = sym(biggs_tree(["a", "b", "c"], 1), attach_hypercube=False)
    config = SynthesisConfig(n_acyclic=4, early_exit=True, stage_timeout=3600.0)
    try:
        construct_n_acyclic(g0, config)
    except ResourceCap as exc:
        message, partial, reports = str(exc), exc.partial, exc.stage_reports
    # the first clock read is the one after the symmetries are found, in the
    # final search of stage 0 (1036 unpruned nodes past 24 * 3 * 5)
    assert message == "coset-cycle search timed out after 360 nodes"
    assert partial.order == 24
    assert [r.order for r in reports] == [24]


def test_search_reads_the_clock_right_after_finding_the_symmetries(monkeypatch, group_2592):
    clock = _clock(0.0)
    monkeypatch.setattr(acyclicity, "time", clock)
    assert find_coset_cycle(group_2592, 5, deadline=1.0) is None
    assert clock.calls == 199_721 // 4096 + 1
    # a clock past the deadline from its tenth read on stops the search at
    # 38,880 = 2592 * 3 * 5 nodes, between the ninth and tenth multiple of 4096
    reads = iter([0.0] * 9)
    clock.monotonic = lambda: next(reads, 2.0)
    with pytest.raises(ResourceCap, match="timed out after 38880 nodes"):
        find_coset_cycle(group_2592, 5, deadline=1.0)
