"""The coset-cycle search skips branches that a colour symmetry maps to
earlier ones: the same witness as the reference search, never more nodes
than the kernel given no symmetries, and exactly as many below the node
count at which the symmetries are looked for."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups import acyclicity
from acygroups.acyclicity import GammaFilter, find_coset_cycle, proper_subsets
from acygroups.groups import EGroup, sym

from conftest import corpus, path_graph
from oracles import reference_coset_cycle, unpruned_coset_cycle
from test_search_kernel import _gamma_filters

GROUPS = corpus()


def relabel(group, perm):
    """group with its colours reordered: colour c of the result is colour
    perm[c] of group, with the same elements."""
    return EGroup([group.colors[c] for c in perm], [group.gen_action[c] for c in perm], group.order)


def _after(group):
    k = len(group.colors)
    return group.order * k * (math.factorial(k) - 1)


def _nodes(search, *args, **kwargs):
    """(result, nodes) of one search, read off the walk it makes."""
    made = []

    class Recorded(acyclicity._Walk):
        def __init__(self, *walk_args):
            super().__init__(*walk_args)
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(acyclicity, "_Walk", Recorded)
        found = search(*args, **kwargs)
    return found, made[0].nodes


@st.composite
def queries(draw):
    name = draw(st.sampled_from(sorted(GROUPS)))
    group = GROUPS[name]
    perm = draw(st.permutations(range(len(group.colors))))
    gamma, full = draw(st.sampled_from(_gamma_filters(len(group.colors))))
    return relabel(group, perm), draw(st.integers(2, 6)), gamma, full


@settings(max_examples=300, deadline=None)
@given(queries())
def test_pruned_search_keeps_the_witness_in_no_more_nodes(query):
    group, n, gamma, full = query
    found, nodes = _nodes(find_coset_cycle, group, n, gamma=gamma, allow_full=full)
    expected, unpruned = _nodes(unpruned_coset_cycle, group, n, gamma=gamma, allow_full=full)
    assert found == expected == reference_coset_cycle(group, n, gamma=gamma, allow_full=full)
    assert nodes <= unpruned
    if unpruned < _after(group):
        assert nodes == unpruned


def test_pruning_drops_nodes_on_the_symmetric_corpus():
    dropped = 0
    for group in GROUPS.values():
        for gamma, full in _gamma_filters(len(group.colors)):
            pruned = _nodes(find_coset_cycle, group, 6, gamma=gamma, allow_full=full)[1]
            dropped += _nodes(unpruned_coset_cycle, group, 6, gamma=gamma, allow_full=full)[1] > pruned
    assert dropped > 0


def test_symmetries_map_the_family_onto_itself():
    group = GROUPS["biggs_3_1"]
    assert len(acyclicity._colour_symmetries(group, proper_subsets(3))) == 5
    assert len(acyclicity._colour_symmetries(group, GammaFilter(2).subsets(3))) == 5
    for perm, images in acyclicity._colour_symmetries(group, proper_subsets(3)):
        assert perm[0] == 0 and sorted(perm) == list(range(group.order))
        assert sorted(images) == list(range(len(proper_subsets(3))))


def test_a_group_without_symmetries_keeps_its_counts():
    # the path a-b-a-c has no renaming of colours as a symmetry; its N = 4
    # search looks for them at 120 * 3 * 5 = 1800 nodes and finds none
    group = sym(path_graph("abac"), attach_hypercube=False)
    assert acyclicity._colour_symmetries(group, proper_subsets(3)) == []
    found, nodes = _nodes(find_coset_cycle, group, 4)
    assert (found, nodes) == _nodes(unpruned_coset_cycle, group, 4)
    assert nodes == 2159 > _after(group) == 1800
