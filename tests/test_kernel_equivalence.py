"""The coset-cycle kernel against the pairwise kernel it replaced: the same
witness, verdict and node count on every query, the same budget edge, and
each adapter's ``met`` hook against the pairwise separation test."""

import random

import pytest

from acygroups import acyclicity
from acygroups.acyclicity import (
    all_subsets,
    find_coset_cycle,
    met_by_ids,
    proper_subsets,
    search_coset_cycle,
)
from acygroups.constraint import IContext, find_i_coset_cycle
from acygroups.egraph import disjoint_union, hypercube
from acygroups.errors import ResourceCap
from acygroups.groupoid import (
    construct_n_acyclic_groupoid,
    find_groupoid_coset_cycle,
    groupoid_from_group,
    hat_translation,
    inverse_closed_proper_subsets,
    pattern_igraph,
)
from acygroups.groups import sym
from acygroups.synthesis import SynthesisConfig

from conftest import corpus
from oracles import (
    pairwise_coset_cycle,
    pairwise_groupoid_coset_cycle,
    pairwise_i_coset_cycle,
    pairwise_search_coset_cycle,
    pairwise_separated_by_ids,
    pairwise_template_separated,
    template_search_tables,
)
from test_comp_tables import _cases
from test_groupoid import one_pair_pattern, parallel_pairs_pattern
from test_search_kernel import _gamma_filters, group_2592  # noqa: F401  (fixture)


@pytest.fixture
def walks(monkeypatch):
    """Every walk the kernel makes, kept to read its node count."""
    made = []

    class Recorded(acyclicity._Walk):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(acyclicity, "_Walk", Recorded)
    return made


def _agrees(walks, search, reference, budget=None):
    """search(budget) and the pairwise reference find the same witness in
    the same number of nodes, and exactly that many nodes is the least
    budget the search completes under.  Returns the witness."""
    expected, nodes = reference(budget)
    walks.clear()
    assert search(budget) == expected
    assert [w.nodes for w in walks] == [nodes]
    if nodes > 1:
        assert search(nodes) == expected
        with pytest.raises(ResourceCap, match=f"budget {nodes - 1} exceeded"):
            search(nodes - 1)
    return expected


def test_plain_kernel_matches_the_pairwise_kernel_on_the_corpus(walks):
    cycles = 0
    for group in corpus().values():
        for n in range(2, 7):
            for gamma, full in _gamma_filters(len(group.colors)):
                cycles += _agrees(
                    walks,
                    lambda b: find_coset_cycle(group, n, gamma=gamma, allow_full=full, budget=b),
                    lambda b: pairwise_coset_cycle(group, n, gamma=gamma, allow_full=full,
                                                   budget=b),
                ) is not None
    assert cycles == 94


def test_plain_kernel_matches_the_pairwise_kernel_on_the_order_2592_group(walks, group_2592):
    assert _agrees(
        walks,
        lambda b: find_coset_cycle(group_2592, 4, budget=b),
        lambda b: pairwise_coset_cycle(group_2592, 4, budget=b),
    ) is None


def test_template_kernel_matches_the_pairwise_kernel(walks):
    cycles = 0
    for group, template in _cases():
        for n in range(2, 6):
            cycles += _agrees(
                walks,
                lambda b: find_i_coset_cycle(group, template, n, budget=b),
                lambda b: pairwise_i_coset_cycle(group, template, n, budget=b),
            ) is not None
    assert cycles == 13


def _test_groupoids():
    """(groupoid, lengths) of the groupoid queries made across the tests."""
    out = []
    for pattern in (one_pair_pattern(), parallel_pairs_pattern()):
        hat = hat_translation(pattern)
        bare = sym(hat.igraph, attach_hypercube=False)
        out.append((groupoid_from_group(bare, pattern, hat=hat), (2, 3, 4, 6, 10)))
    hat = hat_translation(one_pair_pattern())
    cubed = sym(disjoint_union([hat.igraph, hypercube(hat.igraph.colors)]), attach_hypercube=False)
    out.append((groupoid_from_group(cubed, one_pair_pattern(), hat=hat), (2, 4, 6)))
    res = construct_n_acyclic_groupoid(
        one_pair_pattern(), pattern_igraph(one_pair_pattern()), 2,
        SynthesisConfig(n_acyclic=2, early_exit=True),
    )
    out.append((res.groupoid, (2,)))
    return out


def test_groupoid_kernel_matches_the_pairwise_kernel(walks):
    lengths = []
    for gpd, ns in _test_groupoids():
        for n in ns:
            found = _agrees(
                walks,
                lambda b: find_groupoid_coset_cycle(gpd, n, budget=b),
                lambda b: pairwise_groupoid_coset_cycle(gpd, n, budget=b),
                budget=50_000_000,
            )
            lengths.append(found and len(found))
    assert 10 in lengths


def _random_partition(rng, n_points):
    """(ids, members) of a random partition of 0..n_points-1, blocks
    ascending and numbered by their least point."""
    labels = [rng.randrange(rng.randint(1, n_points)) for _ in range(n_points)]
    blocks = {}
    for x, label in enumerate(labels):
        blocks.setdefault(label, []).append(x)
    members = sorted(map(tuple, blocks.values()))
    ids = [0] * n_points
    for cid, block in enumerate(members):
        for x in block:
            ids[x] = cid
    return ids, members


def test_kernels_agree_on_random_partitions(walks):
    # the kernel asks nothing of its tables but that they partition the
    # points, so unrelated random partitions reach checks that the
    # coset tables of groups never decide, such as separation at entry 0
    rng = random.Random(9)
    cycles = 0
    for _ in range(150):
        n_points, n_colors = rng.randint(2, 9), rng.randint(1, 3)
        subsets = all_subsets(n_colors)
        table = {a: _random_partition(rng, n_points) for a in subsets}.__getitem__
        alphas = [a for a in subsets if rng.random() < 0.7] or subsets
        anchors = sorted(rng.sample(range(n_points), rng.randint(1, 2)))
        for n in range(2, 6):
            cycles += _agrees(
                walks,
                lambda b: search_coset_cycle(alphas, anchors, n, table, met_by_ids, b),
                lambda b: pairwise_search_coset_cycle(alphas, anchors, n, table,
                                                      pairwise_separated_by_ids, b),
            ) is not None
    assert cycles > 0


def _met_matches_separation(ta, tb, met, separated):
    """For every component X of ta and Y of tb: Y's id is in met(X, tb)
    exactly when the pairwise test finds X and Y not separated."""
    (ids_a, members_a), (ids_b, members_b) = ta, tb
    for cid_a in range(len(members_a)):
        block = members_a[cid_a]
        hit = met(block, tb)
        assert hit <= set(range(len(members_b)))
        for cid_b in range(len(members_b)):
            p, q = block[0], members_b[cid_b][0]
            assert ids_a[p] == cid_a and ids_b[q] == cid_b
            assert (cid_b in hit) == (not separated(p, ta, q, tb)), (cid_a, cid_b)


def test_group_met_matches_the_pairwise_separation():
    for group in corpus().values():
        subsets = all_subsets(len(group.colors))
        for a in subsets:
            for b in subsets:
                _met_matches_separation(group.coset_table(a), group.coset_table(b),
                                        met_by_ids, pairwise_separated_by_ids)


def test_template_met_matches_the_pairwise_separation():
    small = [(g, t) for g, t in _cases() if t.n * g.order <= 100]
    assert len(small) == 27
    for group, template in small:
        ctx = IContext(group, template)
        table = template_search_tables(ctx)
        separated = pairwise_template_separated(group.order)
        subsets = proper_subsets(len(group.colors))
        for a in subsets:
            for b in subsets:
                _met_matches_separation(table(a), table(b), ctx.met, separated)


def test_groupoid_met_matches_the_pairwise_separation():
    for gpd, _ in _test_groupoids():
        subsets = inverse_closed_proper_subsets(gpd.pattern)
        for a in subsets:
            for b in subsets:
                _met_matches_separation(gpd.subset_closures(a), gpd.subset_closures(b),
                                        met_by_ids, pairwise_separated_by_ids)
