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
from acygroups.traverse import Cosets

from conftest import corpus
from oracles import (
    pairwise_coset_cycle,
    pairwise_groupoid_coset_cycle,
    pairwise_i_coset_cycle,
    pairwise_search_coset_cycle,
    pairwise_separated_by_ids,
    pairwise_template_separated,
    reference_cosets,
    reference_group_tables,
    reference_groupoid_tables,
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
    """A random partition of 0..n_points-1 as one successor row that cycles
    through each block: the lazy table the kernel walks, and the reference
    table of the same blocks partitioned at once."""
    labels = [rng.randrange(rng.randint(1, n_points)) for _ in range(n_points)]
    blocks = {}
    for x, label in enumerate(labels):
        blocks.setdefault(label, []).append(x)
    row = [0] * n_points
    for block in blocks.values():
        rng.shuffle(block)
        for x, y in zip(block, block[1:] + block[:1]):
            row[x] = y
    return Cosets(n_points, [row]), reference_cosets(n_points, [row])


def test_kernels_agree_on_random_partitions(walks):
    # the kernel asks nothing of its tables but that they partition the
    # points, so unrelated random partitions reach checks that the
    # coset tables of groups never decide, such as separation at entry 0
    rng = random.Random(9)
    cycles = 0
    for _ in range(150):
        n_points, n_colors = rng.randint(2, 9), rng.randint(1, 3)
        subsets = all_subsets(n_colors)
        tables = {a: _random_partition(rng, n_points) for a in subsets}
        alphas = [a for a in subsets if rng.random() < 0.7] or subsets
        anchors = sorted(rng.sample(range(n_points), rng.randint(1, 2)))
        for n in range(2, 6):
            cycles += _agrees(
                walks,
                lambda b: search_coset_cycle(alphas, anchors, n, lambda a: tables[a][0],
                                             met_by_ids, b),
                lambda b: pairwise_search_coset_cycle(alphas, anchors, n,
                                                      lambda a: tables[a][1],
                                                      pairwise_separated_by_ids, b),
            ) is not None
    assert cycles > 0


def _met_matches_separation(tb, ra, rb, met, separated):
    """For every component X of ra and Y of rb: Y's id is in met(X, tb)
    exactly when the pairwise test finds X and Y not separated.  ra and rb
    hold every id; tb is the table met reads, with rb's ids."""
    for cid_a in sorted(set(ra.ids)):
        block = ra.members[cid_a]
        hit = met(block, tb)
        assert hit <= set(rb.ids)
        for cid_b in sorted(set(rb.ids)):
            p, q = block[0], rb.members[cid_b][0]
            assert ra.ids[p] == cid_a and rb.ids[q] == cid_b
            assert (cid_b in hit) == (not separated(p, ra, q, rb)), (cid_a, cid_b)


def test_group_met_matches_the_pairwise_separation():
    for group in corpus().values():
        subsets = all_subsets(len(group.colors))
        reference = reference_group_tables(group)
        for a in subsets:
            for b in subsets:
                # a table of b with nothing walked, so met walks what it reads
                tb = Cosets(group.order, [group.gen_action[c] for c in sorted(b)])
                _met_matches_separation(tb, reference(a), reference(b),
                                        met_by_ids, pairwise_separated_by_ids)
                assert tb.ids == list(reference(b).ids)


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
                _met_matches_separation(ctx.comp_tables(b), table(a), table(b), ctx.met,
                                        separated)


def test_groupoid_met_matches_the_pairwise_separation():
    for gpd, _ in _test_groupoids():
        subsets = inverse_closed_proper_subsets(gpd.pattern)
        reference = reference_groupoid_tables(gpd)
        for a in subsets:
            for b in subsets:
                tb = Cosets(gpd.order, [gpd.rmul[e] for e in sorted(b)])
                _met_matches_separation(tb, reference(a), reference(b),
                                        met_by_ids, pairwise_separated_by_ids)
                assert tb.ids == list(reference(b).ids)
