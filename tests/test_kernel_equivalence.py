"""The coset-cycle kernel against the pairwise kernel it replaced: the same
witness, verdict and node count on every query, the same budget edge, and
``met_by_ids`` against the pairwise separation test on the tables of each
searcher."""

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups import acyclicity
from acygroups.acyclicity import (
    all_subsets,
    find_coset_cycle,
    met_by_ids,
    proper_subsets,
    search_coset_cycle,
)
from acygroups.constraint import IContext, find_i_coset_cycle
from acygroups.egraph import disjoint_union, hypercube, new_egraph
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
    unpruned_coset_cycle,
)
from test_comp_tables import _cases
from test_groupoid import one_pair_pattern, parallel_pairs_pattern
from test_search_kernel import _gamma_filters, _listed_families, group_2592  # noqa: F401  (fixture)


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
    # the kernel given no symmetries; the symmetry pruning only drops nodes
    cycles = 0
    for group in corpus().values():
        for n in range(2, 7):
            queries = [{"gamma": gamma, "allow_full": full}
                       for gamma, full in _gamma_filters(len(group.colors))]
            queries += [{"alphas": alphas} for alphas in _listed_families(len(group.colors))]
            for query in queries:
                cycles += _agrees(
                    walks,
                    lambda b: unpruned_coset_cycle(group, n, budget=b, **query),
                    lambda b: pairwise_coset_cycle(group, n, budget=b, **query),
                ) is not None
    assert cycles == 94


def test_plain_kernel_matches_the_pairwise_kernel_on_the_order_2592_group(walks, group_2592):
    # 25,998 nodes, below the 2592 * 3 * 5 at which the search looks for
    # colour symmetries, so the pruned search walks as the kernel does
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


def triangle_template():
    """The triangle template on sites h0, h1, h2, one colour per side, and
    the group of its hypercube completion (order 24)."""
    template = new_egraph(["h0", "h1", "h2"], ["a", "b", "c"],
                          [("a", "h0", "h1"), ("b", "h0", "h2"), ("c", "h1", "h2")])
    return sym(template), template


def test_template_kernel_matches_the_pairwise_kernel_from_every_anchor(walks):
    # the 3-cycle starts at site h1, so the searches from h0 and h1 close
    # against the components of different anchors; a closing level that
    # took h0's components for h1's would count that level in bulk and
    # miss the cycle
    group, template = triangle_template()
    found = [
        _agrees(
            walks,
            lambda b: find_i_coset_cycle(group, template, n, budget=b),
            lambda b: pairwise_i_coset_cycle(group, template, n, budget=b),
        )
        for n in range(2, 5)
    ]
    assert found[0] is None
    assert len(found[1]) == 3 and found[1][0][1] == 1


def _test_groupoids():
    """(groupoid, lengths) of the groupoid queries made across the tests."""
    out = []
    for pattern in (one_pair_pattern(), parallel_pairs_pattern()):
        hat = hat_translation(pattern)
        bare = sym(hat.igraph, attach_hypercube=False)
        out.append((groupoid_from_group(bare, hat), (2, 3, 4, 6, 10)))
    hat = hat_translation(one_pair_pattern())
    cubed = sym(disjoint_union([hat.igraph, hypercube(hat.igraph.colors)]), attach_hypercube=False)
    out.append((groupoid_from_group(cubed, hat), (2, 4, 6)))
    res = construct_n_acyclic_groupoid(
        one_pair_pattern(), pattern_igraph(one_pair_pattern()),
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


def _budget_queries(kind, group_2592):
    """(search, reference) pairs of one searcher, each called with a budget:
    the library's witness, and the pairwise kernel's (witness, nodes)."""
    if kind == "plain":
        queries = [(partial(unpruned_coset_cycle, group, n),
                    partial(pairwise_coset_cycle, group, n))
                   for group in corpus().values() for n in (3, 6)]
        # 25,998 nodes: its closing levels cross multiples of 4096
        queries.append((partial(find_coset_cycle, group_2592, 4),
                        partial(pairwise_coset_cycle, group_2592, 4)))
    elif kind == "template":
        queries = [(partial(find_i_coset_cycle, group, template, n),
                    partial(pairwise_i_coset_cycle, group, template, n))
                   for group, template in (*_cases(), triangle_template()) for n in (3, 5)]
    else:
        queries = [(partial(find_groupoid_coset_cycle, gpd, n),
                    partial(pairwise_groupoid_coset_cycle, gpd, n))
                   for gpd, ns in _test_groupoids() for n in ns]
    return queries


@pytest.mark.parametrize("kind", ["plain", "template", "groupoid"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_raises_at_the_pairwise_kernels_budgets(group_2592, kind, data):
    # the kernel counts a closing level in bulk only when the count stays
    # within the budget, so any budget up to the full node count must stop
    # both kernels alike, or let both find the same witness
    queries = _budget_queries(kind, group_2592)
    search, reference = queries[data.draw(st.integers(0, len(queries) - 1))]
    budget = data.draw(st.integers(1, max(reference(budget=None)[1], 1)))
    try:
        expected = reference(budget=budget)[0]
    except ResourceCap:
        with pytest.raises(ResourceCap, match=f"budget {budget} exceeded"):
            search(budget=budget)
    else:
        assert search(budget=budget) == expected


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
                lambda b: search_coset_cycle(alphas, anchors, n, lambda a: tables[a][0], b),
                lambda b: pairwise_search_coset_cycle(alphas, anchors, n,
                                                      lambda a: tables[a][1],
                                                      pairwise_separated_by_ids, b),
            ) is not None
    assert cycles > 0


def test_closing_decisions_are_kept_per_anchor(walks):
    # a closing configuration that anchor 6's walk decides cannot close
    # meets anchor 7's walk too, where a candidate lies in 7's anchor set
    # and closes the 4-cycle; a decision shared across anchors misses it
    rows = {(): [0, 4, 7, 6, 1, 2, 3, 5], (0,): [3, 7, 2, 4, 0, 5, 1, 6],
            (1,): [1, 5, 2, 7, 3, 0, 6, 4], (0, 1): [5, 1, 3, 0, 4, 2, 7, 6]}
    tables = {frozenset(a): (Cosets(8, [row]), reference_cosets(8, [row]))
              for a, row in rows.items()}
    alphas = all_subsets(2)
    found = _agrees(
        walks,
        lambda b: search_coset_cycle(alphas, [6, 7], 4, lambda a: tables[a][0], b),
        lambda b: pairwise_search_coset_cycle(alphas, [6, 7], 4, lambda a: tables[a][1],
                                              pairwise_separated_by_ids, b),
    )
    assert found == [(frozenset({0}), 7), (frozenset({1}), 1), (frozenset({0}), 0),
                     (frozenset({1}), 3)]


def _met_matches_separation(tb, ra, rb, separated, within=None):
    """For every component X of ra and Y of rb, those in one component of
    the table within when it is given: Y's id is in met_by_ids(X, tb)
    exactly when the pairwise test finds X and Y not separated.  ra and rb
    hold every id; tb is the table met_by_ids reads, with rb's ids.
    Returns the number of pairs compared."""
    compared = 0
    for cid_a in sorted(set(ra.ids)):
        block = ra.members[cid_a]
        hit = met_by_ids(block, tb)
        assert hit <= set(rb.ids)
        for cid_b in sorted(set(rb.ids)):
            p, q = block[0], rb.members[cid_b][0]
            assert ra.ids[p] == cid_a and rb.ids[q] == cid_b
            if within is not None and within.ids[p] != within.ids[q]:
                continue
            assert (cid_b in hit) == (not separated(p, ra, q, rb)), (cid_a, cid_b)
            compared += 1
    return compared


def test_group_met_matches_the_pairwise_separation():
    for group in corpus().values():
        subsets = all_subsets(len(group.colors))
        reference = reference_group_tables(group)
        for a in subsets:
            for b in subsets:
                # a table of b with nothing walked, so met walks what it reads
                tb = Cosets(group.order, [group.gen_action[c] for c in sorted(b)])
                _met_matches_separation(tb, reference(a), reference(b), pairwise_separated_by_ids)
                assert tb.ids == list(reference(b).ids)


def test_template_met_matches_the_pairwise_separation():
    # the kernel compares two components only inside one component of the
    # product, where pairs and elements correspond one to one; across
    # components, sharing an element need not be sharing a pair
    small = [(g, t) for g, t in _cases() if t.n * g.order <= 100]
    assert len(small) == 27
    compared = 0
    for group, template in small:
        ctx = IContext(group, template)
        table = template_search_tables(ctx)
        full = table(frozenset(range(len(group.colors))))
        separated = pairwise_template_separated(group.order)
        subsets = proper_subsets(len(group.colors))
        for a in subsets:
            for b in subsets:
                compared += _met_matches_separation(ctx.comp_tables(b), table(a), table(b),
                                                    separated, within=full)
    assert compared == 33_304


def test_no_product_component_holds_two_pairs_over_one_element():
    # the lemma of validate_i_coset_cycle, on every subset of every case
    for group, template in _cases():
        ctx = IContext(group, template)
        for a in all_subsets(len(group.colors)):
            table = ctx.comp_tables(a)
            for cid, p in {table[p]: p for p in range(template.n * group.order)}.items():
                block = table.block(p)
                assert len({x % group.order for x in block}) == len(block), (a, cid)


def test_groupoid_met_matches_the_pairwise_separation():
    for gpd, _ in _test_groupoids():
        subsets = inverse_closed_proper_subsets(gpd.pattern)
        reference = reference_groupoid_tables(gpd)
        for a in subsets:
            for b in subsets:
                tb = Cosets(gpd.order, [gpd.rmul[e] for e in sorted(b)])
                _met_matches_separation(tb, reference(a), reference(b), pairwise_separated_by_ids)
                assert tb.ids == list(reference(b).ids)
