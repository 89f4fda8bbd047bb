"""Template component tables served by left translation against the
partition of the whole product."""

import gc
import random
import types
from array import array

from acygroups import constraint
from acygroups.acyclicity import all_subsets, proper_subsets
from acygroups.constraint import IContext, find_i_coset_cycle, is_free_over
from acygroups.egraph import disjoint_union, new_egraph, trivial_completion
from acygroups.groups import is_compatible

from conftest import corpus, trivial_constraint_graph
from oracles import reference_comp_tables, reference_skeleton
from test_constraint import compat_group, path_igraph, weak_triangle


def _cases():
    """(group, template) pairs: the corpus under the trivial template, and
    path, triangle, looped and disconnected templates with groups compatible
    with them (a corpus group where it is, else the group of the template)."""
    cases = [(g, trivial_constraint_graph(g.colors)) for g in corpus().values()]
    templates = [
        path_igraph("a", "ab"),
        path_igraph("aba", "ab"),
        path_igraph("ab", "abc"),
        path_igraph("cab", "abc"),
        trivial_completion(path_igraph("ab", "ab")),
        disjoint_union([path_igraph("ab", "abc"), path_igraph("c", "abc")]),
        new_egraph(["u", "v", "w"], ["a", "b", "c"], [("a", "u", "v"), ("b", "v", "w")]),
    ]
    for template in templates:
        cases.append((compat_group(template), template))
        for g in corpus().values():
            if g.colors == tuple(template.colors) and is_compatible(g, template):
                cases.append((g, template))
    cases.append(weak_triangle())
    return cases


def _agrees_with_the_global_partition(group, template, alpha):
    """The template table of alpha against the partition of the whole
    product: the same blocks, each ascending, under ids r * K + the least
    local index, K = n_sites x |G[alpha]| and r the least element of the
    coset."""
    table = IContext(group, template).comp_tables(alpha)
    (ref_ids, ref_members), _ = reference_comp_tables(group, template, alpha)
    ng, n = group.order, template.n * group.order
    k = template.n * len(group.subgroup_elements(alpha))
    ids = [table[p] for p in range(n)]
    assert table.ids is table
    assert len(set(ids)) == len(ref_members)
    relabel = {}
    for p, cid in enumerate(ids):
        assert 0 <= cid < ng * k
        assert table.find(p) == cid
        assert relabel.setdefault(ref_ids[p], cid) == cid, (alpha, p)
        assert cid // k == min(group.coset(p % ng, alpha)), (alpha, p)
    assert sorted(relabel.values()) == sorted(set(ids))
    blocks = {cid: table.block(p) for p, cid in enumerate(ids)}
    assert sorted(x for block in blocks.values() for x in block) == list(range(n))
    for p in range(n):
        block = table.block(p)
        assert p in block
        assert sorted(block) == sorted(ref_members[ref_ids[p]]), (alpha, p)
    return ids, k


def test_translated_tables_match_the_global_partition():
    for group, template in _cases():
        ctx = IContext(group, template)
        for alpha in all_subsets(len(group.colors)):
            _agrees_with_the_global_partition(group, template, alpha)
            for s in range(template.n):
                got, want = ctx.skeleton(alpha, s, 0), reference_skeleton(group, template, alpha, s)
                assert got.graph.vertex_names == want.graph.vertex_names, (alpha, s)
                assert got.graph.partner == want.graph.partner, (alpha, s)
                assert (got.hom, got.elements, got.alpha, got.site) == (
                    want.hom, want.elements, want.alpha, want.site)


def test_a_proper_subset_generating_the_group_is_one_coset():
    seen = 0
    for group, template in _cases():
        for alpha in proper_subsets(len(group.colors)):
            if len(group.subgroup_elements(alpha)) == group.order:
                ids, k = _agrees_with_the_global_partition(group, template, alpha)
                assert max(ids) < k  # r = 0 for every pair
                seen += 1
    assert seen > 0


def test_template_blocks_are_ascending():
    for group, template in _cases():
        ctx = IContext(group, template)
        for alpha in all_subsets(len(group.colors)):
            table = ctx.comp_tables(alpha)
            for p in range(template.n * group.order):
                block = table.block(p)
                assert list(block) == sorted(block), (alpha, p)


def _recorded_cosets(monkeypatch):
    """The sizes of the Cosets the template tables build, in order."""
    sizes = []
    cosets = constraint.Cosets

    def recording(n, rows):
        sizes.append(n)
        return cosets(n, rows)

    monkeypatch.setattr(constraint, "Cosets", recording)
    return sizes


def test_proper_subsets_partition_only_the_pairs_over_their_subgroup(monkeypatch):
    sizes = _recorded_cosets(monkeypatch)
    template = path_igraph("cab", "abc")
    group = compat_group(template)
    alphas = proper_subsets(len(group.colors))
    bound = template.n * max(len(group.subgroup_elements(a)) for a in alphas)
    assert bound < template.n * group.order
    ctx = IContext(group, template)
    find_i_coset_cycle(group, template, 4, ctx=ctx)
    assert is_free_over(group, template, alphas=alphas, ctx=ctx)
    assert len(sizes) == len(alphas) and max(sizes) <= bound


def test_ids_do_not_depend_on_the_order_cosets_are_filled():
    rng = random.Random(8)
    for group, template in _cases():
        n = template.n * group.order
        for alpha in all_subsets(len(group.colors)):
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            table = IContext(group, template).comp_tables(alpha)
            got = {p: table[p] for p in shuffled}
            points = {}
            for p in shuffled:
                points.setdefault(got[p], p)
            cids = sorted(points)
            rng.shuffle(cids)
            blocks = {cid: table.block(points[cid]) for cid in cids}
            in_order = IContext(group, template).comp_tables(alpha)
            blocks_first = IContext(group, template).comp_tables(alpha)
            (ref_ids, ref_members), _ = reference_comp_tables(group, template, alpha)
            assert [got[p] for p in range(n)] == [in_order[p] for p in range(n)], alpha
            for p in shuffled:
                assert sorted(blocks[got[p]]) == sorted(ref_members[ref_ids[p]]), (alpha, p)
                assert blocks_first.block(p) == blocks[got[p]], (alpha, p)
            assert [blocks_first[p] for p in range(n)] == [got[p] for p in range(n)], alpha


def test_component_is_the_block_of_the_global_partition():
    for group, template in _cases():
        ctx = IContext(group, template)
        for alpha in all_subsets(len(group.colors)):
            (ref_ids, ref_members), _ = reference_comp_tables(group, template, alpha)
            for p in range(template.n * group.order):
                assert ctx.component(alpha, p) == ref_members[ref_ids[p]], (alpha, p)


def _largest_container(root):
    """Length of the largest list, tuple, dict, set or array reachable from
    root through object references, not through functions, classes or
    modules."""
    seen, stack, largest = set(), [root], 0
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, (type, types.FunctionType, types.ModuleType)):
            continue
        seen.add(id(x))
        if isinstance(x, (list, tuple, dict, set, frozenset, array)):
            largest = max(largest, len(x))
        stack.extend(gc.get_referents(x))
    return largest


def test_freeness_and_the_search_never_tabulate_the_whole_product(monkeypatch):
    sizes = _recorded_cosets(monkeypatch)
    template = path_igraph("cab", "abc")
    group = compat_group(template)
    whole = template.n * group.order
    ctx = IContext(group, template)
    assert find_i_coset_cycle(group, template, 4, ctx=ctx) is None
    assert is_free_over(group, template, ctx=ctx)
    assert max(sizes) <= template.n * max(
        len(group.subgroup_elements(a)) for a in proper_subsets(len(group.colors)))
    assert _largest_container(ctx) < whole


def test_the_bulk_id_list_reads_every_pair_as_the_table_does():
    # the cover's class check reads each vertex's ids through id_list: on a
    # fresh table, on one half read pair by pair, and for every subset up
    # to the full colour set, it lists table[p] for every pair p
    for group, template in _cases():
        n = template.n * group.order
        for alpha in all_subsets(len(group.colors)):
            want = [IContext(group, template).comp_tables(alpha)[p] for p in range(n)]
            assert list(IContext(group, template).comp_tables(alpha).id_list()) == want, alpha
            half_read = IContext(group, template).comp_tables(alpha)
            for p in range(0, n, 2):
                half_read[p]
            assert list(half_read.id_list()) == want, alpha
            assert [half_read[p] for p in range(n)] == want, alpha
