"""Template component tables served by left translation against the
partition of the whole product."""

import gc
import random
import types
from array import array

from acygroups import constraint
from acygroups.acyclicity import all_subsets, proper_subsets
from acygroups.constraint import IContext, find_i_coset_cycle, is_free_over, trivial_constraint_graph
from acygroups.egraph import disjoint_union, new_egraph, trivial_completion
from acygroups.groups import is_compatible

from conftest import corpus
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


def test_translated_tables_match_the_global_partition():
    for group, template in _cases():
        ctx = IContext(group, template)
        ng = group.order
        for alpha in all_subsets(len(group.colors)):
            ids, members = ctx.comp_tables(alpha)
            (ref_ids, ref_members), _ = reference_comp_tables(group, template, alpha)
            # ids are r * L + local id for the least element r of the coset:
            # the reference blocks, relabelled, with L local ids per coset
            one_coset = len(group.subgroup_elements(alpha)) == ng
            n_local = len(members) if one_coset else len(members) // ng
            assert len(set(ids)) == len(ref_members)
            relabel = {}
            for p in range(template.n * ng):
                cid = ids[p]
                assert 0 <= cid < len(members)
                assert relabel.setdefault(ref_ids[p], cid) == cid, (alpha, p)
                assert cid // n_local == min(group.coset(p % ng, alpha)), (alpha, p)
            assert sorted(relabel.values()) == sorted(set(ids))
            assert sorted(x for cid in set(ids) for x in members[cid]) == list(
                range(template.n * ng))
            for p in range(template.n * ng):
                block = members[ids[p]]
                assert p in block
                assert sorted(block) == sorted(ref_members[ref_ids[p]]), (alpha, p)
            for s in range(template.n):
                got, want = ctx.skeleton(alpha, s, 0), reference_skeleton(group, template, alpha, s)
                assert got.graph.vertex_names == want.graph.vertex_names, (alpha, s)
                assert got.graph.partner == want.graph.partner, (alpha, s)
                assert (got.hom, got.elements, got.alpha, got.site) == (
                    want.hom, want.elements, want.alpha, want.site)


def test_proper_subsets_partition_only_the_pairs_over_their_subgroup(monkeypatch):
    sizes = []
    partition = constraint.partition

    def recording(n, rows):
        sizes.append(n)
        return partition(n, rows)

    monkeypatch.setattr(constraint, "partition", recording)
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
            ids, members = IContext(group, template).comp_tables(alpha)
            got = {p: ids[p] for p in shuffled}
            cids = sorted(set(got.values()))
            rng.shuffle(cids)
            blocks = {cid: members[cid] for cid in cids}
            in_order, _ = IContext(group, template).comp_tables(alpha)
            (ref_ids, ref_members), _ = reference_comp_tables(group, template, alpha)
            assert [got[p] for p in range(n)] == list(in_order), alpha
            for p in shuffled:
                assert sorted(blocks[got[p]]) == sorted(ref_members[ref_ids[p]]), (alpha, p)


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
    sizes = []
    partition = constraint.partition

    def recording(n, rows):
        sizes.append(n)
        return partition(n, rows)

    monkeypatch.setattr(constraint, "partition", recording)
    template = path_igraph("cab", "abc")
    group = compat_group(template)
    whole = template.n * group.order
    ctx = IContext(group, template)
    assert find_i_coset_cycle(group, template, 4, ctx=ctx) is None
    assert is_free_over(group, template, ctx=ctx)
    assert max(sizes) <= template.n * max(
        len(group.subgroup_elements(a)) for a in proper_subsets(len(group.colors)))
    assert _largest_container(ctx) < whole
