import pytest

from acygroups.acyclicity import find_coset_cycle, is_two_acyclic, proper_subsets
from acygroups.canon import canonical_form, isomorphic
from acygroups.constraint import (
    IContext,
    Skeleton,
    SkeletonFailure,
    ce_cluster_property,
    direct_product,
    find_i_coset_cycle,
    i_component,
    is_free_over,
    is_free_skeleton,
    is_n_acyclic_over,
    is_skeleton,
    minimal_tag_support,
    small_coset_amalgam,
    trivial_constraint_graph,
    validate_i_coset_cycle,
)
from acygroups.egraph import disjoint_union, hypercube, new_egraph, trivial_completion, walk_target
from acygroups.errors import CompatibilityRequired, ResourceCap
from acygroups.groups import cayley_graph, sym

from conftest import biggs_group, corpus, hypercube_group


def path_igraph(colors_seq, all_colors):
    n = len(colors_seq) + 1
    return new_egraph(
        [f"s{i}" for i in range(n)],
        sorted(all_colors),
        [(c, f"s{i}", f"s{i+1}") for i, c in enumerate(colors_seq)],
    )


def compat_group(igraph):
    return sym(disjoint_union([igraph, hypercube(igraph.colors)]), attach_hypercube=False)


def test_trivial_template_product_is_cayley_graph():
    g = biggs_group(["a", "b"], 1)
    trivial = trivial_constraint_graph(g.colors)
    prod = direct_product(trivial, cayley_graph(g))
    assert isomorphic(prod, cayley_graph(g).graph)


def test_product_of_single_edge_with_z2():
    ig = new_egraph(["s", "t"], ["a"], [("a", "s", "t")])
    z2 = hypercube_group(["a"])
    prod = direct_product(ig, cayley_graph(z2))
    assert prod.n == 4
    assert len(prod.all_edges()) == 2


def test_product_requires_compatibility():
    # the 4-group is not compatible with a six-cycle template
    from conftest import cycle_graph

    h2 = hypercube_group(["a", "b"])
    with pytest.raises(CompatibilityRequired):
        direct_product(cycle_graph(6), cayley_graph(h2))


def test_component_projection_injectivity():
    ig = path_igraph("ab", "ab")
    g = compat_group(ig)
    ctx = IContext(g, ig)
    full = frozenset(range(len(g.colors)))
    table = ctx.comp_tables(full)
    blocks = {table.find(p): table.block(p) for p in range(ig.n * g.order)}
    for block in blocks.values():
        seen = {}
        for x in block:
            s, elem = ctx.unpair(x)
            assert seen.setdefault(elem, s) == s


def test_i_component_with_loops_equals_plain_coset():
    g = biggs_group(["a", "b"], 1)
    trivial = trivial_constraint_graph(g.colors)
    for alpha in proper_subsets(2) + [frozenset({0, 1})]:
        for x in range(g.order):
            elems, _ = i_component(g, trivial, alpha, 0, x)
            assert elems == g.coset(x, alpha)


def test_i_component_respects_template():
    ig = new_egraph(["s", "t"], ["a", "b"], [("a", "s", "t")])
    g = compat_group(ig)
    ctx = IContext(g, ig)
    pa = g.gen_action[0][0]
    elems, edges = i_component(g, ig, frozenset({0, 1}), 0, 0, ctx=ctx)
    assert elems == tuple(sorted((0, pa)))
    assert i_component(g, ig, frozenset(), 0, 3, ctx=ctx)[0] == (3,)


def test_walk_lift_uniqueness():
    ig = path_igraph("ab", "ab")
    g = compat_group(ig)
    bar = trivial_completion(ig)
    for word in [(0,), (0, 1), (0, 1, 1), (0, 1, 1, 0)]:
        t = walk_target(bar, 0, word)
        # direct lift: apply the word in the group; product view must agree
        lifted = g.evaluate(word)
        ctx = IContext(g, ig)
        block = ctx.comp_tables(frozenset({0, 1})).block(ctx.pair(0, 0))
        assert ctx.pair(t, lifted) in block


def test_find_i_coset_cycle_specialises_to_plain():
    for group in [biggs_group(["a", "b"], 1), hypercube_group(["a", "b"])]:
        trivial = trivial_constraint_graph(group.colors)
        for n in (2, 4, 6):
            plain = find_coset_cycle(group, n)
            overi = find_i_coset_cycle(group, trivial, n)
            assert (plain is None) == (overi is None)
            if plain is not None:
                assert len(plain.entries) == len(overi)


def test_z2_has_no_template_cycles():
    z2 = hypercube_group(["a"])
    trivial = trivial_constraint_graph(z2.colors)
    assert find_i_coset_cycle(z2, trivial, 6) is None


def test_two_acyclicity_over_template_characterisation():
    ig = path_igraph("ab", "ab")
    g = compat_group(ig)
    ctx = IContext(g, ig)
    no_two_cycle = find_i_coset_cycle(g, ig, 2, ctx=ctx) is None
    condition = True
    for s in range(ig.n):
        for a1 in proper_subsets(2):
            for a2 in proper_subsets(2):
                lhs = set(ctx.i_coset(a1, s, 0)) & set(ctx.i_coset(a2, s, 0))
                rhs = set(ctx.i_coset(a1 & a2, s, 0))
                if lhs != rhs:
                    condition = False
    assert condition == no_two_cycle


def test_is_skeleton_on_template_component():
    ig = path_igraph("ab", "ab")
    from acygroups.egraph import alpha_component

    comp, emb = alpha_component(ig, [0], 0)
    res = is_skeleton(comp, ig, frozenset({0}), 0)
    assert isinstance(res, Skeleton)
    assert res.hom == tuple(emb)


def test_is_skeleton_accepts_embedded_component():
    ig = path_igraph("ab", "ab")
    g = compat_group(ig)
    ctx = IContext(g, ig)
    skel = ctx.skeleton(frozenset({0, 1}), 0)
    res = is_skeleton(skel.graph, ig, frozenset({0, 1}), 0)
    assert isinstance(res, Skeleton)


def test_is_skeleton_rejects_bad_host():
    ig = path_igraph("ab", "ab")
    host = new_egraph([0, 1], ["a", "b"], [("b", 0, 1)])  # b-edge from the a-site
    res = is_skeleton(host, ig, frozenset({0}), 0)
    assert isinstance(res, SkeletonFailure)


def test_lifting_property_failure_detected():
    ig = path_igraph("ab", "ab")
    # one bare vertex mapping onto s1, which carries edges in the component
    host = new_egraph([0], ["a", "b"], [])
    res = is_skeleton(host, ig, frozenset({0, 1}), 1)
    assert isinstance(res, SkeletonFailure)


def test_freeness_trivial_template():
    for group in [hypercube_group(["a", "b"]), hypercube_group(["a", "b", "c"])]:
        trivial = trivial_constraint_graph(group.colors)
        assert is_free_over(group, trivial)


def test_freeness_path_template():
    ig = path_igraph("ab", "ab")
    g = compat_group(ig)
    assert is_free_over(g, ig)


def test_free_skeleton_spot_check_translates_agree():
    ig = path_igraph("ab", "ab")
    g = compat_group(ig)
    ctx = IContext(g, ig)
    alpha = frozenset({0, 1})
    base = is_free_skeleton(ctx, alpha, 0, 0)
    for h in (1, 3, g.order - 1):
        assert is_free_skeleton(ctx, alpha, 0, h) == base


def test_small_coset_amalgam_singleton_alpha():
    ig = path_igraph("ab", "ab")
    g = compat_group(ig)
    ctx = IContext(g, ig)
    skel = ctx.skeleton(frozenset({0}), 0)
    ce = small_coset_amalgam(skel, g, frozenset({0}), ig, ctx=ctx)
    assert ce.graph.n == skel.graph.n
    assert canonical_form(ce.graph) == canonical_form(skel.graph)


def test_small_coset_amalgam_trivial_template_square():
    h2 = hypercube_group(["a", "b"])
    trivial = trivial_constraint_graph(h2.colors)
    ctx = IContext(h2, trivial)
    skel = ctx.skeleton(frozenset({0, 1}), 0)
    ce = small_coset_amalgam(skel, h2, frozenset({0, 1}), trivial, ctx=ctx)
    assert ce.graph.n == 4
    assert canonical_form(ce.graph) == canonical_form(cayley_graph(h2).graph)


def naive_ce_classes(skel, group, alpha, igraph, ctx):
    """Independent union-find oracle over all tagged pairs, applying the
    one-step identification predicate pairwise."""
    from acygroups.acyclicity import all_subsets
    from acygroups.canon import connected_components
    from acygroups.constraint import _component_addresses

    host = skel.graph
    gammas = [frozenset(a) for a in all_subsets(len(group.colors)) if frozenset(a) < alpha]
    comp_of = {}
    addr = {}
    for a in gammas:
        for comp in connected_components(host, a):
            maps = _component_addresses(host, comp, a, group)
            for v in comp:
                comp_of[(a, v)] = comp
                addr[(a, v)] = {
                    u: group.product(group.inverse(maps[v]), maps[u]) for u in comp
                }
    universe = []
    for v in range(host.n):
        for a in gammas:
            for g in group.subgroup_elements(a):
                universe.append((g, v, a))
    parent = {x: x for x in universe}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for g1, v1, a1 in universe:
        for g2, v2, a2 in universe:
            shared = set(comp_of[(a1, v1)]) & set(comp_of[(a2, v2)])
            for u in shared:
                h1 = group.product(group.inverse(addr[(a1, v1)][u]), g1)
                h2 = group.product(group.inverse(addr[(a2, v2)][u]), g2)
                if h1 == h2 and h1 in group.subgroup_elements(a1 & a2):
                    union((g1, v1, a1), (g2, v2, a2))
    classes = {}
    for x in universe:
        classes.setdefault(find(x), set()).add(x)
    return set(frozenset(c) for c in classes.values())


def test_small_coset_amalgam_against_pairwise_oracle():
    ig = path_igraph("abc", "abc")
    g = compat_group(ig)
    ctx = IContext(g, ig)
    alpha = frozenset({0, 1})
    skel = ctx.skeleton(alpha, 0)
    ce = small_coset_amalgam(skel, g, alpha, ig, ctx=ctx)
    oracle = naive_ce_classes(skel, g, alpha, ig, ctx)
    mine = set()
    for v, prov in enumerate(ce.provenance):
        if prov:
            mine.add(frozenset(prov))
    assert mine == oracle
    assert ce.graph.n == len(oracle)


def test_minimal_tag_support():
    ig = path_igraph("ab", "ab")
    g = compat_group(ig)
    ctx = IContext(g, ig)
    alpha = frozenset({0, 1})
    skel = ctx.skeleton(alpha, 0)
    ce = small_coset_amalgam(skel, g, alpha, ig, ctx=ctx)
    for u in range(skel.graph.n):
        sup, anchors = minimal_tag_support(ce, ce.host_image[u])
        assert sup == frozenset() and anchors == (u,)
    for x in range(ce.graph.n):
        sup, anchors = minimal_tag_support(ce, x)
        if ce.provenance[x]:
            # intersection-closure: the support equals the meet of all tags
            tags = [frozenset(a) for _, _, a in ce.provenance[x]]
            assert sup == frozenset.intersection(*tags)


def test_ce_cluster_property_on_fixtures():
    ig = path_igraph("ab", "ab")
    g = compat_group(ig)
    ctx = IContext(g, ig)
    alpha = frozenset({0, 1})
    skel = ctx.skeleton(alpha, 0)
    ce = small_coset_amalgam(skel, g, alpha, ig, ctx=ctx)
    assert ce_cluster_property(ce, g)


def test_transfer_plain_acyclicity_and_freeness():
    ig = path_igraph("ab", "ab")
    g = compat_group(ig)
    assert is_two_acyclic(g)
    assert is_free_over(g, ig)
    assert is_n_acyclic_over(g, ig, 2)


def test_validate_i_coset_cycle_rejects_junk():
    ig = path_igraph("ab", "ab")
    g = compat_group(ig)
    assert not validate_i_coset_cycle(g, ig, [(frozenset({0}), 0, 0), (frozenset({0}), 0, 0)])


def test_freeness_violation_witness_located():
    from acygroups.constraint import find_freeness_violation

    tri = new_egraph(["h0", "h1", "h2"], ["x", "y", "z"],
                     [("x", "h0", "h1"), ("y", "h1", "h2"), ("z", "h0", "h2")])
    weak = compat_group(tri)
    violation = find_freeness_violation(weak, tri)
    assert violation is not None
    alpha, s = violation
    ctx = IContext(weak, tri)
    assert not is_free_skeleton(ctx, alpha, s)


def test_ce_unique_up_to_iso_against_translated_rebuild():
    # the extension of a translated skeleton is isomorphic to the original:
    # free extensions of isomorphic hosts agree up to isomorphism
    ig = path_igraph("ab", "ab")
    g = compat_group(ig)
    ctx = IContext(g, ig)
    alpha = frozenset({0, 1})
    ce0 = small_coset_amalgam(ctx.skeleton(alpha, 0, 0), g, alpha, ig, ctx=ctx)
    h = g.gen_action[0][0]  # translate the anchor by a generator
    ce1 = small_coset_amalgam(ctx.skeleton(alpha, 0, h), g, alpha, ig, ctx=ctx)
    assert canonical_form(ce0.graph) == canonical_form(ce1.graph)


def weak_triangle():
    tri = new_egraph(["h0", "h1", "h2"], ["x", "y", "z"],
                     [("x", "h0", "h1"), ("y", "h1", "h2"), ("z", "h0", "h2")])
    return compat_group(tri), tri


def test_template_and_plain_searchers_diverge():
    # over the triangle template the restricted reachability changes which
    # cycle lengths exist: this group has a plain 2-cycle but its shortest
    # template cycle has length 3
    weak, tri = weak_triangle()
    assert find_coset_cycle(weak, 2) is not None
    assert find_i_coset_cycle(weak, tri, 2) is None
    cyc = find_i_coset_cycle(weak, tri, 3)
    # pinned: the first witness shows any change of the search order
    assert cyc == (
        (frozenset({0, 1}), 0, 0),
        (frozenset({0, 2}), 2, 4),
        (frozenset({1, 2}), 1, 9),
    )
    assert validate_i_coset_cycle(weak, tri, cyc)


def test_template_search_honours_a_tiny_budget():
    weak, tri = weak_triangle()
    with pytest.raises(ResourceCap, match="coset-cycle search budget 5 exceeded"):
        find_i_coset_cycle(weak, tri, 3, budget=5)


def test_trivial_template_search_spends_the_plain_nodes():
    # over the trivial template the template search is the plain search
    group = corpus()["biggs_3_1"]
    trivial = trivial_constraint_graph(group.colors)
    assert find_i_coset_cycle(group, trivial, 4, budget=1036) is not None
    with pytest.raises(ResourceCap):
        find_i_coset_cycle(group, trivial, 4, budget=1035)


def brute_force_template_cycle(group, igraph, n_max):
    """Oracle: every chain of product components anchored at (site, 1),
    validated wholesale, with no search pruning."""
    from itertools import product as iproduct

    ctx = IContext(group, igraph)
    alphas = proper_subsets(len(group.colors))
    for length in range(2, n_max + 1):
        for alpha_seq in iproduct(alphas, repeat=length):
            chains = [[ctx.pair(s, 0)] for s in range(igraph.n)]
            for a in alpha_seq[:-1]:
                table = ctx.comp_tables(a)
                chains = [c + [x] for c in chains for x in table.block(c[-1])]
            for chain in chains:
                entries = [(a, *ctx.unpair(x)) for a, x in zip(alpha_seq, chain)]
                if validate_i_coset_cycle(group, igraph, entries, ctx=ctx):
                    return length
    return None


def test_template_searcher_agrees_with_brute_force():
    cases = [weak_triangle()]
    for seq, colors in [("a", "ab"), ("ab", "ab"), ("aba", "ab"),
                        ("ab", "abc"), ("abc", "abc"), ("cab", "abc")]:
        ig = path_igraph(seq, colors)
        cases.append((compat_group(ig), ig))
    for name in ("s3_three_gen", "cube_3", "six_cycle"):
        group = corpus()[name]
        cases.append((group, trivial_constraint_graph(group.colors)))
    found_any = False
    for group, ig in cases:
        for n in (2, 3):
            found = find_i_coset_cycle(group, ig, n)
            expected = brute_force_template_cycle(group, ig, n)
            assert (None if found is None else len(found)) == expected
            found_any = found_any or found is not None
    assert found_any
