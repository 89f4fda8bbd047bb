import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups.acyclicity import (
    GammaFilter,
    all_subsets,
    find_coset_cycle,
    girth,
    is_two_acyclic,
    validate_coset_cycle,
)
from acygroups.covering import graph_cover, graph_template
from acygroups.egraph import disjoint_union
from acygroups.errors import PreconditionFailed, ResourceCap
from acygroups.groups import cayley_graph, homomorphism, sym

from conftest import biggs_group, coset_graph, evaluate_word, hypercube_group, s3_three_generators
from oracles import reference_all_subsets, reference_girth, subgroup, unpruned_coset_cycle
from paper_checks import coset_support, has_cluster_property, minimal_support


def test_girth_values():
    assert girth(biggs_group(["a", "b"], 1)) == 6
    assert girth(hypercube_group(["a", "b"])) == 4
    assert girth(hypercube_group(["a"])) == math.inf


def test_cayley_girth_is_that_of_every_vertex(small_groups):
    # one sweep from the identity suffices for a vertex-transitive graph
    for name, g in small_groups.items():
        cg = cayley_graph(g)
        assert girth(g) == girth(cg) == reference_girth(cg), name


def test_girth_of_a_graph_cover_sweeps_every_vertex():
    # the paw: a triangle v1 v2 v3 with a pendant edge v0-v1; its 8-vertex
    # cover is a 6-cycle with two pendant edges, and vertex 0 lies on no cycle
    paw = [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v1", "v3")]
    cover = graph_cover(paw, sym(graph_template(paw))).cover
    assert cover.n == 8
    assert girth(cover) == reference_girth(cover) == 6


def test_two_acyclicity_examples():
    assert is_two_acyclic(hypercube_group(["a", "b"]), range(2))
    assert is_two_acyclic(hypercube_group(["a", "b", "c"]), range(3))
    assert is_two_acyclic(biggs_group(["a", "b"], 1), range(2))
    assert not is_two_acyclic(s3_three_generators(), range(3))


def test_s3_three_gen_subgroup_intersection():
    g = s3_three_generators()
    ab = set(g.subgroup_elements([0, 1]))
    ac = set(g.subgroup_elements([0, 2]))
    assert ab == ac == set(range(6))
    assert set(g.subgroup_elements([0])) != ab


def test_find_coset_cycle_z2_absent():
    z2 = hypercube_group(["a"])
    assert find_coset_cycle(z2, 6) is None


def test_biggs_s3_cycle_threshold():
    s3 = biggs_group(["a", "b"], 1)
    assert find_coset_cycle(s3, 5) is None
    cyc = find_coset_cycle(s3, 6)
    assert cyc is not None and len(cyc) == 6
    alphas = {tuple(sorted(a)) for a, _ in cyc}
    assert alphas == {(0,), (1,)}
    assert validate_coset_cycle(s3, cyc)


def test_minimality_property():
    s3 = biggs_group(["a", "b"], 1)
    cyc = find_coset_cycle(s3, 8)
    assert len(cyc) == 6
    assert find_coset_cycle(s3, len(cyc) - 1) is None


def test_s3_three_gen_has_two_cycle():
    g = s3_three_generators()
    cyc = find_coset_cycle(g, 2)
    assert cyc is not None and len(cyc) == 2
    assert validate_coset_cycle(g, cyc)
    assert is_two_acyclic(g, range(3)) is False


def test_two_acyclicity_reads_the_subgroup_from_the_parent_tables(small_groups):
    # the criterion on G[alpha], read from the parent's tables, is the
    # criterion on G[alpha] built as a group of its own over all its colours
    verdicts = []
    for name, g in small_groups.items():
        for alpha in all_subsets(len(g.colors)):
            verdict = is_two_acyclic(g, alpha)
            assert verdict == is_two_acyclic(subgroup(g, alpha), range(len(alpha))), \
                (name, sorted(alpha))
            verdicts.append(verdict)
    assert len(verdicts) > 50 and not all(verdicts)


def test_two_acyclicity_agrees_with_search(small_groups):
    for name, g in small_groups.items():
        assert is_two_acyclic(g, range(len(g.colors))) == (find_coset_cycle(g, 2) is None), name


def test_girth_equivalence_with_gamma_two(small_groups):
    for name, g in small_groups.items():
        gi = girth(g)
        for n in (2, 3, 4, 5, 6, 7):
            ok = find_coset_cycle(g, n, gamma=GammaFilter(2)) is None
            assert ok == (gi > n), (name, n, gi)


def test_monotonicity(small_groups):
    for g in small_groups.values():
        for n in (3, 4, 5):
            if find_coset_cycle(g, n) is None:
                assert all(find_coset_cycle(g, m) is None for m in range(2, n))


def test_preservation_under_inverse_homomorphisms(small_groups):
    # transport: a cycle upstairs maps to a cycle downstairs when the proper
    # restrictions are injective, so acyclicity below lifts above
    ghat = small_groups["six_cycle"]
    g = small_groups["biggs_2_1"]
    hom = homomorphism(ghat, g)
    assert hom is not None
    for alpha in ([0], [1], [0, 1]):
        upstairs = set(ghat.subgroup_elements(alpha))
        images = {hom[x] for x in upstairs}
        assert len(images) == len(upstairs)
    cyc = find_coset_cycle(ghat, 6)
    assert cyc is not None
    moved = [(a, hom[x]) for a, x in cyc]
    assert validate_coset_cycle(g, moved)


def test_three_acyclicity_sufficient_condition(small_groups):
    # a group compatible with all its proper subgroup Cayley graphs is 3-acyclic
    from acygroups.acyclicity import proper_subsets

    for name in ["cube_2", "biggs_2_1", "cube_3"]:
        g0 = small_groups[name]
        comps = [cayley_graph(g0)]
        comps += [coset_graph(g0, sorted(a)) for a in proper_subsets(len(g0.colors))]
        g = sym(disjoint_union(comps), attach_hypercube=False)
        assert find_coset_cycle(g, 3) is None, name


def test_minimal_support_examples():
    h = hypercube_group(["a", "b"])
    assert minimal_support(h, 0) == frozenset()
    ab = evaluate_word(h, ["a", "b"])
    assert minimal_support(h, ab) == frozenset({0, 1})


def test_minimal_support_needs_two_acyclicity():
    with pytest.raises(PreconditionFailed):
        minimal_support(s3_three_generators(), 1)
    # assumed, the check is skipped: the identity lies in every subgroup
    assert minimal_support(s3_three_generators(), 0, assume_two_acyclic=True) == frozenset()


def test_coset_support_examples():
    h = hypercube_group(["a", "b"])
    assert coset_support(h, [0], 0) == frozenset()
    h3 = hypercube_group(["a", "b", "c"])
    ab = evaluate_word(h3, ["a", "b"])
    assert coset_support(h3, [0], ab) == frozenset({1})


def test_cluster_property_on_two_acyclic_groups(small_groups):
    for name in ["cube_2", "cube_3", "biggs_2_1", "biggs_2_2"]:
        assert has_cluster_property(small_groups[name], max_constituents=3), name


def test_cluster_property_precondition():
    # the {a,b,c}-subgroup is the non-2-acyclic triangle group
    from acygroups.egraph import new_egraph

    g = sym(
        new_egraph([0, 1, 2, 3, 4], ["a", "b", "c", "d"],
                   [("a", 0, 1), ("b", 1, 2), ("c", 0, 2), ("d", 3, 4)]),
        attach_hypercube=False,
    )
    assert not is_two_acyclic(g, [0, 1, 2])
    with pytest.raises(PreconditionFailed):
        has_cluster_property(g)


def test_cluster_property_holds_for_triangle_group_itself():
    # proper subgroups of the three-transposition group are dihedral, hence
    # 2-acyclic with the cluster property, which lifts to the whole group
    assert has_cluster_property(s3_three_generators(), max_constituents=3)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 8), st.booleans())
def test_gamma_filter_is_the_ordered_size_bounded_family(n_colors, k, allow_full):
    family = GammaFilter(k).subsets(n_colors, allow_full=allow_full)
    everything = all_subsets(n_colors)
    assert everything == reference_all_subsets(n_colors)
    assert all_subsets(n_colors, k - 1) == reference_all_subsets(n_colors, k - 1)
    assert family == [a for a in everything if len(a) < k and (allow_full or len(a) < n_colors)]
    assert family == sorted(set(family), key=lambda a: (len(a), sorted(a)))
    for rho in permutations(range(n_colors)):
        assert {frozenset(rho[c] for c in a) for a in family} == set(family)


def test_gamma_filter_families():
    f = GammaFilter(2)
    subs = f.subsets(3)
    assert frozenset() in subs and all(len(a) < 2 for a in subs)
    assert frozenset({0, 1, 2}) not in GammaFilter(4).subsets(3)
    assert frozenset({0, 1, 2}) in GammaFilter(4).subsets(3, allow_full=True)


def brute_force_cycle_exists(group, n_max):
    """Oracle: enumerate all coset-cycle candidates anchored at the identity
    and validate each from raw cosets, with no search pruning."""
    from itertools import product as iproduct

    from acygroups.acyclicity import proper_subsets, validate_coset_cycle

    alphas = proper_subsets(len(group.colors))
    for length in range(2, n_max + 1):
        for alpha_seq in iproduct(alphas, repeat=length):
            candidates = [[0]]
            # grow connectivity-respecting chains, then validate wholesale
            for i in range(1, length):
                new = []
                for chain in candidates:
                    for g in group.coset(chain[-1], alpha_seq[i - 1]):
                        new.append(chain + [g])
                candidates = new
            for chain in candidates:
                if validate_coset_cycle(group, list(zip(alpha_seq, chain))):
                    return length
    return None


def test_searcher_agrees_with_brute_force(small_groups):
    for name in ["cube_2", "biggs_2_1", "six_cycle"]:
        group = small_groups[name]
        for n in (2, 3, 4):
            found = find_coset_cycle(group, n)
            expected = brute_force_cycle_exists(group, n)
            assert (found is None) == (expected is None), (name, n)
            if found is not None:
                assert len(found) == expected, (name, n)


def test_found_cycles_are_translation_invariant():
    g = s3_three_generators()
    cyc = find_coset_cycle(g, 2)
    for h in range(g.order):
        moved = [(a, g.product(h, x)) for a, x in cyc]
        assert validate_coset_cycle(g, moved)


def test_pinned_biggs_3_1_four_cycle(small_groups):
    # the first witness depends on the order in which subsets and points are
    # tried; pinning it shows any change of that order
    cyc = find_coset_cycle(small_groups["biggs_3_1"], 4)
    assert cyc == (
        (frozenset({0}), 0),
        (frozenset({1, 2}), 1),
        (frozenset({0, 1}), 11),
        (frozenset({1, 2}), 7),
    )


def test_plain_search_node_count_pinned(small_groups):
    # the search that finds the biggs_3_1 4-cycle visits exactly 703 nodes;
    # without the symmetry pruning, past its 24 * 3 * 5 = 360 nodes, 1036
    group = small_groups["biggs_3_1"]
    for search, nodes in ((find_coset_cycle, 703), (unpruned_coset_cycle, 1036)):
        assert search(group, 4, budget=nodes) == find_coset_cycle(group, 4)
        with pytest.raises(ResourceCap, match=f"coset-cycle search budget {nodes - 1} exceeded"):
            search(group, 4, budget=nodes - 1)


def test_plain_search_honours_a_tiny_budget(small_groups):
    with pytest.raises(ResourceCap, match="coset-cycle search budget 5 exceeded"):
        find_coset_cycle(small_groups["biggs_3_1"], 4, budget=5)
