import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups.constraint import validate_i_coset_cycle
from acygroups.egraph import disjoint_union, hypercube, trivial_completion
from acygroups.errors import DegenerateGenerators, PreconditionFailed, ResourceCap
from acygroups.groupoid import (
    ConstraintPattern,
    construct_n_acyclic_groupoid,
    find_groupoid_coset_cycle,
    groupoid_cayley,
    groupoid_from_group,
    hat_translation,
    inverse_closed_proper_subsets,
    is_compatible_groupoid,
    pattern_igraph,
    sym_igraph,
    translate_groupoid_cycle,
    translate_igraph,
    verify_groupoid_axioms,
)
from acygroups.groups import graph_generator_perms, sym
from acygroups.synthesis import SynthesisConfig

from oracles import (
    reference_generation_parents,
    reference_hat_igraph,
    reference_inverse_closed_subsets,
    walk_target,
)


def one_pair_pattern():
    return ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])


def loop_pattern():
    return ConstraintPattern(["s"], [("e", "s", "s", "f"), ("f", "s", "s", "e")])


def parallel_pairs_pattern():
    return ConstraintPattern(
        ["s", "t"],
        [("e", "s", "t", "ei"), ("ei", "t", "s", "e"),
         ("f", "s", "t", "fi"), ("fi", "t", "s", "f")],
    )


def test_pattern_validation():
    with pytest.raises(PreconditionFailed):
        ConstraintPattern(["s"], [("e", "s", "s", "e")])  # fixpoint
    with pytest.raises(PreconditionFailed):
        ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "s", "t", "e")])


def test_hat_translation_edge_pair():
    hat = hat_translation(one_pair_pattern())
    assert len(hat.igraph.colors) == 3
    assert hat.igraph.n == 4
    # a path of three edges, each colour class a single edge
    assert all(len(hat.igraph.edges(c)) == 1 for c in range(3))
    assert hat.igraph.strict


def test_hat_translation_loop_is_triangle():
    hat = hat_translation(loop_pattern())
    assert hat.igraph.n == 3
    assert len(hat.igraph.all_edges()) == 3
    # the three edges form a cycle on {site, two midpoints}
    bar = trivial_completion(hat.igraph)
    v = hat.igraph.vertex_names.index("v:s")
    w = walk_target(bar, v, hat.triplet(0))
    assert w == v


@st.composite
def patterns(draw):
    """Patterns of 1-5 edge pairs, loops included, on the 1-4 sites they
    touch, with their directed edges in any order."""
    ends = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5))
    sites = sorted({s for pair in ends for s in pair})
    ids = draw(st.permutations(["a", "b", "c", "d", "e", "f", "g", "h", "x1", "x2"]))
    edges = []
    for i, (u, v) in enumerate(ends):
        e, einv = ids[2 * i], ids[2 * i + 1]
        edges += [(e, f"s{u}", f"s{v}", einv), (einv, f"s{v}", f"s{u}", e)]
    return ConstraintPattern([f"s{s}" for s in sites], draw(st.permutations(edges)))


@settings(max_examples=200, deadline=None)
@given(patterns())
def test_encoding_and_subset_family_match_their_references(pattern):
    # the encoding is translate_igraph of the pattern graph, and the subsets
    # are proper_subsets over the edge pairs
    encoded, reference = hat_translation(pattern).igraph, reference_hat_igraph(pattern)
    assert encoded.colors == reference.colors
    assert encoded.partner == reference.partner
    assert inverse_closed_proper_subsets(pattern) == reference_inverse_closed_subsets(pattern)


def test_hat_word_bijection_counts():
    # reduced pattern words s->t of length <= L correspond one-to-one to
    # reduced encoded words labelling template walks s->t
    pattern = parallel_pairs_pattern()
    hat = hat_translation(pattern)
    bar = trivial_completion(hat.igraph)
    for s, t, L in [(0, 1, 3), (0, 0, 4), (1, 0, 3)]:
        direct = _count_reduced_pattern_words(pattern, s, t, L)
        encoded = _count_encoded_walk_words(pattern, hat, bar, s, t, L)
        assert direct == encoded


def _count_reduced_pattern_words(pattern, s, t, max_len):
    count = 0
    stack = [((), s)]
    while stack:
        word, site = stack.pop()
        if site == t and word:
            count += 1
        if len(word) == max_len:
            continue
        for e in range(pattern.n_edges):
            if pattern.src[e] != site:
                continue
            if word and pattern.inv[word[-1]] == e:
                continue
            stack.append((word + (e,), pattern.tgt[e]))
    return count


def _count_encoded_walk_words(pattern, hat, bar, s, t, max_len):
    # encoded reduced words labelling walks between the original sites are
    # exactly the concatenations of generator triplets; enumerate them
    start = hat.igraph.vertex_names.index(f"v:{pattern.sites[s]}")
    goal = hat.igraph.vertex_names.index(f"v:{pattern.sites[t]}")
    count = 0
    stack = [((), start)]
    while stack:
        word, v = stack.pop()
        if v == goal and word:
            count += 1
        if len(word) == max_len:
            continue
        for e in range(pattern.n_edges):
            if hat.igraph.vertex_names.index(f"v:{pattern.sites[pattern.src[e]]}") != v:
                continue
            if word and pattern.inv[word[-1]] == e:
                continue
            trip = hat.triplet(e)
            stack.append((word + (e,), walk_target(bar, v, trip)))
    return count


@pytest.fixture(scope="module")
def weak_groupoid():
    pattern = parallel_pairs_pattern()
    hat = hat_translation(pattern)
    group = sym(hat.igraph, attach_hypercube=False)
    return pattern, hat, group, groupoid_from_group(group, hat)


def path_pattern():
    return ConstraintPattern(
        ["s", "t", "u"],
        [("e", "s", "t", "ei"), ("ei", "t", "s", "e"), ("f", "t", "u", "fi"), ("fi", "u", "t", "f")],
    )


def triangle_pattern():
    return ConstraintPattern(
        ["s", "t", "u"],
        [("e", "s", "t", "ei"), ("ei", "t", "s", "e"), ("f", "t", "u", "fi"),
         ("fi", "u", "t", "f"), ("g", "u", "s", "gi"), ("gi", "s", "u", "g")],
    )


def test_derived_parents_are_the_ones_the_generation_recorded(weak_groupoid):
    # the forest derived from the tables is the one a generation records
    # as it numbers the elements, so witness words keep their edges
    gpds = [sym_igraph(pattern_igraph(p()))
            for p in (one_pair_pattern, path_pattern, triangle_pattern)]
    assert [gpd.order for gpd in gpds] == [4, 9, 9]
    for gpd in [*gpds, weak_groupoid[3]]:
        assert gpd.parents == reference_generation_parents(gpd)
    assert weak_groupoid[3].order > 9


def test_extracted_groupoid_axioms(weak_groupoid):
    _, _, _, gpd = weak_groupoid
    assert verify_groupoid_axioms(gpd)


def test_extracted_groupoid_sorts_disjoint(weak_groupoid):
    _, _, _, gpd = weak_groupoid
    assert gpd.labels is not None
    seen = {}
    for g in range(gpd.order):
        key = gpd.labels[g]
        assert seen.setdefault(key, gpd.sorts[g]) == gpd.sorts[g]


def test_neutral_laws(weak_groupoid):
    _, _, _, gpd = weak_groupoid
    for g in range(gpd.order):
        s, t = gpd.sorts[g]
        assert gpd.compose(gpd.neutral[s], g) == g
        assert gpd.compose(g, gpd.neutral[t]) == g


def test_reduced_word_evaluation_insensitive_to_inverse_pairs(weak_groupoid):
    _, _, _, gpd = weak_groupoid
    word = [0, 3, 0]  # e fi e
    base = gpd.apply(gpd.neutral[0], word)
    padded = [0, 1, 0, 3, 0]  # insert e ei mid-way
    assert gpd.apply(gpd.neutral[0], padded) == base


def test_groupoid_cayley_roundtrip(weak_groupoid):
    _, _, _, gpd = weak_groupoid
    cg = groupoid_cayley(gpd)
    assert cg.is_complete()
    back = sym_igraph(cg)
    assert back.order == gpd.order
    assert verify_groupoid_axioms(back)


def test_igraph_requires_each_class_to_be_the_converse_of_its_reverse():
    pattern = one_pair_pattern()
    ig = pattern_igraph(pattern)
    from acygroups.groupoid import IGraph

    with pytest.raises(PreconditionFailed, match="must be the converse relation"):
        IGraph(pattern, ig.vertex_names, ig.site_of, [ig.edges[0], ()])


def test_igraph_refuses_duplicate_vertex_names():
    from acygroups.errors import UnknownName
    from acygroups.groupoid import IGraph

    pattern = one_pair_pattern()
    ig = pattern_igraph(pattern)
    names = [ig.vertex_names[0]] * ig.n
    with pytest.raises(UnknownName, match="duplicate vertex names"):
        IGraph(pattern, names, ig.site_of, ig.edges)


def test_sym_and_compatibility_need_a_complete_target():
    from acygroups.errors import IncompleteGraph
    from acygroups.groupoid import IGraph

    pattern = one_pair_pattern()
    ig = pattern_igraph(pattern)
    bare = IGraph(pattern, ig.vertex_names, ig.site_of, [(), ()])
    with pytest.raises(IncompleteGraph):
        sym_igraph(bare)
    with pytest.raises(IncompleteGraph):
        is_compatible_groupoid(sym_igraph(ig), bare)


def test_compatibility_with_own_cayley_graph(weak_groupoid):
    _, _, _, gpd = weak_groupoid
    assert is_compatible_groupoid(gpd, groupoid_cayley(gpd))


def test_one_pair_groupoid_has_no_cycles():
    pattern = one_pair_pattern()
    assert inverse_closed_proper_subsets(pattern) == [frozenset()]
    hat = hat_translation(pattern)
    group = sym(disjoint_union([hat.igraph, hypercube(hat.igraph.colors)]), attach_hypercube=False)
    gpd = groupoid_from_group(group, hat)
    for n in (2, 4, 6):
        assert find_groupoid_coset_cycle(gpd, n) is None


def test_degenerate_extraction_detected():
    # one site, one loop pair: the encoded triplet squares to the identity in
    # the bare template group, collapsing a generator with its inverse
    pattern = loop_pattern()
    hat = hat_translation(pattern)
    group = sym(disjoint_union([hat.igraph, hypercube(hat.igraph.colors)]), attach_hypercube=False)
    with pytest.raises(DegenerateGenerators):
        groupoid_from_group(group, hat)


def test_negative_control_cycle_translation(weak_groupoid):
    _, hat, group, gpd = weak_groupoid
    cyc = find_groupoid_coset_cycle(gpd, 10, budget=50_000_000)
    # pinned: the first witness shows any change of the search order
    e_pair, f_pair = frozenset({0, 1}), frozenset({2, 3})
    elements = (0, 2, 6, 10, 14, 18, 15, 11, 7, 3)
    assert cyc == tuple((e_pair if i % 2 == 0 else f_pair, g) for i, g in enumerate(elements))
    entries = translate_groupoid_cycle(gpd, hat, cyc)
    assert len(entries) == 10
    assert validate_i_coset_cycle(group, hat.igraph, entries)


def test_full_pipeline_one_pair():
    pattern = one_pair_pattern()
    target = pattern_igraph(pattern)
    res = construct_n_acyclic_groupoid(
        pattern, target, SynthesisConfig(n_acyclic=2, early_exit=True)
    )
    assert res.checks == {"axioms": True, "acyclic": True, "compatible": True}
    assert find_groupoid_coset_cycle(res.groupoid, 2) is None
    assert is_compatible_groupoid(res.groupoid, target)


def test_pipeline_symmetry_transport():
    # swapping the two parallel pairs is a pattern automorphism; the encoded
    # template admits the induced colour permutation as a symmetry and the
    # pipeline start group inherits it
    pattern = parallel_pairs_pattern()
    hat = hat_translation(pattern)
    rho = {}
    mapping = {0: 2, 2: 0, 1: 3, 3: 1}  # e<->f, ei<->fi
    for e, target in mapping.items():
        rho[hat.color_of[e]] = hat.color_of[target]
    for (a, b) in [(0, 1), (2, 3)]:
        pair = (min(a, b), max(a, b))
        image = (min(mapping[a], mapping[b]), max(mapping[a], mapping[b]))
        rho[hat.color_of[pair]] = hat.color_of[image]
    from oracles import is_symmetry
    from acygroups.groups import is_group_symmetry

    assert is_symmetry(hat.igraph, rho)
    g0 = sym(disjoint_union([hat.igraph, hypercube(hat.igraph.colors)]), attach_hypercube=False)
    assert is_group_symmetry(g0, rho)


def test_translate_igraph_matches_template():
    pattern = one_pair_pattern()
    hat = hat_translation(pattern)
    enc = translate_igraph(hat, pattern_igraph(pattern))
    from oracles import find_isomorphism

    assert find_isomorphism(enc, hat.igraph) is not None


def test_compatibility_transfer_both_sides():
    # the backing group is compatible with the encoded target, and the
    # extracted groupoid is compatible with the target itself
    from acygroups.groups import is_compatible

    pattern = one_pair_pattern()
    target = pattern_igraph(pattern)
    res = construct_n_acyclic_groupoid(
        pattern, target, SynthesisConfig(n_acyclic=2, early_exit=True)
    )
    encoded = translate_igraph(res.hat, target)
    assert is_compatible(res.group, encoded)
    assert is_compatible_groupoid(res.groupoid, target)


def brute_force_groupoid_cycle(gpd, n_max):
    from itertools import product as iproduct

    from acygroups.acyclicity import validate_cycle
    from acygroups.groupoid import inverse_closed_proper_subsets

    alphas = inverse_closed_proper_subsets(gpd.pattern)
    for length in range(2, n_max + 1):
        for alpha_seq in iproduct(alphas, repeat=length):
            chains = [[g0] for g0 in gpd.neutral]
            for i in range(1, length):
                chains = [c + [g] for c in chains for g in gpd.subset_closures(alpha_seq[i - 1]).block(c[-1])]
            for chain in chains:
                if validate_cycle(gpd.subset_closures, list(zip(alpha_seq, chain))):
                    return length
    return None


def test_groupoid_searcher_agrees_with_brute_force(weak_groupoid):
    _, _, _, gpd = weak_groupoid
    for n in (2, 3):
        found = find_groupoid_coset_cycle(gpd, n)
        expected = brute_force_groupoid_cycle(gpd, n)
        assert (found is None) == (expected is None)


def test_groupoid_search_honours_a_tiny_budget(weak_groupoid):
    _, _, _, gpd = weak_groupoid
    with pytest.raises(ResourceCap, match="coset-cycle search budget 5 exceeded"):
        find_groupoid_coset_cycle(gpd, 3, budget=5)


def test_compatibility_is_walked_once_per_group(monkeypatch):
    # only the starting group is walked: each stage group inherits the
    # verdict through its homomorphism onto the stage before, and
    # groupoid_from_group asks the final group what IContext asked of it;
    # a walk forces each template point on its own, so the forcings through
    # the template's perms are counted per group
    from acygroups import groups

    calls = []
    propagate = groups.propagate

    def recording(n, rows, seeds, targets):
        calls.append((rows[0][1], seeds, targets))
        return propagate(n, rows, seeds, targets)

    monkeypatch.setattr(groups, "propagate", recording)
    pattern = one_pair_pattern()
    res = construct_n_acyclic_groupoid(
        pattern, pattern_igraph(pattern), SynthesisConfig(n_acyclic=2, early_exit=True)
    )
    assert res.checks == {"axioms": True, "acyclic": True, "compatible": True}
    perms = tuple(graph_generator_perms(res.hat.igraph))
    walks = {}
    for row, seeds, targets in calls:
        if targets == perms:
            walks.setdefault(id(row), (row, []))[1].extend(seeds)
    assert len(walks) == 1
    [(row, seeds)] = walks.values()
    assert row is not res.group.gen_action[0]
    assert seeds == [(0, v) for v in range(res.hat.igraph.n)]
