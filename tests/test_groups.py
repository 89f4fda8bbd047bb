import pytest

from acygroups.acyclicity import girth
from acygroups.egraph import biggs_tree, disjoint_union, hypercube, new_egraph, trivial_completion
from acygroups.errors import DegenerateGenerators, ResourceCap, UnknownName
from acygroups.groups import (
    cayley_graph,
    homomorphism,
    is_compatible,
    is_group_symmetry,
    sym,
)

from conftest import biggs_group, cycle_graph, evaluate_word, hypercube_group
from oracles import find_isomorphism, subgroup, word_kernel_compatible


def naive_closure_order(graph):
    """Independent oracle: plain multiplicative closure of the matching involutions."""
    bar = trivial_completion(graph)
    gens = [tuple(row) for row in bar.partner]
    els = set(gens) | {tuple(range(bar.n))}
    frontier = list(els)
    while frontier:
        new = []
        for a in frontier:
            for b in gens:
                c = tuple(b[x] for x in a)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return len(els)


@pytest.mark.parametrize(
    "graph,order",
    [
        (biggs_tree(["a", "b"], 1), 6),
        (hypercube(["a", "b"]), 4),
        (biggs_tree(["a", "b", "c"], 1), 24),
        (biggs_tree(["a", "b"], 2), 10),
    ],
)
def test_sym_orders_match_naive_closure(graph, order):
    g = sym(graph, attach_hypercube=False)
    assert g.order == order
    assert naive_closure_order(graph) == order


def test_sym_with_hypercube_forces_distinct_generators():
    # one colour acts as the identity without the hypercube component
    g = new_egraph([0, 1], ["a", "b"], [("a", 0, 1)])
    with pytest.raises(DegenerateGenerators):
        sym(g, attach_hypercube=False)
    assert sym(g, attach_hypercube=True).order == 4


def test_sym_coinciding_generators_detected():
    g = new_egraph([0, 1], ["a", "b"], [("a", 0, 1), ("b", 0, 1)])
    with pytest.raises(DegenerateGenerators):
        sym(g, attach_hypercube=False)


def test_element_cap_is_honest():
    with pytest.raises(ResourceCap):
        sym(biggs_tree(["a", "b", "c"], 1), attach_hypercube=False, cap=10)


def test_evaluate_word_identities():
    g = biggs_group(["a", "b"], 1)
    assert evaluate_word(g, []) == 0
    assert evaluate_word(g, ["a", "a"]) == 0
    assert evaluate_word(g, ["a", "b", "a", "b", "a", "b"]) == 0
    assert evaluate_word(g, ["a", "b"]) != 0


def test_generator_involutivity_invariant(small_groups):
    for name, g in small_groups.items():
        for c in g.colors:
            assert evaluate_word(g, [c, c]) == 0, name


def test_words_evaluate_to_their_elements(small_groups):
    for g in small_groups.values():
        for x in range(g.order):
            assert g.evaluate(g.word_of(x)) == x
            assert g.product(x, g.inverse(x)) == 0


def test_cayley_graph_shapes():
    z2 = hypercube_group(["a"])
    cg = cayley_graph(z2)
    assert cg.n == 2 and len(cg.all_edges()) == 1

    h2 = hypercube_group(["a", "b"])
    cg2 = cayley_graph(h2)
    assert find_isomorphism(cg2, hypercube(["a", "b"])) is not None

    s3 = biggs_group(["a", "b"], 1)
    cg3 = cayley_graph(s3)
    assert find_isomorphism(cg3, cycle_graph(6)) is not None
    assert girth(cg3) == 6


def test_cayley_regularity(small_groups):
    for g in small_groups.values():
        cg = cayley_graph(g)
        assert cg.strict and cg.complete


def test_round_trip_order(small_groups):
    for name, g in small_groups.items():
        if g.order > 60:
            continue
        back = sym(cayley_graph(g), attach_hypercube=False)
        assert back.order == g.order, name


def test_subgroup_and_cosets():
    s3 = biggs_group(["a", "b"], 1)
    trivial = subgroup(s3, [])
    assert trivial.order == 1
    assert s3.coset(3, []) == (3,)
    sub_a = subgroup(s3, [0])
    assert sub_a.order == 2
    whole = subgroup(s3, [0, 1])
    assert whole.order == 6
    assert len(s3.coset(2, [0, 1])) == 6


def test_coset_partition_invariant(small_groups):
    for g in small_groups.values():
        for alpha in ([0], [0, 1] if len(g.colors) > 1 else [0]):
            alpha = [c for c in alpha if c < len(g.colors)]
            sub_order = len(g.subgroup_elements(alpha))
            seen = set()
            for x in range(g.order):
                block = g.coset(x, alpha)
                assert len(block) == sub_order
                seen.add(block)
            assert sum(len(b) for b in seen) == g.order


def test_left_translation_is_cayley_automorphism():
    g = biggs_group(["a", "b"], 1)
    cg = cayley_graph(g)
    for h in range(g.order):
        mapping = [g.product(h, x) for x in range(g.order)]
        for c in range(len(g.colors)):
            for u in range(g.order):
                assert mapping[cg.partner[c][u]] == cg.partner[c][mapping[u]]


def test_compat_with_own_cayley_graph(small_groups):
    for g in small_groups.values():
        assert is_compatible(g, cayley_graph(g))


def test_incompatibility_example():
    h2 = hypercube_group(["a", "b"])
    assert not is_compatible(h2, cycle_graph(6))


def test_compat_with_union_iff_components():
    s3 = biggs_group(["a", "b"], 1)
    six = cycle_graph(6)
    four = cayley_graph(hypercube_group(["a", "b"]))
    assert is_compatible(s3, six)
    assert not is_compatible(s3, four)
    assert not is_compatible(s3, disjoint_union([six, four]))
    twelve = cycle_graph(12)
    assert not is_compatible(s3, twelve)


def test_compatibility_closure_criterion_against_word_kernel(small_groups):
    targets = [cycle_graph(6), cayley_graph(hypercube_group(["a", "b"])), cycle_graph(4)]
    for name in ["biggs_2_1", "cube_2", "six_cycle", "eight_cycle", "path_aba"]:
        g = small_groups[name]
        for h in targets:
            expected = word_kernel_compatible(g, h, 2 * g.order)
            assert is_compatible(g, h) == expected, (name, h)


def test_homomorphism_identity_and_absent():
    s3 = biggs_group(["a", "b"], 1)
    h2 = hypercube_group(["a", "b"])
    ident = homomorphism(s3, s3)
    assert ident == tuple(range(6))
    assert homomorphism(s3, h2) is None
    assert homomorphism(h2, s3) is None


def test_homomorphism_onto_component_group():
    s3 = biggs_group(["a", "b"], 1)
    combined = sym(disjoint_union([cayley_graph(s3), cycle_graph(6)]), attach_hypercube=False)
    hom = homomorphism(combined, s3)
    assert hom is not None
    assert set(hom) == set(range(s3.order))


def test_group_symmetry():
    for depth in (1, 2):
        g = biggs_group(["a", "b"], depth)
        assert is_group_symmetry(g, {"a": "b", "b": "a"})
        assert is_group_symmetry(g, {"a": "a", "b": "b"})
    g3 = biggs_group(["a", "b", "c"], 1)
    assert is_group_symmetry(g3, {"a": "b", "b": "c", "c": "a"})


def test_group_symmetry_is_the_element_map():
    g = biggs_group(["a", "b", "c"], 1)
    assert is_group_symmetry(g, {"a": "a", "b": "b", "c": "c"}) == list(range(g.order))
    rho = [1, 2, 0]
    f = is_group_symmetry(g, {"a": "b", "b": "c", "c": "a"})
    assert sorted(f) == list(range(g.order)) and f[0] == 0
    for c, row in enumerate(g.gen_action):
        assert all(f[row[x]] == g.gen_action[rho[c]][f[x]] for x in range(g.order))


def test_asymmetric_group_symmetry_false():
    # ord(ab) = 3 but ord(cb) = 2, so transposing a and c is not a symmetry
    g = sym(new_egraph([0, 1, 2, 3, 4], ["a", "b", "c"],
                       [("a", 0, 1), ("b", 1, 2), ("c", 3, 4)]),
            attach_hypercube=False)
    assert not is_group_symmetry(g, {"a": "c", "b": "b", "c": "a"})
    assert is_group_symmetry(g, {"a": "a", "b": "b", "c": "c"})


def test_registry_mismatch_raises():
    s3 = biggs_group(["a", "b"], 1)
    with pytest.raises(UnknownName):
        is_compatible(s3, hypercube(["a", "c"]))


def test_compatibility_verdicts_are_kept_per_template():
    # one group, a compatible and an incompatible template, asked in both
    # orders on fresh groups and again from the memo
    six, four = cycle_graph(6), cayley_graph(hypercube_group(["a", "b"]))
    for order in ((six, four), (four, six)):
        s3 = biggs_group(["a", "b"], 1)
        for _ in range(2):
            for h in order:
                assert is_compatible(s3, h) == (h is six)
                assert is_compatible(s3, h) == word_kernel_compatible(s3, h, 2 * s3.order)


def test_coset_tables_walk_only_what_is_asked_for():
    from acygroups.acyclicity import proper_subsets
    from acygroups.groups import EGroup
    from acygroups.synthesis import SynthesisConfig, construct_n_acyclic

    built, _ = construct_n_acyclic(hypercube_group(["a", "b"]), SynthesisConfig(n_acyclic=10))
    assert built.order == 5040
    # the same group with no table walked yet
    group = EGroup(built.colors, built.gen_action, built.order)

    def walked(alpha):
        return sum(x != -1 for x in group.coset_table(alpha).ids)

    for alpha in proper_subsets(2):
        sub = group.subgroup_elements(alpha)
        assert walked(alpha) == len(sub) < group.order, alpha
    asked = [17, 4000, 17, 5039]
    assert [group.coset(g, []) for g in asked] == [(g,) for g in asked]
    assert walked([]) == len({0, *asked})
    table = group.coset_table([0])
    assert table.find(17) == table.find(group.gen_action[0][17]) and walked([0]) == 2 + 2


@pytest.mark.parametrize("order, rows, message, index", [
    (2, [(1, 2)], "generator table is not a permutation", 0),
    (2, [(1, -1)], "generator table is not a permutation", 0),
    (3, [(-1, 1, 0)], "generator table is not a permutation", 0),
    (2, [(1, 1)], "generator table is not a permutation", 0),
    (2, [(1, 0, 2)], "generator table is not a permutation", 0),
    (3, [(1, 2, 0)], "generator 'c0' not involutive", 0),
    (2, [(1, 0), (0, 1)], "generator equals the identity", 1),
    (3, [(1, 2, 0), (0, 1, 2)], "generator equals the identity", 1),
    (3, [(1, 2, 0), (1, 0, 3)], "generator table is not a permutation", 1),
    (2, [(1, 0), (1, 0)], "two generators coincide", 1),
    # order 1: a one-entry index list, where gather reads one item
    (1, [(1,)], "generator table is not a permutation", 0),
    (1, [(0,)], "generator equals the identity", 0),
    (1, [()], "generator table is not a permutation", 0),
], ids=["out-of-range", "negative", "negative-wrapping", "repeated", "too-long",
        "not-involutive", "identity", "identity-first", "range-first", "coinciding",
        "order-1-out-of-range", "order-1-identity", "order-1-empty"])
def test_egroup_refuses_each_degenerate_table(order, rows, message, index):
    # the involution test alone passes only permutations, so a failure is
    # then told apart; every row is checked to be a permutation and not the
    # identity before any is called not involutive
    from acygroups.groups import EGroup

    with pytest.raises(DegenerateGenerators, match=f"^{message}$") as err:
        EGroup([f"c{i}" for i in range(len(rows))], rows, order)
    assert err.value.index == index


def test_egroup_refuses_repeated_colour_names():
    # as EGraph does: a repeated name would leave the second generator unnamed
    from acygroups.groups import EGroup

    rows = [[1, 0, 3, 2], [2, 3, 0, 1]]
    with pytest.raises(UnknownName, match="^duplicate colour names$"):
        EGroup(["a", "a"], rows, 4)
    assert EGroup(["a", "b"], rows, 4).color_index("b") == 1
