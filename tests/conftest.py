import pytest

from acygroups.covering import Hypergraph
from acygroups.egraph import EGraph, biggs_tree, hypercube, new_egraph
from acygroups.errors import UnknownName
from acygroups.groups import sym
from acygroups.traverse import NO_EDGE


def biggs_group(colors, depth):
    return sym(biggs_tree(colors, depth), attach_hypercube=False)


def hypercube_group(colors):
    return sym(hypercube(colors), attach_hypercube=False)


def s3_three_generators():
    # three transpositions of a triangle, one colour each
    g = new_egraph([0, 1, 2], ["a", "b", "c"], [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)])
    return sym(g, attach_hypercube=False)


def cycle_graph(n, colors=("a", "b")):
    # n-cycle with alternating colours; n must be even
    edges = [(colors[i % 2], i, (i + 1) % n) for i in range(n)]
    return new_egraph(list(range(n)), list(colors), edges)


def path_graph(color_seq):
    # path with the given colour sequence along its edges
    n = len(color_seq) + 1
    colors = sorted(set(color_seq))
    edges = [(c, i, i + 1) for i, c in enumerate(color_seq)]
    return new_egraph(list(range(n)), colors, edges)


def named_hypergraph(names, hyperedges):
    """The hypergraph on names whose hyperedges are given by vertex names."""
    index = {v: i for i, v in enumerate(names)}
    return Hypergraph(names, [[index[v] for v in he] for he in hyperedges])


def trivial_constraint_graph(colors):
    """One site with a loop of every colour; restricts nothing."""
    return EGraph(["s"], sorted(colors), [[0] for _ in colors])


def evaluate_word(group, word):
    """Product of a word given by colour names or indices."""
    return group.evaluate([c if isinstance(c, int) else group.color_index(c) for c in word])


def coset_graph(group, alpha):
    """Weak subgraph of the Cayley graph on the subgroup G[alpha].

    The graph keeps the full colour registry; its vertex i is the i-th
    element of G[alpha] ascending, named by its index in the group.
    """
    alpha = sorted(set(alpha))
    elements = group.subgroup_elements(alpha)
    local = {g: i for i, g in enumerate(elements)}
    rows = [[NO_EDGE] * len(elements) for _ in group.colors]
    for c in alpha:
        for i, g in enumerate(elements):
            rows[c][i] = local[group.gen_action[c][g]]
    return EGraph([str(g) for g in elements], group.colors, rows)


def rename(g, rho):
    """Renaming along a colour permutation rho: the rho(e)-edges are the old e-edges."""
    if sorted(rho.values()) != sorted(g.colors) or set(rho) != set(g.colors):
        raise UnknownName("rho must be a permutation of the colour registry")
    rows = [None] * len(g.colors)
    for e, target in rho.items():
        rows[g.color_index(target)] = g.partner[g.color_index(e)]
    return EGraph(g.vertex_names, g.colors, rows)


def corpus():
    """Named small groups (orders <= 48) used across the test suite."""
    groups = {
        "biggs_2_1": biggs_group(["a", "b"], 1),  # order 6
        "biggs_2_2": biggs_group(["a", "b"], 2),  # order 10
        "biggs_3_1": biggs_group(["a", "b", "c"], 1),  # order 24
        "cube_1": hypercube_group(["a"]),  # order 2
        "cube_2": hypercube_group(["a", "b"]),  # order 4
        "cube_3": hypercube_group(["a", "b", "c"]),  # order 8
        "s3_three_gen": s3_three_generators(),  # order 6, not 2-acyclic
        "six_cycle": sym(cycle_graph(6), attach_hypercube=False),  # order 6
        "eight_cycle": sym(cycle_graph(8), attach_hypercube=False),  # order 8
        "path_aba": sym(path_graph("aba"), attach_hypercube=False),  # order 8
        "path_abab": sym(path_graph("abab"), attach_hypercube=False),
        "tree_plus_cube": sym(biggs_tree(["a", "b"], 1)),  # with hypercube
    }
    return groups


@pytest.fixture(scope="session")
def small_groups():
    return corpus()
