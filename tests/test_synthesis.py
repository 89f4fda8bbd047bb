import pytest

from acygroups.acyclicity import find_coset_cycle, girth, proper_subsets
from acygroups.canon import canonical_component, canonical_form, connected_components
from acygroups.constraint import find_i_coset_cycle, is_free_over
from acygroups.egraph import disjoint_union, hypercube, new_egraph
from acygroups.errors import CompatibilityRequired, ResourceCap
from acygroups.groups import cayley_graph, homomorphism, is_group_symmetry, sym
from acygroups.synthesis import (
    SynthesisConfig,
    construct_n_acyclic,
    stage_graph,
)

from conftest import corpus, hypercube_group
from oracles import reference_canonical_component


def path_igraph(colors_seq, all_colors):
    n = len(colors_seq) + 1
    return new_egraph(
        [f"s{i}" for i in range(n)],
        sorted(all_colors),
        [(c, f"s{i}", f"s{i+1}") for i, c in enumerate(colors_seq)],
    )


def test_single_color_is_vacuously_acyclic():
    z2 = hypercube_group(["a"])
    result, reports = construct_n_acyclic(z2, SynthesisConfig(n_acyclic=4))
    assert result.order == 2
    assert find_coset_cycle(result, 4) is None
    assert [(r.order, r.acyclic_ok) for r in reports] == [(2, True)]


def test_a_group_without_colours_comes_back_unchanged_without_reports():
    from conftest import trivial_constraint_graph
    from acygroups.groups import EGroup

    trivial = EGroup((), [], 1)
    assert construct_n_acyclic(trivial) == (trivial, [])
    over = construct_n_acyclic(trivial, igraph=trivial_constraint_graph(()))
    assert over[0] is trivial and over[1] == []


def test_stage_zero_graph_is_cayley_only():
    # the Cayley graph is counted in the inventory but never built: the
    # closure takes the group's tables for it
    h2 = hypercube_group(["a", "b"])
    assert stage_graph(h2, 0) == ([], {"cayley[4v]": 1})


def test_stage_one_chain_inventory():
    h2 = hypercube_group(["a", "b"])
    kept, inventory = stage_graph(h2, 1, config=SynthesisConfig(n_acyclic=4))
    comps = [graph for graph, _, _ in kept]
    # chains over singletons of length <= 2 dedupe to: single a-edge, single
    # b-edge, and the two-edge alternating path, each kept with the order
    # of its group; the Cayley graph is only counted
    assert [order for _, _, order in kept] == [2, 2, 6]
    keys = {canonical_form(c) for c in comps}
    assert len(comps) == len(keys)
    shapes = sorted(c.n for c in comps)
    assert shapes == [2, 2, 3]
    assert inventory == {"cayley[4v]": 1, "chain[2v]": 2, "chain[3v]": 1}


def test_dedupe_soundness():
    # the stage graph keeps one chain per isomorphism type: with the Cayley
    # graph, it generates the group of the Cayley graph with every chain
    h2 = hypercube_group(["a", "b"])
    comps = [graph for graph, _, _ in stage_graph(h2, 1, config=SynthesisConfig(n_acyclic=4))[0]]
    singletons = [frozenset({0}), frozenset({1})]
    chains = _product_then_filter_chains(h2, singletons, 2, dedupe=False)
    kept = [cayley_graph(h2)] + comps
    dup = [cayley_graph(h2)] + [graph for _, graph in chains]
    g1 = sym(disjoint_union(kept), attach_hypercube=False)
    g2 = sym(disjoint_union(dup), attach_hypercube=False)
    assert g1.order == g2.order
    assert len(kept) < len(dup)


def test_stage_graph_builds_no_cayley_graph(monkeypatch):
    # no graph on |G| = 4 vertices is made: the chains have 2 and 3
    from acygroups.egraph import EGraph

    h2 = hypercube_group(["a", "b"])
    sizes = []
    init = EGraph.__init__

    def counting(self, vertex_names, *args, **kwargs):
        sizes.append(len(vertex_names))
        init(self, vertex_names, *args, **kwargs)

    monkeypatch.setattr(EGraph, "__init__", counting)
    stage_graph(h2, 1, config=SynthesisConfig(n_acyclic=4))
    assert sizes and 4 not in sizes


@pytest.mark.parametrize("cap,refused", [(4, False), (3, True)])
def test_component_cap_counts_the_cayley_graph(monkeypatch, cap, refused):
    # three chains and the Cayley graph: four components, refused only
    # when the cap is below four
    from acygroups import synthesis

    monkeypatch.setattr(synthesis, "MAX_COMPONENTS", cap)
    h2 = hypercube_group(["a", "b"])
    config = SynthesisConfig(n_acyclic=4)
    if refused:
        with pytest.raises(ResourceCap, match=f"^component cap {cap} exceeded$"):
            stage_graph(h2, 1, config=config)
    else:
        inventory = stage_graph(h2, 1, config=config)[1]
        assert inventory == {"cayley[4v]": 1, "chain[2v]": 2, "chain[3v]": 1}


def test_full_plain_synthesis_two_colors():
    h2 = hypercube_group(["a", "b"])
    cfg = SynthesisConfig(n_acyclic=4)
    result, reports = construct_n_acyclic(h2, cfg)
    assert len(reports) == 2
    for rep in reports:
        assert rep.conservation_ok
        assert rep.acyclic_ok
    assert find_coset_cycle(result, 4) is None
    assert girth(result) > 4
    assert is_group_symmetry(result, {"a": "b", "b": "a"})
    # monotone tower: every stage admits a homomorphism to its predecessor
    assert homomorphism(result, h2) is not None


def test_plain_synthesis_strictly_unfolds():
    # the four-group has a 4-cycle; its 4-acyclic extension must be bigger
    h2 = hypercube_group(["a", "b"])
    assert find_coset_cycle(h2, 4) is not None
    result, _ = construct_n_acyclic(h2, SynthesisConfig(n_acyclic=4))
    assert result.order > h2.order


def test_resource_cap_propagates_partial():
    h2 = hypercube_group(["a", "b"])
    with pytest.raises(ResourceCap) as info:
        construct_n_acyclic(h2, SynthesisConfig(n_acyclic=6, element_cap=5))
    assert info.value.partial is not None


@pytest.mark.parametrize("phase,step", [
    ("the stage graph", "stage_graph"),
    ("the closure", "_combined_group"),
    ("conservation", "_conservation"),
])
def test_stage_timeout_is_checked_after_each_phase(monkeypatch, phase, step):
    from types import SimpleNamespace

    from acygroups import synthesis

    clock = [0.0]
    monkeypatch.setattr(synthesis, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    original = getattr(synthesis, step)
    calls = []

    def slow(*args, **kwargs):
        calls.append(step)
        out = original(*args, **kwargs)
        if len(calls) == 2:
            clock[0] += 100.0  # the second stage overruns in this phase
        return out

    monkeypatch.setattr(synthesis, step, slow)
    h2 = hypercube_group(["a", "b"])
    config = SynthesisConfig(n_acyclic=4, stage_timeout=10.0)
    with pytest.raises(ResourceCap, match=f"^stage 1 timed out after {phase}$") as info:
        construct_n_acyclic(h2, config)
    assert [r.order for r in info.value.stage_reports] == [4]
    assert info.value.partial.order == 4
    clock[0] = 0.0
    monkeypatch.setattr(synthesis, step, original)
    assert [r.order for r in construct_n_acyclic(h2, config)[1]] == [4, 12]


def test_search_budget_cap_carries_partial_reports():
    h2 = hypercube_group(["a", "b"])
    config = SynthesisConfig(n_acyclic=4, search_budget=1)
    with pytest.raises(ResourceCap, match="search budget 1 exceeded") as info:
        construct_n_acyclic(h2, config)
    # the second stage's search stops; the first stage is reported
    assert [r.order for r in info.value.stage_reports] == [4]
    assert info.value.partial.order == 4


def test_over_template_requires_compatibility():
    ig = path_igraph("ab", "ab")
    h2 = hypercube_group(["a", "b"])
    with pytest.raises(CompatibilityRequired):
        construct_n_acyclic(h2, SynthesisConfig(n_acyclic=2), ig)


def test_over_template_synthesis_path():
    ig = path_igraph("ab", "ab")
    g0 = sym(disjoint_union([ig, hypercube(ig.colors)]), attach_hypercube=False)
    cfg = SynthesisConfig(n_acyclic=2)
    result, reports = construct_n_acyclic(g0, cfg, ig)
    assert all(rep.conservation_ok for rep in reports)
    assert is_free_over(result, ig)
    assert find_i_coset_cycle(result, ig, 2) is None
    assert homomorphism(result, g0) is not None


def test_stage_groups_inherit_compatibility_from_the_homomorphism(monkeypatch):
    # the IContext of a tower's starting group is its compatibility check,
    # so it finds no verdict recorded; every stage group's IContext finds
    # the verdict for its template already recorded from the homomorphism
    # onto the stage before; a fresh walk on a copy of each group agrees
    from acygroups import synthesis
    from acygroups.covering import Hypergraph, intersection_graph
    from acygroups.groupoid import (
        ConstraintPattern,
        construct_n_acyclic_groupoid,
        pattern_igraph,
    )
    from acygroups.groups import EGroup, graph_generator_perms, is_compatible

    seen = []
    real = synthesis.IContext

    def recording(group, igraph):
        seen.append((group, igraph, group._compat_cache.get(tuple(graph_generator_perms(igraph)))))
        return real(group, igraph)

    monkeypatch.setattr(synthesis, "IContext", recording)
    path = new_egraph(["s0", "s1", "s2"], ["a", "b"], [("a", "s0", "s1"), ("b", "s1", "s2")])
    triangle = intersection_graph(Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]]))
    starts = []
    for template, n in ((path, 2), (triangle, 4)):
        g0 = sym(disjoint_union([template, hypercube(template.colors)]), attach_hypercube=False)
        starts.append(g0)
        construct_n_acyclic(g0, SynthesisConfig(n_acyclic=n, early_exit=n > 2), template)
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    construct_n_acyclic_groupoid(
        pattern, pattern_igraph(pattern), SynthesisConfig(n_acyclic=2, early_exit=True)
    )
    unverified = [group for group, _, verdict in seen if verdict is None]
    # the groupoid tower's starting group is the third
    assert seen[0][0] is starts[0] and unverified[:2] == starts and len(unverified) == 3
    stage_groups = 0
    for group, igraph, verdict in seen:
        fresh = EGroup(group.colors, group.gen_action, group.order)
        assert verdict in (None, True) and is_compatible(fresh, igraph)
        stage_groups += verdict is True and group.order > 48
    assert stage_groups >= 2  # orders 2592 and 96


def test_over_trivial_template_matches_plain():
    from conftest import trivial_constraint_graph

    h2 = hypercube_group(["a", "b"])
    trivial = trivial_constraint_graph(h2.colors)
    cfg = SynthesisConfig(n_acyclic=3)
    over, _ = construct_n_acyclic(h2, cfg, trivial)
    plain, _ = construct_n_acyclic(h2, cfg)
    assert find_coset_cycle(over, 3) is None and find_coset_cycle(plain, 3) is None


def test_symmetry_preserved_over_template():
    # the two-edge path template is symmetric under swapping its colours
    # composed with reversing the path, which fixes the graph up to iso
    ig = path_igraph("ab", "ab")
    from oracles import is_symmetry

    rho = {"a": "b", "b": "a"}
    assert is_symmetry(ig, rho)
    g0 = sym(disjoint_union([ig, hypercube(ig.colors)]), attach_hypercube=False)
    assert is_group_symmetry(g0, rho)
    result, _ = construct_n_acyclic(g0, SynthesisConfig(n_acyclic=2), ig)
    assert is_group_symmetry(result, rho)


def test_longer_chain_synthesis_two_colors():
    # N = 6 exercises chains of length up to 4; with two colours the result
    # is a long-girth dihedral group (observed order 120, pinned as derived)
    h2 = hypercube_group(["a", "b"])
    result, _ = construct_n_acyclic(h2, SynthesisConfig(n_acyclic=6))
    assert find_coset_cycle(result, 6) is None
    assert girth(result) > 6
    assert result.order == 120


def test_three_color_tower_from_non_acyclic_seed():
    # the three-transposition triangle group is not even 2-acyclic; the
    # tower unfolds it through all three stages (observed 6 -> 24 -> 648)
    from acygroups.acyclicity import is_two_acyclic

    seed = sym(new_egraph([0, 1, 2], ["a", "b", "c"],
                          [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)]),
               attach_hypercube=False)
    assert not is_two_acyclic(seed, range(3))
    result, reports = construct_n_acyclic(seed, SynthesisConfig(n_acyclic=3))
    assert [r.order for r in reports] == [6, 24, 648]
    assert all(r.conservation_ok for r in reports)
    assert find_coset_cycle(result, 3) is None


def test_already_acyclic_seed_is_conserved():
    h3 = hypercube_group(["a", "b", "c"])
    result, reports = construct_n_acyclic(h3, SynthesisConfig(n_acyclic=3))
    assert result.order == 8
    assert [r.order for r in reports] == [8, 8, 8]
    assert all(r.conservation_ok for r in reports)
    assert find_coset_cycle(result, 3) is None
    assert is_group_symmetry(result, {"a": "b", "b": "c", "c": "a"})


def test_final_checks_recorded_on_last_report():
    h2 = hypercube_group(["a", "b"])
    _, reports = construct_n_acyclic(h2, SynthesisConfig(n_acyclic=4))
    assert reports[-1].final_checks == {"n_acyclic": True}
    ig = path_igraph("ab", "ab")
    from acygroups.egraph import disjoint_union, hypercube as cube

    g0 = sym(disjoint_union([ig, cube(ig.colors)]), attach_hypercube=False)
    _, over_reports = construct_n_acyclic(g0, SynthesisConfig(n_acyclic=2), ig)
    assert over_reports[-1].final_checks == {
        "n_acyclic": True, "free_over": True, "n_acyclic_over": True,
    }


def _record_searches(monkeypatch):
    """Log each plain and template search the tower runs, keyed by group,
    length and subset family; the groups are kept alive so keys stay unique."""
    from acygroups import synthesis

    log = []
    plain, over = synthesis.find_coset_cycle, synthesis.find_i_coset_cycle

    def find_coset_cycle(group, n_max, gamma=None, allow_full=False, budget=None, deadline=None):
        n = len(group.colors)
        family = gamma.subsets(n, allow_full=allow_full) if gamma else proper_subsets(n)
        log.append(("plain", group, n_max, tuple(tuple(sorted(a)) for a in family)))
        return plain(group, n_max, gamma=gamma, allow_full=allow_full, budget=budget,
                     deadline=deadline)

    def find_i_coset_cycle(group, igraph, n_max, ctx=None, budget=None, deadline=None):
        log.append(("over", group, n_max, None))
        return over(group, igraph, n_max, ctx=ctx, budget=budget, deadline=deadline)

    monkeypatch.setattr(synthesis, "find_coset_cycle", find_coset_cycle)
    monkeypatch.setattr(synthesis, "find_i_coset_cycle", find_i_coset_cycle)
    return log


def _repeats(log):
    keys = [(kind, id(group), n, family) for kind, group, n, family in log]
    return len(keys) - len(set(keys))


def test_plain_tower_searches_each_group_once(monkeypatch):
    log = _record_searches(monkeypatch)
    _, reports = construct_n_acyclic(hypercube_group(["a", "b"]), SynthesisConfig(n_acyclic=4))
    assert len(log) == 2 and _repeats(log) == 0
    assert reports[-1].final_checks == {"n_acyclic": True}


def test_over_template_tower_with_early_exit_searches_each_group_once(monkeypatch):
    ig = path_igraph("ab", "ab")
    seed = sym(disjoint_union([ig, hypercube(ig.colors)]), attach_hypercube=False)
    log = _record_searches(monkeypatch)
    _, reports = construct_n_acyclic(
        seed, SynthesisConfig(n_acyclic=2, early_exit=True), ig
    )
    assert log and _repeats(log) == 0
    assert all(reports[-1].final_checks.values())


def _product_then_filter_chains(group, subsets, max_len, dedupe):
    """Every subset sequence times every pointing, each offered to
    amalgam_chain, which rejects the chains with interfering overlaps."""
    from itertools import product

    from acygroups.amalgam import amalgam_chain

    store, seen = [], set()
    for length in range(1, max_len + 1):
        for alphas in product(subsets, repeat=length):
            pointings = [group.subgroup_elements(a) for a in alphas[:-1]] + [(0,)]
            for gs in product(*pointings):
                am = amalgam_chain(group, list(zip(alphas, gs)))
                if am is None:
                    continue
                key = canonical_form(am.graph)
                if dedupe and key in seen:
                    continue
                seen.add(key)
                store.append((key, am.graph))
    return store


# longest chain offered to the oracle per (colours, k): its product of
# pointings grows as |G|^(L-1), so wide subsets get shorter chains
_ORACLE_CHAIN_LENGTHS = {(1, 1): 5, (2, 1): 5, (2, 2): 4, (3, 1): 5, (3, 2): 3, (3, 3): 2}


@pytest.mark.parametrize("hyperedges,n,parts,points,bound", [
    ([[0, 1], [1, 2], [0, 2]], 5, 17, 56, 1327104),
    ([[0, 1, 2], [0, 3], [1, 3]], 5, 17, 56, 1327104),
    ([[0, 1], [1, 2], [0, 2]], 6, 29, 116, 1036800),
], ids=["triangle-5", "three_edges-5", "triangle-6"])
def test_components_together_refusals_come_after_the_last_part(monkeypatch, hyperedges, n,
                                                               parts, points, bound):
    # the over-template towers refused at stage 1: every component passes
    # the cap alone, so the whole stage graph is built and sized, and the
    # group of its components together, sized before the closure, refuses it
    from acygroups import synthesis
    from acygroups.covering import Hypergraph, intersection_graph

    kept, closures = [], []
    stage, combined = synthesis.stage_graph, synthesis._combined_group

    def keeping(*args, **kwargs):
        components, inventory = stage(*args, **kwargs)
        kept.append(len(components))
        return components, inventory

    def combined_group(*args, **kwargs):
        new = combined(*args, **kwargs)
        closures.append(new.order)
        return new

    monkeypatch.setattr(synthesis, "stage_graph", keeping)
    monkeypatch.setattr(synthesis, "_combined_group", combined_group)
    vertices = sorted({v for edge in hyperedges for v in edge})
    template = intersection_graph(Hypergraph(vertices, hyperedges))
    seed = sym(disjoint_union([template, hypercube(template.colors)]), attach_hypercube=False)
    with pytest.raises(ResourceCap) as info:
        construct_n_acyclic(seed, SynthesisConfig(n_acyclic=n, early_exit=True), template)
    assert str(info.value) == (
        f"element cap 1000000 exceeded: the group has order at least {bound} "
        f"({parts} components together: {points} points)"
    )
    assert closures == [24] and [r.order for r in info.value.stage_reports] == [24]
    assert kept == [0, parts]


@pytest.mark.parametrize("name", sorted(corpus()))
def test_chain_enumeration_matches_product_then_filter(small_groups, name):
    from acygroups.acyclicity import all_subsets
    from acygroups.synthesis import _enumerate_chains

    group = small_groups[name]
    n = len(group.colors)
    for k in range(1, n + 1):
        subsets = [a for a in all_subsets(n, max_size=k) if a]
        max_len = _ORACLE_CHAIN_LENGTHS[n, k]
        # the smallest two-colour groups also reach three interior positions
        if (n, k) == (2, 2) and group.order <= 6:
            max_len = 5
        got = list(_enumerate_chains(group, subsets, max_len))
        want = _product_then_filter_chains(group, subsets, max_len, True)
        assert [key for key, _ in got] == [key for key, _ in want], k
        for (_, g1), (_, g2) in zip(got, want):
            assert g1.partner == g2.partner and g1.vertex_names == g2.vertex_names


def test_cube_tower_offers_amalgam_chain_only_admissible_chains(monkeypatch):
    from acygroups import synthesis

    calls, built = [], []
    chain = synthesis.amalgam_chain

    def amalgam_chain(group, items):
        am = chain(group, items)
        calls.append(items)
        if am is not None:
            built.append(am)
        return am

    monkeypatch.setattr(synthesis, "amalgam_chain", amalgam_chain)
    _, reports = construct_n_acyclic(hypercube_group(["a", "b"]), SynthesisConfig(n_acyclic=10))
    assert [r.order for r in reports] == [4, 5040]
    assert len(calls) == len(built) == 18


def test_cube_3_refusal_offers_amalgam_chain_only_identity_first_points(monkeypatch):
    # the refused cube_3 tower at N = 4 builds each chain once, every one
    # with its first and last points at the identity; the third stage graph
    # is sized as it is kept and refused at its first 13-point chain, part
    # 9, so only 24 of the 54 chains the whole stage graph would offer are
    # built
    from acygroups import synthesis

    calls, closures = [], []
    chain, combined = synthesis.amalgam_chain, synthesis._combined_group

    def amalgam_chain(group, items):
        calls.append(items)
        return chain(group, items)

    def combined_group(*args, **kwargs):
        new = combined(*args, **kwargs)
        closures.append(new.order)
        return new

    monkeypatch.setattr(synthesis, "amalgam_chain", amalgam_chain)
    monkeypatch.setattr(synthesis, "_combined_group", combined_group)
    config = SynthesisConfig(n_acyclic=4, early_exit=True)
    with pytest.raises(ResourceCap) as info:
        construct_n_acyclic(hypercube_group(["a", "b", "c"]), config)
    assert str(info.value) == (
        "element cap 1000000 exceeded: the group has order at least 1058400 "
        "(part 9: 13 points, order at least 1058400)"
    )
    assert closures == [8, 216]
    assert len(calls) == 24
    assert all(items[0][1] == items[-1][1] == 0 for items in calls)


@pytest.mark.parametrize("name", sorted(corpus()))
def test_chains_differing_in_their_first_point_are_isomorphic(small_groups, name):
    # the first point g_0 is read only by the glue between copies 0 and 1,
    # and x -> g_0^-1 * x on copy 0 maps the chain onto the one with g_0 = 1:
    # both are undefined together, or colour isomorphic
    from itertools import product

    from acygroups.acyclicity import all_subsets
    from acygroups.amalgam import amalgam_chain

    group = small_groups[name]
    subsets = [a for a in all_subsets(len(group.colors), max_size=2) if a]
    for length in (2, 3):
        for alphas in product(subsets, repeat=length):
            interiors = [group.subgroup_elements(a) for a in alphas[1:-1]]
            for middle in product(*interiors):
                rest = list(zip(alphas[1:], [*middle, 0]))
                pinned = amalgam_chain(group, [(alphas[0], 0), *rest])
                key = None if pinned is None else canonical_form(pinned.graph)
                for x in group.subgroup_elements(alphas[0]):
                    am = amalgam_chain(group, [(alphas[0], x), *rest])
                    assert (am is None) == (pinned is None), (alphas, x, middle)
                    if am is not None:
                        assert canonical_form(am.graph) == key, (alphas, x, middle)


def test_stage_timeout_reaches_into_the_chain_enumeration(monkeypatch):
    # the clock is read before each chain is offered: a clock that passes
    # the deadline during the first chain of stage 1 stops the enumeration
    # at the second, with stage 0 reported
    from types import SimpleNamespace

    from acygroups import synthesis

    clock = [0.0]
    monkeypatch.setattr(synthesis, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    chain = synthesis.amalgam_chain

    def amalgam_chain(group, items):
        clock[0] += 100.0
        return chain(group, items)

    monkeypatch.setattr(synthesis, "amalgam_chain", amalgam_chain)
    h2 = hypercube_group(["a", "b"])
    config = SynthesisConfig(n_acyclic=4, stage_timeout=10.0)
    with pytest.raises(ResourceCap, match="^stage graph timed out after 1 chains$") as info:
        construct_n_acyclic(h2, config)
    assert [r.order for r in info.value.stage_reports] == [4]
    assert info.value.partial.order == 4


def test_stage_timeout_reaches_into_conservation(monkeypatch):
    # the clock is read before each subset conservation walks: a clock that
    # passes the deadline after the closure check and conservation's first
    # subset (the empty one) in stage 1 stops it at the next, with stage 0
    # reported
    from types import SimpleNamespace

    from acygroups import synthesis

    reads = []  # the reads left before the clock passes, once armed

    def monotonic():
        if not reads:
            return 0.0
        reads[0] -= 1
        return 0.0 if reads[0] >= 0 else 100.0

    monkeypatch.setattr(synthesis, "time", SimpleNamespace(monotonic=monotonic))
    combined, calls = synthesis._combined_group, []

    def combined_group(*args):
        calls.append(1)
        if len(calls) == 2:
            reads.append(2)
        return combined(*args)

    monkeypatch.setattr(synthesis, "_combined_group", combined_group)
    h2 = hypercube_group(["a", "b"])
    config = SynthesisConfig(n_acyclic=4, stage_timeout=10.0)
    with pytest.raises(ResourceCap, match=r"^conservation timed out at subset \[0\]$") as info:
        construct_n_acyclic(h2, config)
    assert [r.order for r in info.value.stage_reports] == [4]
    assert info.value.partial.order == 4


@pytest.mark.parametrize("step,kind", [
    ("amalgam_cluster", "clusters"),
    ("small_coset_amalgam", "extensions"),
])
def test_stage_timeout_reaches_into_the_template_components(monkeypatch, step, kind):
    # the clock is read before each cluster and each skeleton extension: a
    # clock that passes the deadline during the first of them in stage 1 of
    # the triangle's template tower stops it at the second, with stage 0
    # reported; the searches and freeness checks read the same clock
    from types import SimpleNamespace

    from acygroups import acyclicity, constraint, synthesis, traverse
    from acygroups.covering import Hypergraph, intersection_graph

    template = intersection_graph(Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]]))
    seed = sym(disjoint_union([template, hypercube(template.colors)]), attach_hypercube=False)
    clock = [0.0]
    fake = SimpleNamespace(monotonic=lambda: clock[0])
    for module in (acyclicity, constraint, synthesis, traverse):
        monkeypatch.setattr(module, "time", fake)
    original = getattr(synthesis, step)

    def slow(*args, **kwargs):
        clock[0] += 100.0
        return original(*args, **kwargs)

    monkeypatch.setattr(synthesis, step, slow)
    config = SynthesisConfig(n_acyclic=4, early_exit=True, stage_timeout=10.0)
    with pytest.raises(ResourceCap, match=f"^stage graph timed out after 1 {kind}$") as info:
        construct_n_acyclic(seed, config, template)
    assert [r.order for r in info.value.stage_reports] == [24]
    assert info.value.partial.order == 24


def test_canonical_component_matches_the_full_codes_on_the_stage_graphs():
    # in ascending and descending start order; the stage graphs are sized
    # as they are kept, and those of biggs_3_1 and s3_three_gen at k = 2, 3
    # prove orders up to 319,334,400, so the cap is raised past that to
    # label every component
    compared = 0
    config = SynthesisConfig(n_acyclic=5, element_cap=10**9)
    for group in corpus().values():
        for k in range(1, len(group.colors) + 1):
            for graph, _, _ in stage_graph(group, k, config=config)[0]:
                for members in connected_components(graph):
                    for starts in (members, members[::-1]):
                        assert canonical_component(graph, starts) == \
                            reference_canonical_component(graph, starts)[0]
                        compared += 1
    assert compared > 100
