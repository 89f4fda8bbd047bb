"""Acceptance suite: one verdict line per criterion.

Each test exercises one acceptance criterion at its stated tolerance and
runtime budget and prints a PASS line; a failed assertion marks the
criterion as failed.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import pytest

from acygroups import serialize as ser
from acygroups.acyclicity import find_coset_cycle, girth, is_two_acyclic
from acygroups.amalgam import amalgam_chain
from acygroups.constraint import find_i_coset_cycle, is_free_over, validate_i_coset_cycle
from acygroups.covering import (
    Hypergraph,
    check_n_acyclic_hypergraph,
    hypergraph_cover,
    intersection_graph,
    verify_cover,
)
from acygroups.egraph import biggs_tree, disjoint_union, hypercube, new_egraph
from acygroups.groupoid import (
    ConstraintPattern,
    construct_n_acyclic_groupoid,
    find_groupoid_coset_cycle,
    groupoid_from_group,
    hat_translation,
    is_compatible_groupoid,
    pattern_igraph,
    translate_groupoid_cycle,
    verify_groupoid_axioms,
)
from acygroups.groups import cayley_graph, is_group_symmetry, sym
from acygroups.synthesis import SynthesisConfig, construct_n_acyclic

from conftest import (
    biggs_group,
    corpus,
    coset_graph,
    evaluate_word,
    hypercube_group,
    s3_three_generators,
)
from paper_checks import FailureWitness, embed_into_cayley, has_cluster_property


def _report(num, label, started):
    elapsed = time.monotonic() - started
    print(f"[criterion {num:2d}] PASS {label} ({elapsed:.1f}s)")


def _budget(started, limit, label):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"{label} exceeded its {limit}s budget ({elapsed:.1f}s)"


def test_criterion_01_biggs_girth_bound():
    started = time.monotonic()
    observed = {}
    for colors, depth in [(["a", "b"], 1), (["a", "b"], 2), (["a", "b", "c"], 1)]:
        t0 = time.monotonic()
        group = sym(biggs_tree(colors, depth), attach_hypercube=False)
        value = girth(group)
        assert value >= 4 * depth + 2, (colors, depth, value)
        observed[(len(colors), depth)] = value
        _budget(t0, 10, f"girth for ({len(colors)},{depth})")
    assert observed[(2, 1)] == 6
    assert observed[(2, 2)] == 10
    assert observed[(3, 1)] == 6
    _report(1, f"girth bounds hold, observed {sorted(observed.items())}", started)


def test_criterion_02_two_acyclicity_characterisation():
    started = time.monotonic()
    groups = corpus()
    assert len(groups) >= 10
    assert all(g.order <= 48 for g in groups.values())
    disagreements = []
    for name, group in groups.items():
        via_intersections = is_two_acyclic(group, range(len(group.colors)))
        via_search = find_coset_cycle(group, 2) is None
        if via_intersections != via_search:
            disagreements.append(name)
    assert not disagreements
    _budget(started, 60, "criterion 2")
    _report(2, f"{len(groups)} groups, zero disagreements", started)


def test_criterion_03_three_acyclicity_lemma():
    started = time.monotonic()
    from acygroups.acyclicity import proper_subsets

    seeds = {
        "four_group": hypercube_group(["a", "b"]),
        "eight_group": hypercube_group(["a", "b", "c"]),
        "dihedral_six": biggs_group(["a", "b"], 1),
    }
    for name, g0 in seeds.items():
        t0 = time.monotonic()
        comps = [cayley_graph(g0)]
        comps += [coset_graph(g0, sorted(a)) for a in proper_subsets(len(g0.colors))]
        lifted = sym(disjoint_union(comps), attach_hypercube=False)
        assert find_coset_cycle(lifted, 3) is None, name
        _budget(t0, 120, f"criterion 3 seed {name}")
    _report(3, "three seed groups lift to 3-acyclic groups", started)


def test_criterion_04_amalgam_embedding():
    started = time.monotonic()
    # injective on 2-acyclic constituents
    h3 = hypercube_group(["a", "b", "c"])
    am = amalgam_chain(h3, [([0, 1], 0), ([1, 2], 0)])
    assert not isinstance(embed_into_cayley(am, h3), FailureWitness)
    # injective for chains within the acyclicity bound
    s3 = biggs_group(["a", "b"], 1)
    pa, pb = evaluate_word(s3, ["a"]), evaluate_word(s3, ["b"])
    chain = amalgam_chain(s3, [([0], pa), ([1], pb), ([0], pa), ([1], pb)])
    assert chain is not None
    assert not isinstance(embed_into_cayley(chain, s3), FailureWitness)
    # witness on the non-2-acyclic triangle group
    tri = s3_three_generators()
    bad = amalgam_chain(tri, [([0, 1], 0), ([0, 2], 0)])
    witness = embed_into_cayley(bad, tri)
    assert isinstance(witness, FailureWitness)
    _report(4, "embeddings injective exactly within acyclicity; witness found", started)


def test_criterion_05_full_plain_synthesis():
    started = time.monotonic()
    seed = hypercube_group(["a", "b"])
    result, reports = construct_n_acyclic(seed, SynthesisConfig(n_acyclic=4))
    assert len(reports) == 2
    for rep in reports:
        assert rep.conservation_ok, rep.stage
        for key, (before, after, iso_ok) in rep.conservation.items():
            assert before == after and iso_ok, (rep.stage, key)
    assert find_coset_cycle(result, 4) is None
    assert is_group_symmetry(result, {"a": "b", "b": "a"})
    _budget(started, 600, "criterion 5")
    _report(5, f"tower of {len(reports)} stages, final order {result.order}", started)


def test_criterion_06_cluster_property():
    started = time.monotonic()
    failures = []
    for name, group in corpus().items():
        if not is_two_acyclic(group, range(len(group.colors))):
            continue
        if not has_cluster_property(group, max_constituents=3):
            failures.append(name)
    assert not failures
    _report(6, "every 2-acyclic corpus group has the cluster property", started)


def test_criterion_07_over_template_synthesis_and_transfer():
    started = time.monotonic()
    template = new_egraph(
        ["s0", "s1", "s2"], ["a", "b"], [("a", "s0", "s1"), ("b", "s1", "s2")]
    )
    seed = sym(disjoint_union([template, hypercube(template.colors)]), attach_hypercube=False)
    result, reports = construct_n_acyclic(seed, SynthesisConfig(n_acyclic=2), template)
    assert all(rep.conservation_ok for rep in reports)
    assert is_free_over(result, template)
    assert find_i_coset_cycle(result, template, 2) is None
    _budget(started, 600, "criterion 7")
    _report(7, f"order {result.order} group free and 2-acyclic over the template", started)


def test_criterion_08_groupoid_pipeline():
    started = time.monotonic()
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    target = pattern_igraph(pattern)
    res = construct_n_acyclic_groupoid(
        pattern, target, SynthesisConfig(n_acyclic=2, early_exit=True)
    )
    assert res.checks == {"axioms": True, "acyclic": True, "compatible": True}
    assert verify_groupoid_axioms(res.groupoid)
    assert find_groupoid_coset_cycle(res.groupoid, 2) is None
    assert is_compatible_groupoid(res.groupoid, target)

    # negative control: a weak extraction over two parallel pairs has a
    # groupoid coset cycle whose translation is a template coset cycle
    weak_pattern = ConstraintPattern(
        ["s", "t"],
        [("e", "s", "t", "ei"), ("ei", "t", "s", "e"),
         ("f", "s", "t", "fi"), ("fi", "t", "s", "f")],
    )
    hat = hat_translation(weak_pattern)
    weak_group = sym(hat.igraph, attach_hypercube=False)
    weak_gpd = groupoid_from_group(weak_group, hat)
    injected = find_groupoid_coset_cycle(weak_gpd, 10, budget=50_000_000)
    assert injected is not None
    translated = translate_groupoid_cycle(weak_gpd, hat, injected)
    assert validate_i_coset_cycle(weak_group, hat.igraph, translated)
    assert len(translated) == len(injected)
    _report(8, f"groupoid of order {res.groupoid.order} verified; translation closes", started)


@pytest.fixture(scope="module")
def triangle_setup():
    tri = Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]])
    template = intersection_graph(tri)
    seed = sym(disjoint_union([template, hypercube(template.colors)]), attach_hypercube=False)
    group, _ = construct_n_acyclic(
        seed, SynthesisConfig(n_acyclic=4, early_exit=True), template
    )
    return tri, template, group


def test_criterion_09_hypergraph_covering(triangle_setup):
    started = time.monotonic()
    tri, template, group = triangle_setup
    assert is_free_over(group, template)
    assert find_i_coset_cycle(group, template, 4) is None
    cov = hypergraph_cover(tri, group)
    report = verify_cover(cov)
    assert report.ok, report.issues
    ok, witness = check_n_acyclic_hypergraph(cov.cover, 4)
    assert ok and witness is None
    base_ok, base_witness = check_n_acyclic_hypergraph(tri, 3)
    assert not base_ok and base_witness.kind == "nonconformal_clique"
    _budget(started, 300, "criterion 9")
    _report(9, f"cover on {cov.cover.n} vertices passes at level 4; base fails at 3", started)


def test_criterion_10_determinism(tmp_path):
    started = time.monotonic()

    def artefacts():
        docs = {}
        t_group = sym(biggs_tree(["a", "b"], 1), attach_hypercube=False)
        docs["tree_group"] = ser.egroup_to_json(t_group)
        docs["tree_cayley"] = ser.egraph_to_json(cayley_graph(t_group))
        cyc = find_coset_cycle(t_group, 6)
        docs["witness"] = ser.cycle_to_json(t_group, cyc)

        seed = hypercube_group(["a", "b"])
        result, reports = construct_n_acyclic(seed, SynthesisConfig(n_acyclic=4))
        docs["constructed"] = ser.egroup_to_json(result)
        docs["reports"] = ser.reports_to_json(reports)

        template = new_egraph(
            ["s0", "s1", "s2"], ["a", "b"], [("a", "s0", "s1"), ("b", "s1", "s2")]
        )
        seed2 = sym(disjoint_union([template, hypercube(template.colors)]),
                    attach_hypercube=False)
        over, over_reports = construct_n_acyclic(
            seed2, SynthesisConfig(n_acyclic=2), template
        )
        docs["constructed_over"] = ser.egroup_to_json(over)
        docs["reports_over"] = ser.reports_to_json(over_reports)

        pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
        res = construct_n_acyclic_groupoid(
            pattern, pattern_igraph(pattern), SynthesisConfig(n_acyclic=2, early_exit=True)
        )
        docs["groupoid"] = ser.igroupoid_to_json(res.groupoid)

        tri = Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]])
        ig = intersection_graph(tri)
        g0 = sym(disjoint_union([ig, hypercube(ig.colors)]), attach_hypercube=False)
        cover_group, _ = construct_n_acyclic(
            g0, SynthesisConfig(n_acyclic=4, early_exit=True), ig
        )
        docs["cover"] = ser.covering_to_json(hypergraph_cover(tri, cover_group))
        docs["manifest"] = ser.manifest(
            ["acceptance"], {"N": 4},
            {k: ser.digest(v) for k, v in sorted(docs.items()) if k != "manifest"},
            {},
        )
        return {k: ser.canonical_bytes(v) for k, v in docs.items()}

    first = artefacts()
    second = artefacts()
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key], f"{key} not byte-identical"
    _report(10, f"{len(first)} artefacts byte-identical across repeated runs", started)
