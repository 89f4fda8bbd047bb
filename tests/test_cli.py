import json

import pytest

from acygroups import groupoid
from acygroups import serialize as ser
from acygroups.acyclicity import find_coset_cycle
from acygroups.cli import main
from acygroups.covering import Hypergraph, intersection_graph
from acygroups.egraph import biggs_tree, disjoint_union, hypercube
from acygroups.errors import UnknownName
from acygroups.groupoid import (
    ConstraintPattern,
    IGraph,
    groupoid_from_group,
    hat_translation,
    pattern_igraph,
)
from acygroups.groups import DEFAULT_ELEMENT_CAP, EGroup, sym

from conftest import biggs_group, hypercube_group, named_hypergraph, trivial_constraint_graph
from test_serialize import _paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_bytes(ser.canonical_bytes(doc))
    return str(path)


def test_biggs_then_symgroup(tmp_path, capsys):
    tree = str(tmp_path / "tree.json")
    code, _ = run(capsys, "biggs", "-E", "a,b", "-n", "1", "-o", tree)
    assert code == 0
    code, out = run(capsys, "symgroup", tree, "--no-hypercube")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 6


def test_repeated_colours_are_refused_as_colours(capsys):
    # before, the tree's vertex names collided first: "duplicate vertex names"
    code = main(["biggs", "-E", "a,b,a", "-n", "2"])
    assert (code, *capsys.readouterr()) == (3, "", "invalid input: duplicate colour names\n")
    for make in (lambda: hypercube(["a", "a"]), lambda: biggs_tree(["a", "a"], 1)):
        with pytest.raises(UnknownName, match="^duplicate colour names$"):
            make()


def test_symgroup_refuses_a_hypercube_past_the_vertex_cap(tmp_path, capsys):
    # one vertex and 21 colours: the attached hypercube would have 2^21 vertices
    colors = [f"c{i:02}" for i in range(21)]
    graph = write(tmp_path, "g.json", {"format": "egraph", "vertices": ["0"], "colors": colors,
                                       "edges": []})
    code = main(["symgroup", graph])
    assert (code, *capsys.readouterr()) == (
        2, "", "resource cap: hypercube 2^21 exceeds cap 1000000\n")


def test_symgroup_from_stdin(tmp_path, capsys, monkeypatch):
    import io

    doc = ser.egraph_to_json(hypercube(["a", "b"]))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out = run(capsys, "symgroup", "-", "--no-hypercube")
    assert code == 0
    assert json.loads(out)["order"] == 4


def test_check_acyclic_exit_codes(tmp_path, capsys):
    tree = str(tmp_path / "tree.json")
    run(capsys, "biggs", "-E", "a,b", "-n", "1", "-o", tree)
    group = str(tmp_path / "g.json")
    code, _ = run(capsys, "symgroup", tree, "--no-hypercube", "-o", group)
    assert code == 0
    code, out = run(capsys, "check-acyclic", group, "-N", "5")
    assert code == 0 and json.loads(out)["holds"]
    witness = str(tmp_path / "w.json")
    code, _ = run(capsys, "check-acyclic", group, "-N", "6", "-o", witness)
    assert code == 1
    wdoc = json.loads(open(witness).read())
    assert wdoc["format"] == "coset_cycle" and len(wdoc["entries"]) == 6
    code, out = run(capsys, "verify-witness", witness, group)
    assert code == 0 and json.loads(out)["witness_valid"]


def test_check_acyclic_bound_far_past_the_cycle_it_finds(tmp_path, capsys):
    # the search's per-length state grows with the lengths it tries, so
    # -N 10^11 on the order-24 group returns the 4-cycle of -N 6 at once,
    # with no memory spent on the lengths it never reaches
    import tracemalloc

    group = write(tmp_path, "g.json", ser.egroup_to_json(biggs_group(["a", "b", "c"], 1)))
    code, witness = run(capsys, "check-acyclic", group, "-N", "6")
    assert code == 1 and len(json.loads(witness)["entries"]) == 4
    tracemalloc.start()
    try:
        got = run(capsys, "check-acyclic", group, "-N", str(10**11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (1, witness)
    assert peak < 1_000_000


def test_cayley_and_girth(tmp_path, capsys):
    tree = str(tmp_path / "tree.json")
    run(capsys, "biggs", "-E", "a,b", "-n", "2", "-o", tree)
    group = str(tmp_path / "g.json")
    run(capsys, "symgroup", tree, "--no-hypercube", "-o", group)
    code, out = run(capsys, "girth", group)
    assert code == 0 and json.loads(out)["girth"] == 10
    code, out = run(capsys, "cayley", group)
    assert code == 0 and len(json.loads(out)["vertices"]) == 10


def test_construct_with_manifest(tmp_path, capsys):
    group = write(tmp_path, "g.json", ser.egroup_to_json(
        sym(hypercube(["a", "b"]), attach_hypercube=False)))
    out = str(tmp_path / "out.json")
    reports = str(tmp_path / "reports.json")
    manifest = str(tmp_path / "manifest.json")
    code, _ = run(capsys, "construct", group, "-N", "4", "-o", out,
                  "--reports", reports, "--manifest", manifest)
    assert code == 0
    rep = json.loads(open(reports).read())
    assert rep["format"] == "stage_reports" and len(rep["stages"]) == 2
    man = json.loads(open(manifest).read())
    assert man["format"] == "manifest" and out in man["outputs"]
    assert "timings" not in man
    code2, _ = run(capsys, "check-acyclic", out, "-N", "4")
    assert code2 == 0


def test_construct_cap_exit_code(tmp_path, capsys):
    group = write(tmp_path, "g.json", ser.egroup_to_json(
        sym(hypercube(["a", "b"]), attach_hypercube=False)))
    code, _ = run(capsys, "construct", group, "-N", "6", "--cap", "5")
    assert code == 2


def test_invalid_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format\": \"egraph\", \"vertices\": [\"0\"], \"colors\": [\"a\"], \"edges\": [[\"a\", \"0\", \"x\"]]}")
    code, _ = run(capsys, "symgroup", str(bad))
    assert code == 3
    code, _ = run(capsys, "symgroup", str(tmp_path / "missing.json"))
    assert code == 3


def test_groupoid_construct(tmp_path, capsys):
    pattern = write(tmp_path, "p.json", ser.pattern_to_json(
        ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])))
    out = str(tmp_path / "gpd.json")
    code, _ = run(capsys, "groupoid-construct", pattern, "-N", "2", "--early-exit", "-o", out)
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["format"] == "igroupoid"
    assert "composition" in doc


def test_groupoid_construct_cap_reaches_the_start_group(tmp_path, capsys):
    # the start group of the path of two edge pairs has order 161,280: the
    # cap refuses it from its order bound, before it is enumerated
    pattern = write(tmp_path, "p.json", ser.pattern_to_json(ConstraintPattern(
        ["s", "t", "u"], [("e", "s", "t", "f"), ("f", "t", "s", "e"),
                          ("g", "t", "u", "h"), ("h", "u", "t", "g")])))
    code = main(["groupoid-construct", pattern, "-N", "2", "--cap", "100"])
    assert code == 2
    assert capsys.readouterr().err == (
        "resource cap: element cap 100 exceeded: the group has order at least 120"
        " (part 0: 7 points, order at least 120)\n")


def test_cover_hypergraph_and_verify(tmp_path, capsys):
    tri = write(tmp_path, "tri.json", ser.hypergraph_to_json(
        Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]])))
    from acygroups.covering import intersection_graph
    from acygroups.synthesis import SynthesisConfig, construct_n_acyclic

    ig = intersection_graph(Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]]))
    g0 = sym(disjoint_union([ig, hypercube(ig.colors)]), attach_hypercube=False)
    good, _ = construct_n_acyclic(g0, SynthesisConfig(n_acyclic=4, early_exit=True), ig)
    group = write(tmp_path, "group.json", ser.egroup_to_json(good))
    cover = str(tmp_path / "cover.json")
    code, _ = run(capsys, "cover-hypergraph", tri, group, "-o", cover)
    assert code == 0
    code, out = run(capsys, "verify-cover", cover, "-N", "4")
    assert code == 0 and json.loads(out)["holds"]
    # negative control: the base itself fails at level 3
    code, out = run(capsys, "verify-cover", write(tmp_path, "basecover.json", {
        "format": "covering", "kind": "hypergraph",
        "cover": ser.hypergraph_to_json(Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]])),
    }), "-N", "3")
    assert code == 1


def test_cover_graph_command(tmp_path, capsys):
    graph = write(tmp_path, "k3.json", ser.graph_to_json([(0, 1), (1, 2), (0, 2)]))
    from acygroups.covering import graph_template

    template = graph_template([("0", "1"), ("1", "2"), ("0", "2")])
    g = sym(template, attach_hypercube=True)
    group = write(tmp_path, "group.json", ser.egroup_to_json(g))
    code, out = run(capsys, "cover-graph", graph, group)
    assert code == 0
    assert json.loads(out)["kind"] == "graph"


def test_cover_graph_of_an_edgeless_base_is_refused(tmp_path, capsys):
    graph = write(tmp_path, "empty.json", ser.graph_to_json([]))
    group = write(tmp_path, "group.json", ser.egroup_to_json(EGroup([], [], 1)))
    code = main(["cover-graph", graph, group])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "invalid input: base graph must have at least one edge\n"


def test_verify_cover_finds_a_cycle_off_vertex_zero(tmp_path, capsys):
    # vertex 0 of the paw graph's 8-vertex cover is on no cycle; its 6-cycle
    # is found only by sweeping the other vertices
    from acygroups.covering import graph_template

    paw = [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v1", "v3")]
    graph = write(tmp_path, "paw.json", ser.graph_to_json(paw))
    group = write(tmp_path, "group.json", ser.egroup_to_json(sym(graph_template(paw))))
    cover = str(tmp_path / "cover.json")
    assert run(capsys, "cover-graph", graph, group, "-o", cover)[0] == 0
    for n, code in ((5, 0), (6, 1), (7, 1)):
        assert run(capsys, "verify-cover", cover, "-N", str(n)) == (
            code, ser.canonical_bytes({"format": "check", "N": n, "holds": n < 6, "girth": 6}).decode())


def test_verify_cover_holds_no_parsed_document_through_the_check(tmp_path, capsys, monkeypatch):
    # the parsed document is as large as the cover: it is dropped once the
    # cover is loaded, before the check runs
    import gc

    from acygroups import cli

    names = ["held-0", "held-1", "held-2"]
    doc = {"format": "covering", "kind": "hypergraph", "cover": ser.hypergraph_to_json(
        named_hypergraph(names, [names[:2], names[1:], names[::2]]))}
    cover = write(tmp_path, "c.json", doc)
    held = []

    def check(hg, n_max):
        held.extend(obj for obj in gc.get_objects()
                    if type(obj) is dict and obj == doc and obj is not doc)
        return real(hg, n_max)

    real = cli.check_n_acyclic_hypergraph
    monkeypatch.setattr(cli, "check_n_acyclic_hypergraph", check)
    assert run(capsys, "verify-cover", cover, "-N", "3")[0] == 1
    assert held == []


def test_export_dot(tmp_path, capsys):
    tree = str(tmp_path / "tree.json")
    run(capsys, "biggs", "-E", "a,b", "-n", "1", "-o", tree)
    code, out = run(capsys, "export-dot", tree)
    assert code == 0 and out.startswith("graph {")


def test_determinism_of_cli_outputs(tmp_path, capsys):
    args = ["biggs", "-E", "a,b", "-n", "2"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2
    group = write(tmp_path, "g.json", ser.egroup_to_json(
        sym(hypercube(["a", "b"]), attach_hypercube=False)))
    man1, man2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    o1, o2 = str(tmp_path / "o1.json"), str(tmp_path / "o2.json")
    run(capsys, "construct", group, "-N", "4", "-o", o1, "--manifest", man1)
    run(capsys, "construct", group, "-N", "4", "-o", o2, "--manifest", man2)
    assert open(o1, "rb").read() == open(o2, "rb").read()
    m1 = json.loads(open(man1).read())
    m2 = json.loads(open(man2).read())
    m1["outputs"] = {"out": list(m1["outputs"].values())}
    m2["outputs"] = {"out": list(m2["outputs"].values())}
    assert m1 == m2


def test_check_acyclic_gamma_flag(tmp_path, capsys):
    tree = str(tmp_path / "tree.json")
    run(capsys, "biggs", "-E", "a,b", "-n", "1", "-o", tree)
    group = str(tmp_path / "g.json")
    run(capsys, "symgroup", tree, "--no-hypercube", "-o", group)
    # gamma=1 admits only the empty subset: no cycles at any length
    code, _ = run(capsys, "check-acyclic", group, "-N", "6", "--gamma", "1")
    assert code == 0
    code, _ = run(capsys, "check-acyclic", group, "-N", "6", "--gamma", "2")
    assert code == 1
    # a bound below 1 is invalid input, never "no filter"
    for gamma in ("0", "-1"):
        code, out = run(capsys, "check-acyclic", group, "-N", "6", "--gamma", gamma)
        assert code == 3 and out == "", gamma
    code, out = run(capsys, "check-acyclic", group, "-N", "6")
    assert code == 1 and len(json.loads(out)["entries"]) == 6


def test_n_below_two_is_invalid_input(tmp_path, capsys):
    group = write(tmp_path, "g.json", ser.egroup_to_json(
        sym(hypercube(["a", "b"]), attach_hypercube=False)))
    pattern = write(tmp_path, "p.json", ser.pattern_to_json(
        ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])))
    cover = write(tmp_path, "c.json", {
        "format": "covering", "kind": "hypergraph",
        "cover": ser.hypergraph_to_json(Hypergraph([0, 1], [[0, 1]])),
    })
    for n in ("0", "1", "-3"):
        for argv in (["check-acyclic", group], ["construct", group],
                     ["groupoid-construct", pattern], ["verify-cover", cover]):
            code, out = run(capsys, *argv, "-N", n)
            assert code == 3 and out == "", (argv[0], n)
    code, _ = run(capsys, "check-acyclic", group, "-N", "2")
    assert code == 0


def test_cap_below_one_is_invalid_input(tmp_path, capsys):
    group = write(tmp_path, "g.json", ser.egroup_to_json(
        sym(hypercube(["a", "b"]), attach_hypercube=False)))
    pattern = write(tmp_path, "p.json", ser.pattern_to_json(
        ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])))
    for cap in ("0", "-5"):
        for argv in (["construct", group, "-N", "4"], ["groupoid-construct", pattern, "-N", "2"]):
            code, out = run(capsys, *argv, "--cap", cap)
            assert code == 3 and out == "", (argv[0], cap)


def _cli_subprocess(env_cap, *argv, timeout=None):
    """The CLI run in a fresh process; subprocess.TimeoutExpired once it has
    run for timeout seconds."""
    import os
    import subprocess
    import sys

    import acygroups

    src = os.path.dirname(os.path.dirname(acygroups.__file__))
    env = {**os.environ, "ACYGROUPS_ELEMENT_CAP": env_cap, "PYTHONPATH": src}
    code = "import sys; from acygroups.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_construct_cap_follows_environment(tmp_path):
    group = write(tmp_path, "g.json", ser.egroup_to_json(
        sym(hypercube(["a", "b"]), attach_hypercube=False)))
    pattern = write(tmp_path, "p.json", ser.pattern_to_json(
        ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])))
    # the N = 4 extension of the four-group has order 12
    out = str(tmp_path / "o.json")
    assert _cli_subprocess("10", "construct", group, "-N", "4", "-o", out).returncode == 2
    assert _cli_subprocess("10", "groupoid-construct", pattern, "-N", "2",
                           "-o", str(tmp_path / "gpd.json")).returncode == 2
    manifest = tmp_path / "m.json"
    assert _cli_subprocess("50", "construct", group, "-N", "4", "-o", out,
                           "--manifest", str(manifest)).returncode == 0
    assert json.loads(manifest.read_text())["config"]["cap"] == 50
    # an explicit --cap still wins over the environment
    assert _cli_subprocess("50", "construct", group, "-N", "4", "--cap", "5",
                           "-o", out).returncode == 2


@pytest.mark.parametrize("env_cap", ["abc", "1e6", "0", "-3"])
def test_an_element_cap_that_is_not_a_positive_integer_is_invalid_input(tmp_path, env_cap):
    # before, abc and 1e6 ended in a traceback (exit 1, "violated"), -3
    # capped symgroup and 0 was blamed on a --cap that was never given
    group = write(tmp_path, "g.json", ser.egroup_to_json(hypercube_group(["a", "b"])))
    tree = write(tmp_path, "t.json", ser.egraph_to_json(hypercube(["a", "b"])))
    for argv in (("biggs", "-E", "a,b", "-n", "1"), ("symgroup", tree),
                 ("construct", group, "-N", "4")):
        done = _cli_subprocess(env_cap, *argv, "-o", str(tmp_path / "o.json"))
        assert done.returncode == 3 and done.stdout == "", (env_cap, argv, done.stderr)
        assert done.stderr == ("invalid input: ACYGROUPS_ELEMENT_CAP must be a positive "
                               f"integer, got {env_cap!r}\n"), argv


HUGE_N = str(99_999_999_999)


def _ends(*argv):
    """The CLI at the default cap, in a fresh process that must end within
    20 seconds, so that a walk over every length up to -N or --gamma fails
    here instead of running without end."""
    return _cli_subprocess(str(DEFAULT_ELEMENT_CAP), *argv, timeout=20)


def test_chain_walk_ends_where_the_order_bound_refuses(tmp_path):
    # before, the stage graph walked every chain length up to N - 2, and
    # these ran without end; now the chains reach the part that passes
    # the cap, as they do at a moderate N
    g12 = write(tmp_path, "g12.json", ser.egroup_to_json(sym(biggs_tree(["a", "b"], 1))))
    ig = intersection_graph(Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]]))
    triangle = write(tmp_path, "tri.json", ser.egroup_to_json(sym(ig)))
    template = write(tmp_path, "ig.json", ser.egraph_to_json(ig))
    out = str(tmp_path / "o.json")
    refusals = []
    for argv, moderate in ((("construct", g12), "2000"),
                           (("construct", triangle, "--over", template), "20")):
        last = []
        for n in (moderate, HUGE_N):
            done = _ends(*argv, "-N", n, "--early-exit", "-o", out)
            assert done.returncode == 2, (argv, n, done.stderr)
            last.append(done.stderr.splitlines()[-1])
        assert last[0] == last[1], argv
        refusals.append(last[1])
    assert refusals[0].endswith("order at least 1441440 (part 22: 16 points, order 32)")
    assert refusals[1].endswith("order at least 1088640 (part 407: 10 points, "
                                "order at least 1088640)")


def test_search_ends_at_the_first_length_without_a_node(tmp_path):
    # before, each of these tried every cycle length up to N, and ran
    # without end; a length with no node leaves every longer one without
    g2 = write(tmp_path, "g2.json", ser.egroup_to_json(hypercube_group(["a"])))
    g12 = write(tmp_path, "g12.json", ser.egroup_to_json(sym(biggs_tree(["a", "b"], 1))))
    out = str(tmp_path / "o.json")
    for argv in (("construct", g2, "-N", HUGE_N, "--early-exit"),
                 ("check-acyclic", g2, "-N", HUGE_N),
                 ("check-acyclic", g12, "-N", HUGE_N, "--gamma", "1")):
        done = _ends(*argv, "-o", out)
        assert done.returncode == 0, (argv, done.stderr)


def test_gamma_past_the_colour_count_takes_every_subset(tmp_path):
    # before, all_subsets looped over every size up to gamma - 1
    g12 = write(tmp_path, "g12.json", ser.egroup_to_json(sym(biggs_tree(["a", "b"], 1))))
    outs = []
    for gamma in ("3", HUGE_N):
        out = tmp_path / f"gamma{len(outs)}.json"
        done = _ends("check-acyclic", g12, "-N", "4", "--gamma", gamma, "-o", str(out))
        assert done.returncode == 0, (gamma, done.stderr)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_witness_element_out_of_range_is_invalid_input(tmp_path, capsys):
    tree = str(tmp_path / "tree.json")
    run(capsys, "biggs", "-E", "a,b", "-n", "1", "-o", tree)
    group = str(tmp_path / "g.json")
    run(capsys, "symgroup", tree, "--no-hypercube", "-o", group)
    witness = str(tmp_path / "w.json")
    assert run(capsys, "check-acyclic", group, "-N", "6", "-o", witness)[0] == 1
    doc = json.loads(open(witness).read())
    doc["entries"][2]["g"] = 6  # the group has order 6
    code = main(["verify-witness", write(tmp_path, "bad.json", doc), group])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "/entries/2/g" in captured.err


def test_verify_cover_without_cover_is_invalid_input(tmp_path, capsys):
    for kind in ("hypergraph", "graph"):
        cover = write(tmp_path, f"{kind}.json", {"format": "covering", "kind": kind})
        code = main(["verify-cover", cover, "-N", "3"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", kind
        assert "at /cover" in captured.err


def test_capped_construct_writes_partial_reports(tmp_path, capsys):
    cube = write(tmp_path, "cube.json", ser.egroup_to_json(
        sym(hypercube(["a", "b", "c"]), attach_hypercube=False)))
    reports, manifest = tmp_path / "reports.json", tmp_path / "manifest.json"
    code = main(["construct", cube, "-N", "4", "--early-exit", "--cap", "1000000",
                 "-o", str(tmp_path / "out.json"), "--reports", str(reports),
                 "--manifest", str(manifest)])
    err = capsys.readouterr().err
    assert code == 2 and "element cap 1000000 exceeded" in err
    assert not (tmp_path / "out.json").exists()
    stages = json.loads(reports.read_text())["stages"]
    assert [s["order"] for s in stages] == [8, 216]
    man = json.loads(manifest.read_text())
    assert [r["order"] for r in man["reports"]] == [8, 216]
    assert list(man["outputs"]) == [str(reports)]
    # without --reports the finished stages go to stderr, one line each
    code = main(["construct", cube, "-N", "4", "--early-exit", "--cap", "1000000"])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert [json.loads(line)["order"] for line in lines[:-1]] == [8, 216]
    assert lines[-1].startswith("resource cap: element cap 1000000 exceeded")


def _invalid(capsys, argv, pointer):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "", argv[0]
    assert f"at {pointer})" in captured.err


def test_hyperedge_that_is_not_a_list_is_invalid_input(tmp_path, capsys):
    group = write(tmp_path, "g.json", ser.egroup_to_json(
        sym(hypercube(["a", "b"]), attach_hypercube=False)))
    hg = write(tmp_path, "hg.json", {"format": "hypergraph", "vertices": ["0", "1"],
                                     "hyperedges": [["0", "1"], 5]})
    _invalid(capsys, ["cover-hypergraph", hg, group], "/hyperedges/1")


def test_empty_hyperedge_is_invalid_input_with_a_pointer(tmp_path, capsys):
    group = write(tmp_path, "g.json", ser.egroup_to_json(
        sym(hypercube(["a", "b"]), attach_hypercube=False)))
    hg = {"format": "hypergraph", "vertices": ["0", "1"], "hyperedges": [["0", "1"], []]}
    _invalid(capsys, ["cover-hypergraph", write(tmp_path, "hg.json", hg), group],
             "/hyperedges/1")
    cover = {"format": "covering", "kind": "hypergraph", "cover": hg}
    _invalid(capsys, ["verify-cover", write(tmp_path, "cov.json", cover), "-N", "3"],
             "/cover/hyperedges/1")


def test_unknown_or_missing_covering_kind_is_invalid_input_at_kind(tmp_path, capsys):
    hg = ser.hypergraph_to_json(named_hypergraph(["0", "1"], [["0", "1"]]))
    for name, doc in (("hyper.json", {"format": "covering", "kind": "hyper", "cover": hg}),
                      ("none.json", {"format": "covering", "cover": hg})):
        _invalid(capsys, ["verify-cover", write(tmp_path, name, doc), "-N", "3"], "/kind")


def test_igraph_edge_pair_that_is_not_a_list_is_invalid_input(tmp_path, capsys):
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    doc = {"format": "igraph", "pattern": ser.pattern_to_json(pattern),
           "vertices": ["u", "v"], "site_of": ["s", "t"],
           "edges": {"e": [5], "f": [["v", "u"]]}}
    _invalid(capsys, ["groupoid-construct", write(tmp_path, "p.json", doc["pattern"]),
                                "--target", write(tmp_path, "ig.json", doc), "-N", "2"],
             "/edges/e/0")


def test_igraph_without_one_site_per_vertex_is_invalid_input(tmp_path, capsys):
    pattern = ConstraintPattern(["s"], [("e", "s", "s", "f"), ("f", "s", "s", "e")])
    doc = {"format": "igraph", "pattern": ser.pattern_to_json(pattern),
           "vertices": ["a", "b"], "site_of": ["s"],
           "edges": {"e": [["a", "b"]], "f": [["b", "a"]]}}
    _invalid(capsys, ["groupoid-construct", write(tmp_path, "p.json", doc["pattern"]),
                      "--target", write(tmp_path, "ig.json", doc), "-N", "2"],
             "/site_of")


def test_list_valued_egraph_names_are_invalid_input(tmp_path, capsys):
    vertex = {"format": "egraph", "vertices": ["0", ["1"]], "colors": ["a"], "edges": []}
    _invalid(capsys, ["symgroup", write(tmp_path, "v.json", vertex)], "/vertices/1")
    colour = {"format": "egraph", "vertices": ["0", "1"], "colors": ["a"],
              "edges": [[["a"], "0", "1"]]}
    _invalid(capsys, ["symgroup", write(tmp_path, "c.json", colour)], "/edges/0/0")


def test_json_booleans_are_invalid_input(tmp_path, capsys):
    group = {"format": "egroup", "colors": ["a"], "order": 2, "action": {"a": [True, False]}}
    _invalid(capsys, ["girth", write(tmp_path, "g.json", group)], "/action/a")
    s3 = write(tmp_path, "s3.json", ser.egroup_to_json(biggs_group(["a", "b"], 1)))
    witness = {"format": "coset_cycle", "entries": [{"alpha": ["a"], "g": True}]}
    _invalid(capsys, ["verify-witness", write(tmp_path, "w.json", witness), s3], "/entries/0/g")


def test_egroup_action_row_of_an_unlisted_colour_is_invalid_input(tmp_path, capsys):
    # before, a row for a colour the group does not list was ignored
    group = {"format": "egroup", "colors": ["a"], "order": 2,
             "action": {"a": [1, 0], "bogus": [0, 1]}}
    _invalid(capsys, ["girth", write(tmp_path, "g.json", group)], "/action/bogus")


@pytest.mark.parametrize("order", [3, 10**12])
def test_a_colourless_group_of_order_other_than_1_is_invalid_input(tmp_path, capsys, order):
    # no row backs the order, so it is refused before a walk sizes a list
    # by it; order 10**12 exited 4 with a MemoryError before
    group = {"format": "egroup", "colors": [], "order": order, "action": {}}
    assert main(["check-acyclic", write(tmp_path, "g.json", group), "-N", "2"]) == 3
    assert capsys.readouterr().err == (
        "invalid input: action tables do not generate all elements (at /action)\n")


def test_igraph_edge_class_of_an_unknown_edge_is_invalid_input(tmp_path, capsys):
    # before, groupoid-construct accepted the target and ran
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    doc = ser.igraph_to_json(pattern_igraph(pattern))
    doc["edges"]["zz"] = []
    _invalid(capsys, ["groupoid-construct", write(tmp_path, "p.json", doc["pattern"]),
                      "--target", write(tmp_path, "ig.json", doc), "-N", "2"], "/edges/zz")


TWO_SITES = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
PATH = ConstraintPattern(["s", "t", "w"], [("e", "s", "t", "f"), ("f", "t", "s", "e"),
                                           ("g", "t", "w", "h"), ("h", "w", "t", "g")])
SWAPPED = ConstraintPattern(["s", "t"], [("e", "t", "s", "f"), ("f", "s", "t", "e")])
ONE_SITE = ConstraintPattern(["s"], [("e", "s", "s", "f"), ("f", "s", "s", "e")])
FOUR_EDGES = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e"),
                                            ("g", "s", "t", "h"), ("h", "t", "s", "g")])


@pytest.mark.parametrize("pattern, target, message", [
    (PATH, pattern_igraph(TWO_SITES), "groupoid and graph must share a pattern"),
    (TWO_SITES, IGraph(SWAPPED, ["a", "b"], [0, 1], [[(1, 0)], [(0, 1)]]),
     "groupoid and graph must share a pattern"),
    (TWO_SITES, IGraph(SWAPPED, ["a", "b", "c"], [0, 1, 1], [[(1, 0), (2, 0)], [(0, 1), (0, 2)]]),
     "groupoid and graph must share a pattern"),
    (TWO_SITES, pattern_igraph(ONE_SITE), "groupoid and graph must share a pattern"),
    (TWO_SITES, pattern_igraph(FOUR_EDGES), "groupoid and graph must share a pattern"),
    (PATH, IGraph(PATH, ["a", "b", "c", "d"], [0, 1, 2, 2],
                  [[(0, 1)], [(1, 0)], [(1, 2)], [(2, 1)]]),
     "compatibility target must be complete"),
], ids=["other-pattern", "swapped", "swapped-two-t", "one-site", "extra-edges", "incomplete"])
def test_groupoid_target_over_another_pattern_or_incomplete_is_refused_first(
        tmp_path, capsys, monkeypatch, pattern, target, message):
    # before, these exited 4 (an IndexError or a KeyError), named a vertex
    # of the encoding, or were refused only after the whole tower
    def never(*_args, **_kwargs):
        raise AssertionError("a group was built")

    monkeypatch.setattr(groupoid, "sym", never)
    monkeypatch.setattr(groupoid, "construct_n_acyclic", never)
    code = main(["groupoid-construct", write(tmp_path, "p.json", ser.pattern_to_json(pattern)),
                 "--target", write(tmp_path, "ig.json", ser.igraph_to_json(target)), "-N", "2"])
    assert (code, capsys.readouterr().err) == (3, f"invalid input: {message}\n")


def _igroupoid_doc():
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    hat = hat_translation(pattern)
    gpd = groupoid_from_group(sym(hat.igraph, attach_hypercube=False), hat)
    return ser.igroupoid_to_json(gpd)


def test_igroupoid_rmul_row_of_an_unknown_edge_is_invalid_input(tmp_path, capsys):
    # before, the row was ignored and the document loaded
    doc = _igroupoid_doc()
    doc["rmul"]["zz"] = doc["rmul"]["e"]
    _invalid(capsys, ["export-dot", write(tmp_path, "gpd.json", doc)], "/rmul/zz")


def test_igroupoid_generator_of_an_unknown_edge_is_invalid_input(tmp_path, capsys):
    # before, the generator was ignored and the document loaded
    doc = _igroupoid_doc()
    doc["generators"]["zz"] = 0
    _invalid(capsys, ["export-dot", write(tmp_path, "gpd.json", doc)], "/generators/zz")


def test_unknown_names_are_invalid_input_with_a_pointer(tmp_path, capsys):
    pattern = {"format": "pattern", "sites": ["s", "t"],
               "edges": [{"id": "e", "src": "s", "tgt": "t", "inv": "f"},
                         {"id": "f", "src": "t", "tgt": "zz", "inv": "e"}]}
    _invalid(capsys, ["groupoid-construct", write(tmp_path, "p.json", pattern), "-N", "2"],
             "/edges/1/tgt")
    # a site that no edge touches
    bare = {"format": "pattern", "sites": ["s"], "edges": []}
    _invalid(capsys, ["groupoid-construct", write(tmp_path, "bare.json", bare), "-N", "2"],
             "/sites/0")
    s3 = write(tmp_path, "s3.json", ser.egroup_to_json(biggs_group(["a", "b"], 1)))
    witness = {"format": "coset_cycle", "entries": [{"alpha": ["a", "c"], "g": 0}]}
    _invalid(capsys, ["verify-witness", write(tmp_path, "w.json", witness), s3],
             "/entries/0/alpha/1")


def test_gamma_with_over_is_invalid_input(tmp_path, capsys):
    tree = str(tmp_path / "tree.json")
    run(capsys, "biggs", "-E", "a,b", "-n", "1", "-o", tree)
    group = str(tmp_path / "g.json")
    run(capsys, "symgroup", tree, "-o", group)
    assert json.loads(open(group).read())["order"] == 12
    trivial = write(tmp_path, "t.json", ser.egraph_to_json(trivial_constraint_graph(["a", "b"])))
    code, out = run(capsys, "check-acyclic", group, "-N", "12", "--gamma", "1")
    assert code == 0 and json.loads(out)["holds"]
    # the template search walks all proper subsets, so a filter would be
    # recorded in the manifest but not applied
    code = main(["check-acyclic", group, "-N", "12", "--gamma", "1", "--over", trivial])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "--gamma cannot be combined with --over" in captured.err
    code, out = run(capsys, "check-acyclic", group, "-N", "12", "--over", trivial)
    assert code == 1 and len(json.loads(out)["entries"]) == 12


def test_negative_biggs_depth_is_invalid_input(capsys):
    for depth in ("-1", "-4"):
        code = main(["biggs", "-E", "a,b", "-n", depth])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", depth
        assert captured.err == f"invalid input: -n must be at least 0, got {depth}\n"
    code, out = run(capsys, "biggs", "-E", "a,b", "-n", "0")
    assert code == 0 and json.loads(out)["vertices"] == [""]


def test_undecodable_input_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"format": "egroup", "name": "caf\xe9"}'.encode("latin-1"))
    code = main(["check-acyclic", str(path), "-N", "3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("invalid input: not UTF-8: ")
    assert captured.err.endswith("(at /)\n") and captured.err.count("\n") == 1


def test_unreadable_input_is_invalid_input(tmp_path, capsys):
    code = main(["check-acyclic", str(tmp_path), "-N", "3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("invalid input: ") and captured.err.count("\n") == 1


def test_any_other_exception_is_an_internal_error(tmp_path, capsys, monkeypatch):
    import acygroups.cli as cli

    def broken(group):
        raise RuntimeError("no such\nrow")

    monkeypatch.setattr(cli, "girth", broken)
    group = write(tmp_path, "g.json", ser.egroup_to_json(
        sym(hypercube(["a", "b"]), attach_hypercube=False)))
    code = main(["girth", group])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4 and captured.out == ""
    assert captured.err == "internal error: RuntimeError: no such row\n"


def test_main_pauses_the_collector_and_restores_the_callers(tmp_path, capsys, monkeypatch):
    # the cyclic collector is paused inside every command; whatever the exit,
    # a collector that ran runs again, one the caller paused stays paused and
    # the objects the caller froze stay frozen
    import gc

    import acygroups.cli as cli
    from acygroups.errors import ResourceCap

    group = write(tmp_path, "g.json", ser.egroup_to_json(biggs_group(["a", "b"], 1)))
    raised = []  # what the patched search raises, if anything
    during = []  # the collector's state inside each search
    held = [during]  # a tracked object of the caller's

    def search(*args, **kwargs):
        during.append(gc.isenabled())
        if raised:
            raise raised[0]
        return real(*args, **kwargs)

    real = cli.find_coset_cycle
    monkeypatch.setattr(cli, "find_coset_cycle", search)
    runs = [  # argv, what the search raises, exit code
        (["check-acyclic", group, "-N", "5"], None, 0),
        (["check-acyclic", group, "-N", "6"], None, 1),
        (["check-acyclic", group, "-N", "5"], ResourceCap("budget"), 2),
        (["check-acyclic", group, "-N", "5", "--bogus"], None, 3),
        (["check-acyclic", group, "-N", "5"], RuntimeError("bug"), 4),
        (["check-acyclic", group, "-N", "5"], BrokenPipeError(), 0),
        (["check-acyclic", "--help"], None, SystemExit),
    ]
    for enabled, frozen in ((True, False), (False, False), (True, True)):
        for argv, exc, code in runs:
            raised[:] = [exc] if exc else []
            if not enabled:
                gc.disable()
            if frozen:
                gc.freeze()  # held among them
            count = gc.get_freeze_count()
            try:
                if code is SystemExit:
                    with pytest.raises(SystemExit):
                        main(argv)
                else:
                    assert main(argv) == code, argv
                assert gc.isenabled() == enabled, (argv, enabled, frozen)
                # the command may free frozen objects but freezes no more, and
                # the frozen generation is apart from those the collector scans
                assert gc.get_freeze_count() <= count, (argv, enabled, frozen)
                assert frozen != any(obj is held for obj in gc.get_objects()), argv
            finally:
                gc.unfreeze()
                gc.enable()
            capsys.readouterr()
    assert len(during) == 3 * 5 and not any(during)


def _fuzz_inputs(work):
    """(document, argv with {} for its path) pairs of valid inputs; the
    other files an argv names are written once into work."""
    import os

    def put(name, doc):
        path = os.path.join(work, name)
        with open(path, "wb") as fh:
            fh.write(ser.canonical_bytes(doc))
        return path

    s3 = biggs_group(["a", "b"], 1)
    group = put("g.json", ser.egroup_to_json(s3))
    pattern = ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])
    hg = named_hypergraph(["0", "1", "2"], [["0", "1"], ["1", "2"]])
    template = intersection_graph(hg)
    cover_group = put("cg.json", ser.egroup_to_json(
        sym(disjoint_union([template, hypercube(template.colors)]), attach_hypercube=False)))
    witness = ser.cycle_to_json(s3, find_coset_cycle(s3, 6))
    return [
        (ser.egraph_to_json(hypercube(["a", "b"])), ["symgroup", "{}", "--no-hypercube"]),
        (ser.egroup_to_json(s3), ["check-acyclic", "{}", "-N", "3"]),
        (ser.egroup_to_json(s3), ["girth", "{}"]),
        (ser.egraph_to_json(trivial_constraint_graph(s3.colors)),
         ["check-acyclic", group, "-N", "3", "--over", "{}"]),
        (ser.pattern_to_json(pattern), ["groupoid-construct", "{}", "-N", "2", "--early-exit"]),
        (ser.hypergraph_to_json(hg), ["cover-hypergraph", "{}", cover_group]),
        ({"format": "covering", "kind": "hypergraph", "cover": ser.hypergraph_to_json(hg)},
         ["verify-cover", "{}", "-N", "3"]),
        (ser.graph_to_json([("0", "1"), ("1", "2")]), ["export-dot", "{}"]),
        (witness, ["verify-witness", "{}", group]),
    ]


def _mutate(data, doc):
    """Overwrite one or two entries anywhere but the format tag."""
    import copy

    from hypothesis import strategies as st

    values = st.sampled_from([5, -1, 1.5, None, True, "x", "0", "a", [], [5], ["x"], [[1]],
                              {}, {"a": 1}])
    for _ in range(data.draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = copy.deepcopy(data.draw(values))
    return doc


def test_cli_fuzz_over_mutated_documents_never_reports_an_internal_error():
    import contextlib
    import copy
    import io
    import os
    import tempfile

    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    with tempfile.TemporaryDirectory() as work:
        cases = _fuzz_inputs(work)

        @settings(max_examples=120, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.data())
        def check(data):
            doc, argv = copy.deepcopy(data.draw(st.sampled_from(cases)))
            path = os.path.join(work, "mutated.json")
            with open(path, "w") as fh:
                json.dump(_mutate(data, doc), fh)
            argv = [path if a == "{}" else a for a in argv]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv[0], code, err.getvalue())

        check()


def test_malformed_command_lines_exit_invalid(tmp_path, capsys):

    group = write(tmp_path, "g.json", ser.egroup_to_json(
        sym(hypercube(["a", "b"]), attach_hypercube=False)))
    for argv, said in [
        (["check-acyclic", group, "-N", "3", "--bogus"], "unrecognized arguments: --bogus"),
        (["check-acyclic", group, "-N", "three"], "invalid int value: 'three'"),
        (["check-acyclic", "-N", "3"], "required: group"),
        (["no-such-command"], "invalid choice"),
        ([], "required: command"),
    ]:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3, argv
        assert captured.out == ""
        assert captured.err.startswith("invalid input: ") and said in captured.err, argv
        assert captured.err.count("\n") == 1, argv
    for argv in (["--help"], ["check-acyclic", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_manifest_digests_are_those_of_the_files(tmp_path, capsys):
    """Output digests hash the written bytes, input digests the parsed
    documents, and a rerun writes the same manifest."""
    import hashlib

    def write_loose(name, doc):
        # not canonical bytes, so a file hash and a document digest differ
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=2))
        return str(path)

    hg = Hypergraph([0, 1, 2, 3], [[0, 1, 2], [0, 3], [1, 3]])
    hg_path = write_loose("hg.json", {"format": "hypergraph", "vertices": ["0", "1", "2", "3"],
                                      "hyperedges": [["0", "1", "2"], ["0", "3"], ["1", "3"]]})
    cover_group = write_loose("cg.json", ser.egroup_to_json(sym(intersection_graph(hg))))
    group = write_loose("g.json", ser.egroup_to_json(
        sym(hypercube(["a", "b"]), attach_hypercube=False)))
    pattern = write_loose("p.json", ser.pattern_to_json(
        ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])))
    cover, out, reports = (str(tmp_path / n) for n in ("cover.json", "out.json", "reports.json"))
    gpd, gpd_group = str(tmp_path / "gpd.json"), str(tmp_path / "gpd_group.json")
    runs = {  # argv, inputs, outputs
        "cover": (["cover-hypergraph", hg_path, cover_group, "-o", cover],
                  [hg_path, cover_group], [cover]),
        "construct": (["construct", group, "-N", "4", "-o", out, "--reports", reports],
                      [group], [out, reports]),
        "groupoid": (["groupoid-construct", pattern, "-N", "2", "--early-exit", "-o", gpd,
                      "--group-output", gpd_group], [pattern], [gpd, gpd_group]),
    }
    for key, (argv, inputs, outputs) in runs.items():
        manifests = []
        for _ in range(2):
            manifest = tmp_path / f"{key}_manifest.json"
            code, _ = run(capsys, *argv, "--manifest", str(manifest))
            assert code == 0
            manifests.append(manifest.read_bytes())
        assert manifests[0] == manifests[1]
        man = json.loads(manifests[0])
        assert sorted(man["outputs"]) == sorted(outputs)
        for path, value in man["outputs"].items():
            with open(path, "rb") as fh:
                assert value == hashlib.sha256(fh.read()).hexdigest()
        assert sorted(man["inputs"]) == sorted(inputs)
        for path, value in man["inputs"].items():
            with open(path) as fh:
                assert value == ser.digest(json.load(fh))


def test_symgroup_without_colours_is_invalid_input(tmp_path, capsys):
    graph = write(tmp_path, "e.json",
                  {"format": "egraph", "vertices": ["a"], "colors": [], "edges": []})
    for flags in ([], ["--no-hypercube"]):
        code = main(["symgroup", graph, *flags])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", flags
        assert captured.err == "invalid input: at least one colour required\n", flags


def test_checks_and_export_write_their_manifests(tmp_path, capsys):
    """verify-cover, verify-witness and export-dot record their input
    documents and output bytes like every other command."""
    import hashlib

    from acygroups.egraph import biggs_tree

    def loose(name, doc):
        # not canonical bytes, so a file hash and a document digest differ
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=2))
        return str(path)

    tree = loose("tree.json", ser.egraph_to_json(biggs_tree(["a", "b"], 1)))
    group = loose("g.json", ser.egroup_to_json(biggs_group(["a", "b"], 1)))
    witness = str(tmp_path / "w.json")
    assert run(capsys, "check-acyclic", group, "-N", "6", "-o", witness)[0] == 1
    hg = Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]])
    cover = loose("cover.json", {"format": "covering", "kind": "hypergraph",
                                 "cover": ser.hypergraph_to_json(hg)})
    runs = {  # argv, exit code, inputs
        "verify-cover": (["verify-cover", cover, "-N", "3"], 1, [cover]),
        "verify-witness": (["verify-witness", witness, group], 0, [witness, group]),
        "export-dot": (["export-dot", tree], 0, [tree]),
    }
    for command, (argv, expected, inputs) in runs.items():
        out, manifest = str(tmp_path / f"{command}.out"), tmp_path / f"{command}.json"
        code, _ = run(capsys, *argv, "-o", out, "--manifest", str(manifest))
        assert code == expected, command
        man = json.loads(manifest.read_bytes())
        assert man["command"] == [command]
        assert sorted(man["inputs"]) == sorted(inputs)
        for path, value in man["inputs"].items():
            with open(path) as fh:
                assert value == ser.digest(json.load(fh)), (command, path)
        with open(out, "rb") as fh:
            assert man["outputs"] == {out: hashlib.sha256(fh.read()).hexdigest()}


def _every_command(tmp_path, capsys):
    """argv of one small run of every subcommand, inputs written to tmp_path."""
    from acygroups.covering import graph_template
    from acygroups.egraph import biggs_tree

    tree = write(tmp_path, "tree.json", ser.egraph_to_json(biggs_tree(["a", "b"], 1)))
    group = write(tmp_path, "g.json", ser.egroup_to_json(biggs_group(["a", "b"], 1)))
    witness = str(tmp_path / "w.json")
    assert run(capsys, "check-acyclic", group, "-N", "6", "-o", witness)[0] == 1
    square = write(tmp_path, "sq.json", ser.egroup_to_json(
        sym(hypercube(["a", "b"]), attach_hypercube=False)))
    pattern = write(tmp_path, "p.json", ser.pattern_to_json(
        ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")])))
    k3 = write(tmp_path, "k3.json", ser.graph_to_json([(0, 1), (1, 2), (0, 2)]))
    k3_group = write(tmp_path, "k3g.json", ser.egroup_to_json(
        sym(graph_template([("0", "1"), ("1", "2"), ("0", "2")]))))
    hg = Hypergraph([0, 1, 2, 3], [[0, 1, 2], [0, 3], [1, 3]])
    hg_path = write(tmp_path, "hg.json", ser.hypergraph_to_json(hg))
    hg_group = write(tmp_path, "hgg.json", ser.egroup_to_json(sym(intersection_graph(hg))))
    cover = write(tmp_path, "cover.json", {"format": "covering", "kind": "hypergraph",
                                           "cover": ser.hypergraph_to_json(hg)})
    return {
        "biggs": ["-E", "a,b", "-n", "1"],
        "symgroup": [tree, "--no-hypercube"],
        "cayley": [group],
        "girth": [group],
        "check-acyclic": [group, "-N", "3"],
        "verify-witness": [witness, group],
        "construct": [square, "-N", "3"],
        "groupoid-construct": [pattern, "-N", "2", "--early-exit"],
        "cover-graph": [k3, k3_group],
        "cover-hypergraph": [hg_path, hg_group],
        "verify-cover": [cover, "-N", "3"],
        "export-dot": [tree],
    }


COMMANDS = ("biggs", "symgroup", "cayley", "girth", "check-acyclic", "verify-witness",
            "construct", "groupoid-construct", "cover-graph", "cover-hypergraph",
            "verify-cover", "export-dot")


def test_timed_commands_are_every_subcommand():
    from acygroups.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert sorted(sub.choices) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_timings_flag_writes_timings_on_every_command(tmp_path, capsys, command):
    argv = _every_command(tmp_path, capsys)[command]
    for flags, timed in (([], False), (["--timings"], True)):
        manifest = tmp_path / f"m{len(flags)}.json"
        code, _ = run(capsys, command, *argv, "-o", str(tmp_path / "out"),
                      "--manifest", str(manifest), *flags)
        assert code in (0, 1), (command, flags)
        man = json.loads(manifest.read_bytes())
        assert man["command"] == [command]
        assert ("timings" in man) == timed, (command, flags)
        if timed:
            assert man["timings"] and all(v >= 0 for v in man["timings"].values())


def test_back_to_back_calls_share_no_parsed_values(tmp_path, capsys):
    """The parser is built once per process; a second main call sees none
    of the first call's flags or values."""
    from acygroups import cli

    assert cli.build_parser() is cli.build_parser()
    argv = _every_command(tmp_path, capsys)
    first = ["construct", *argv["construct"], "--early-exit", "--cap", "999",
             "--reports", str(tmp_path / "r.json"), "--manifest", str(tmp_path / "m1.json"),
             "--timings", "-o", str(tmp_path / "c.json")]
    second = ["symgroup", argv["symgroup"][0], "--manifest", str(tmp_path / "m2.json")]
    third = ["construct", *argv["construct"], "--manifest", str(tmp_path / "m3.json")]
    for call in (first, second, third):
        assert run(capsys, *call)[0] == 0
    man1, man2, man3 = (json.loads((tmp_path / f"m{i}.json").read_bytes()) for i in (1, 2, 3))
    assert man1["config"] == {"N": 3, "cap": 999, "early_exit": True, "over": False}
    assert "timings" in man1 and str(tmp_path / "r.json") in man1["outputs"]
    assert man2["config"] == {"no_hypercube": False} and "timings" not in man2
    assert list(man2["outputs"]) == ["stdout"]
    assert man3["config"]["cap"] != 999 and man3["config"]["early_exit"] is False
    assert "timings" not in man3 and list(man3["outputs"]) == ["stdout"]
    fresh = cli.build_parser.__wrapped__()
    for call in (first, second, third):
        assert vars(cli._parse_args(call)) == vars(fresh.parse_args(call))


def test_empty_group_document_is_invalid_input(tmp_path, capsys):
    group = write(tmp_path, "g.json",
                  {"format": "egroup", "colors": ["a"], "order": 0, "action": {"a": []}})
    code = main(["check-acyclic", group, "-N", "3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "/order" in captured.err
