import math
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups import groups
from acygroups.errors import ResourceCap
from acygroups.groups import OrderBound, sym_components
from acygroups.permgroup import group_order
from acygroups.synthesis import SynthesisConfig, construct_n_acyclic

from conftest import corpus, hypercube_group
from oracles import reference_order_bound
from test_closure import _involution


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_group_order_matches_sympy(data):
    from sympy.combinatorics import Permutation, PermutationGroup

    n = data.draw(st.integers(1, 12))
    gens = data.draw(st.lists(st.permutations(range(n)).map(tuple), max_size=4))
    if data.draw(st.booleans()):
        gens.insert(data.draw(st.integers(0, len(gens))), tuple(range(n)))
    if gens and data.draw(st.booleans()):
        gens.append(data.draw(st.sampled_from(gens)))
    expected = PermutationGroup([Permutation(list(p), size=n) for p in gens]).order()
    assert group_order(gens, n) == expected
    # with a limit: exact up to it, else a lower bound past it
    limit = data.draw(st.integers(0, 2 * expected))
    bound = group_order(gens, n, limit=limit)
    assert bound == expected if expected <= limit else limit < bound <= expected


def test_group_order_of_named_groups():
    assert group_order([], 5) == 1
    assert group_order([(0, 1, 2)] * 3, 3) == 1
    cycle = tuple(range(1, 13)) + (0,)
    swap = (1, 0) + tuple(range(2, 13))
    assert group_order([swap, cycle], 13) == 6227020800  # 13!
    # the dihedral group of the square, on its four corners
    assert group_order([(1, 0, 3, 2), (0, 3, 2, 1)], 4) == 8


TRIANGLE = ["perms", [(0, 2, 1), (1, 0, 2)]]  # S3 on three points, order 6
SQUARE = ["perms", [(1, 0, 3, 2), (0, 3, 2, 1)]]  # D4 on four points, order 8


def _closures(monkeypatch):
    """Record every closure sym_components runs and whether it raised."""
    calls = []
    close = groups.close

    def recording(a, b, start, cap, deadline=None):
        try:
            out = close(a, b, start, cap, deadline)
        except ResourceCap:
            calls.append("raised")
            raise
        calls.append(len(out[1]))
        return out

    monkeypatch.setattr(groups, "close", recording)
    return calls


def test_sym_components_cap_on_one_part(monkeypatch):
    calls = _closures(monkeypatch)
    with pytest.raises(ResourceCap, match=r"^element cap 5 exceeded: .* at least 6 "):
        sym_components(["a", "b"], [TRIANGLE], cap=5)
    assert calls == []
    assert sym_components(["a", "b"], [TRIANGLE], cap=6).order == 6


def test_sym_components_cap_on_the_lcm_of_two_parts(monkeypatch):
    # two reflections of a triangle and of a square generate a dihedral
    # group with a rotation of order lcm(3, 4): order 24 = lcm(6, 8)
    calls = _closures(monkeypatch)
    parts = [TRIANGLE, SQUARE]
    message = r"^element cap 23 exceeded: .* at least 24 \(part 1: 4 points, order 8\)$"
    with pytest.raises(ResourceCap, match=message):
        sym_components(["a", "b"], parts, cap=23)
    assert calls == []
    assert sym_components(["a", "b"], parts, cap=24).order == 24
    # each part folds its points until its order, then the group folds the
    # two regular tables, the smaller first
    assert calls == [3, 6, 4, 8, 6, 24]


def test_sym_components_cap_on_the_components_together(monkeypatch):
    # S3 on each part, moved by colours a, b and by b, c: each part has
    # order 6, but together they generate S3 x S3 of order 36
    left = ["perms", [(1, 0, 2), (0, 2, 1), (0, 1, 2)]]
    right = ["perms", [(0, 1, 2), (1, 0, 2), (0, 2, 1)]]
    calls = _closures(monkeypatch)
    with pytest.raises(ResourceCap, match=r"at least 36 \(2 components together: 6 points\)"):
        sym_components(["a", "b", "c"], [left, right], cap=35)
    assert calls == []
    assert sym_components(["a", "b", "c"], [left, right], cap=36).order == 36


def test_sym_components_tables_part_counts_its_elements(monkeypatch):
    square = hypercube_group(["a", "b"])  # order 4
    calls = _closures(monkeypatch)
    with pytest.raises(ResourceCap, match="at least 4 "):
        sym_components(["a", "b"], [("tables", square.gen_action)], cap=3)
    assert calls == []


def test_cube_3_tower_caps_on_the_order_bound(monkeypatch):
    cube = hypercube_group(["a", "b", "c"])
    calls = _closures(monkeypatch)
    config = SynthesisConfig(n_acyclic=4, element_cap=1_000_000, early_exit=True)
    message = (r"^element cap 1000000 exceeded: the group has order at least 1058400 "
               r"\(part 9: 13 points, order at least 1058400\)$")
    with pytest.raises(ResourceCap, match=message) as info:
        construct_n_acyclic(cube, config)
    assert calls and "raised" not in calls
    assert [r.order for r in info.value.stage_reports] == [8, 216]
    assert info.value.partial.order == 216


def test_part_just_past_the_cap_reports_its_exact_order(monkeypatch):
    # S5 from its four adjacent transpositions: the capped Schreier-Sims
    # passes cap 119 only on the last orbit point, at the true order 120
    s5 = ["perms", [(1, 0, 2, 3, 4), (0, 2, 1, 3, 4), (0, 1, 3, 2, 4), (0, 1, 2, 4, 3)]]
    calls = _closures(monkeypatch)
    message = (r"^element cap 119 exceeded: the group has order at least 120 "
               r"\(part 0: 5 points, order at least 120\)$")
    with pytest.raises(ResourceCap, match=message):
        sym_components(["a", "b", "c", "d"], [s5], cap=119)
    assert calls == []
    assert sym_components(["a", "b", "c", "d"], [s5], cap=120).order == 120


# the regular tables of the corpus groups, by number of colours
TABLES = {n: [g.gen_action for g in corpus().values() if len(g.colors) == n] for n in (1, 2, 3)}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_part_by_part_bound_matches_the_whole_list_bound(data):
    # a tables part, then one to six involution parts on at most 8 points,
    # against caps below, at and just past the running lcms of their
    # orders, and from below to well past that of all of them
    n_colors = data.draw(st.integers(1, 3))
    parts = [("tables", data.draw(st.sampled_from(TABLES[n_colors])))]
    for _ in range(data.draw(st.integers(1, 6))):
        n = data.draw(st.integers(1, 8))
        parts.append(("perms", [_involution(data, n) for _ in range(n_colors)]))
    orders = [len(rows[0]) if kind == "tables" else group_order(rows, len(rows[0]))
              for kind, rows in parts]
    lcms = list(accumulate(orders, math.lcm))
    caps = sorted({max(1, x + d) for x in lcms for d in (-1, 0, 1)})
    cap = data.draw(st.one_of(st.sampled_from(caps), st.integers(1, 2 * lcms[-1]),
                              st.integers(lcms[-1], 8 * lcms[-1]), st.just(10**12)))
    try:
        want = reference_order_bound(parts, cap)
    except ResourceCap as exc:
        want = str(exc)
    sizing = OrderBound(cap)
    try:
        got = [sizing.add(kind, rows) for kind, rows in parts]
        groups._check_together(parts, got, cap)
    except ResourceCap as exc:
        got = str(exc)
    assert got == want


def test_schreier_sims_sizes_each_part_of_a_stage_once(monkeypatch):
    # every corpus tower at N = 2 and the cube_2 tower at N = 12: the stage
    # graph sizes each component as it keeps it, and sym_components reads
    # those orders, sizing only the components together when there are two
    # or more
    from acygroups import synthesis

    events = []
    order, stage_graph, closure = groups.group_order, synthesis.stage_graph, synthesis.sym_components

    def counting(*args, **kwargs):
        events.append("order")
        return order(*args, **kwargs)

    def keeping(*args, **kwargs):
        components, inventory = stage_graph(*args, **kwargs)
        events.append(len(components))
        return components, inventory

    def closing(*args, **kwargs):
        events.append("closure")
        return closure(*args, **kwargs)

    monkeypatch.setattr(groups, "group_order", counting)
    monkeypatch.setattr(synthesis, "stage_graph", keeping)
    monkeypatch.setattr(synthesis, "sym_components", closing)
    towers = [(group, 2) for group in corpus().values()] + [(hypercube_group(["a", "b"]), 12)]
    sized = 0
    for group, n in towers:
        events.clear()
        construct_n_acyclic(group, SynthesisConfig(n_acyclic=n, early_exit=True))
        kept = [event for event in events if isinstance(event, int)]
        expected = []
        for k in kept:
            expected += ["order"] * k + [k, "closure"] + ["order"] * (k >= 2)
        assert events == expected
        sized += sum(kept)
    assert sized == 24
