import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups import groups
from acygroups.errors import ResourceCap
from acygroups.groups import sym_components
from acygroups.permgroup import group_order
from acygroups.synthesis import SynthesisConfig, construct_n_acyclic

from conftest import hypercube_group


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
