"""The closure of the stage groups: one pass over the essential parts only,
against the two-pass closure over every part, its cap and its deadline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups import groups, synthesis, traverse
from acygroups.errors import DegenerateGenerators, ResourceCap
from acygroups.groups import _essential_parts, sym_components
from acygroups.synthesis import SynthesisConfig, construct_n_acyclic
from acygroups.traverse import close

from conftest import hypercube_group
from oracles import partition, reference_close, reference_diagonal_closure
from test_search_kernel import _clock

TRIANGLE = [(0, 2, 1), (1, 0, 2)]  # S3 on three points, order 6
SQUARE = [(1, 0, 3, 2), (0, 3, 2, 1)]  # D4 on four points, order 8


def _involution(data, n):
    order = data.draw(st.permutations(range(n)))
    perm = list(range(n))
    for i in range(data.draw(st.integers(0, n // 2))):
        u, v = order[2 * i], order[2 * i + 1]
        perm[u], perm[v] = v, u
    return tuple(perm)


def _restrict(gens, points):
    local = {x: i for i, x in enumerate(points)}
    return [tuple(local[g[x]] for x in points) for g in gens]


def _derived(data, gens):
    """A part whose group is that of gens or one of its quotients: gens on
    relabelled points, or gens on a union of some of their orbits."""
    n = len(gens[0])
    if data.draw(st.booleans()):
        relabel = data.draw(st.permutations(range(n)))
        inverse = sorted(range(n), key=relabel.__getitem__)
        return [tuple(relabel[g[inverse[x]]] for x in range(n)) for g in gens]
    _, orbits = partition(n, gens)
    chosen = data.draw(st.lists(st.sampled_from(orbits), min_size=1, unique=True))
    return _restrict(gens, sorted(x for orbit in chosen for x in orbit))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sym_components_matches_the_closure_over_all_parts(data):
    n_colors = data.draw(st.integers(1, 3))
    colors = ["a", "b", "c"][:n_colors]
    perms = []
    for _ in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(1, 5))
        perms.append([_involution(data, n) for _ in range(n_colors)])
    if len(perms) > 1 and data.draw(st.booleans()):
        # one part on the union of two: both are quotients of it
        left, right = perms[0], perms[1]
        shift = len(left[0])
        perms.append([l + tuple(shift + x for x in r) for l, r in zip(left, right)])
    for _ in range(data.draw(st.integers(0, 3))):
        perms.append(_derived(data, data.draw(st.sampled_from(perms))))
    parts = [("perms", gens) for gens in perms]
    if data.draw(st.booleans()):
        gens = data.draw(st.sampled_from(perms))
        n = len(gens[0])
        regular = reference_close(tuple(range(n)), [(p,) * n for p in gens], 10**6)[0]
        parts.append(("tables", regular))
    parts = data.draw(st.permutations(parts))
    cap = data.draw(st.sampled_from([50, 500, 10**6]))

    try:
        action, parents = reference_diagonal_closure(n_colors, parts, cap)
    except ResourceCap:
        with pytest.raises(ResourceCap):
            sym_components(colors, parts, cap=cap)
        return
    firsts = [row[0] for row in action]
    if 0 in firsts or len(set(firsts)) < n_colors:
        with pytest.raises(DegenerateGenerators):
            sym_components(colors, parts, cap=cap)
        return
    group = sym_components(colors, parts, cap=cap)
    assert group.gen_action == tuple(map(tuple, action))
    assert group.parents == tuple(parents)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_pass_close_matches_the_two_pass_close(data):
    n_colors = data.draw(st.integers(1, 3))
    widths = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    rows = [tuple(_involution(data, n) for n in widths) for _ in range(n_colors)]
    start = tuple(0 for _ in widths)
    cap = data.draw(st.integers(1, 200))
    try:
        expected = reference_close(start, rows, cap)
    except ResourceCap:
        with pytest.raises(ResourceCap, match=f"^element cap {cap} exceeded in closure$"):
            close(start, rows, cap)
        return
    assert close(start, rows, cap) == expected


def test_a_part_that_is_not_an_involution_is_refused():
    three_cycle = (1, 2, 0)
    swap = (1, 0, 2)
    with pytest.raises(DegenerateGenerators, match="'b' not involutive on part 0"):
        sym_components(["a", "b"], [("perms", [swap, three_cycle])])
    # a table that is a permutation but not an involution
    with pytest.raises(DegenerateGenerators, match="'a' not involutive on part 1"):
        sym_components(["a"], [("perms", [swap]), ("tables", [three_cycle])])


def _tables(*perm_parts):
    return [close(tuple(range(len(gens[0]))), [(p,) * len(gens[0]) for p in gens], 100)[0]
            for gens in perm_parts]


def test_quotient_parts_are_dropped():
    sign = [(1, 0), (1, 0)]  # S3 -> Z2 by the parity of a word
    assert _essential_parts(_tables(sign, TRIANGLE, SQUARE, TRIANGLE)) == [1, 2]
    # the parity is also a quotient of the square's reflection group
    assert _essential_parts(_tables(sign, SQUARE)) == [1]
    # TRIANGLE with its points renamed by (0 2), so a and b change places
    assert _essential_parts(_tables(TRIANGLE, [(1, 0, 2), (0, 2, 1)])) == [0]
    # isomorphic groups, but no generator-respecting map between them
    assert _essential_parts(_tables([(1, 0), (0, 1)], [(0, 1), (1, 0)])) == [0, 1]


@pytest.fixture(scope="module")
def stage_55440():
    """The colours and parts of the order-55,440 stage of the cube_2 tower
    at N = 12, and how many parts its closure kept."""
    seen, kept = [], []
    combine, essential = synthesis.sym_components, groups._essential_parts

    def recording_combine(colors, parts, **kwargs):
        seen.append((colors, parts))
        return combine(colors, parts, **kwargs)

    def recording_essential(tables):
        out = essential(tables)
        kept.append((len(tables), len(out)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "sym_components", recording_combine)
        mp.setattr(groups, "_essential_parts", recording_essential)
        _, reports = construct_n_acyclic(hypercube_group(["a", "b"]),
                                         SynthesisConfig(n_acyclic=12))
    assert [r.order for r in reports] == [4, 55440]
    colors, parts = seen[-1]
    return colors, parts, kept[-1]


def test_the_cube_2_stage_keeps_6_of_its_16_parts(stage_55440):
    colors, parts, kept = stage_55440
    assert kept == (16, 6)
    group = sym_components(colors, parts)
    assert group.order == 55440
    action, parents = reference_diagonal_closure(len(colors), parts, 10**6)
    assert group.gen_action == tuple(map(tuple, action))
    assert group.parents == tuple(parents)


def test_the_closure_cap_with_parts_dropped(stage_55440, monkeypatch):
    # the lcm of the part orders is already 55,440, so the order bound is
    # taken out to reach the closure itself
    colors, parts, _ = stage_55440
    with pytest.raises(ResourceCap, match="^element cap 55439 exceeded: "):
        sym_components(colors, parts, cap=55439)
    monkeypatch.setattr(groups, "_check_order_bound", lambda parts, cap: None)
    with pytest.raises(ResourceCap, match="^element cap 55439 exceeded in closure$"):
        sym_components(colors, parts, cap=55439)
    assert sym_components(colors, parts, cap=55440).order == 55440


def test_closure_reads_the_clock_every_4096_states(monkeypatch):
    # the adjacent transpositions of 8 points generate S8, of order 40,320
    gens = [tuple(j + 1 if x == j else j if x == j + 1 else x for x in range(8))
            for j in range(7)]
    rows = [(p,) * 8 for p in gens]
    clock = _clock(0.0)
    monkeypatch.setattr(traverse, "time", clock)
    action, parents = close(tuple(range(8)), rows, 10**6, deadline=1.0)
    assert len(parents) == 40320
    assert clock.calls == 40320 // 4096
    clock.calls = 0
    close(tuple(range(8)), rows, 10**6)
    assert clock.calls == 0
    clock = _clock(2.0)
    monkeypatch.setattr(traverse, "time", clock)
    with pytest.raises(ResourceCap, match="^closure timed out after 4096 elements$"):
        close(tuple(range(8)), rows, 10**6, deadline=1.0)
    assert clock.calls == 1


def test_stage_timeout_reaches_into_the_closure(monkeypatch):
    # only the closure sees a clock past the deadline, so the stage times
    # out inside it and not after one of the phases synthesis checks
    monkeypatch.setattr(traverse, "time", _clock(float("inf")))
    config = SynthesisConfig(n_acyclic=12, stage_timeout=3600.0)
    with pytest.raises(ResourceCap, match="^closure timed out after 4096 elements$") as info:
        construct_n_acyclic(hypercube_group(["a", "b"]), config)
    assert [r.order for r in info.value.stage_reports] == [4]
    assert info.value.partial.order == 4
