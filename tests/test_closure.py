"""The closure of the stage groups: pairwise folds over the essential parts
only, against the two-pass closure over every part, its cap, its deadline
and the projection onto the stage before."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups import groups, synthesis, traverse
from acygroups import serialize as ser
from acygroups.cli import main
from acygroups.errors import DegenerateGenerators, ResourceCap
from acygroups.groups import EGroup, _essential_parts, homomorphism, sym_components
from acygroups.synthesis import SynthesisConfig, construct_n_acyclic
from acygroups.traverse import bfs_parents, close

from conftest import corpus, hypercube_group
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


def _respects_generators(group, table):
    """group.projection is a generator-respecting map onto the points of
    the regular table, the identity to point 0."""
    proj = group.projection
    return proj[0] == 0 and all(
        proj[row[g]] == target[proj[g]]
        for row, target in zip(group.gen_action, table) for g in range(group.order))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_the_fold_matches_the_diagonal_closure(data):
    # the shapes the fold must get right: one part, one-point parts,
    # quotient parts and three colours, with a regular part in front
    shape = data.draw(st.sampled_from(["one part", "one-point parts", "quotients", "three"]))
    n_colors = 3 if shape == "three" else data.draw(st.integers(1, 3))
    colors = ["a", "b", "c"][:n_colors]
    n = data.draw(st.integers(2, 5))
    perms = [[_involution(data, n) for _ in range(n_colors)]]
    if data.draw(st.integers(0, 3)):
        # a cube part keeps the generators distinct and non-trivial
        cube = [tuple(x ^ (1 << c) for x in range(2**n_colors)) for c in range(n_colors)]
        perms = [cube] if shape == "one part" else perms + [cube]
    if shape == "one-point parts":
        perms += [[(0,)] * n_colors] * data.draw(st.integers(1, 2))
    if shape in ("quotients", "three"):
        for _ in range(data.draw(st.integers(1, 3))):
            perms.append(_derived(data, data.draw(st.sampled_from(perms))))
    perms = data.draw(st.permutations(perms))
    parts = [("perms", gens) for gens in perms]
    if shape != "one part" or data.draw(st.booleans()):
        gens = data.draw(st.sampled_from(perms))
        regular = reference_close(tuple(range(len(gens[0]))), [(p,) * len(gens[0]) for p in gens],
                                  10**6)[0]
        parts.insert(0, ("tables", regular))
    action, parents = reference_diagonal_closure(n_colors, parts, 10**6)
    firsts = [row[0] for row in action]
    if 0 in firsts or len(set(firsts)) < n_colors:
        return  # degenerate generators are the caller's to refuse
    group = sym_components(colors, parts)
    assert group.gen_action == tuple(map(tuple, action))
    assert group.parents == tuple(parents)
    if parts[0][0] == "tables":
        assert _respects_generators(group, parts[0][1])
    else:
        assert group.projection is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_pass_close_matches_the_two_pass_close(data):
    n_colors = data.draw(st.integers(1, 3))
    widths = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=2))
    a, b = ([_involution(data, n) for _ in range(n_colors)] for n in widths)
    start = tuple(data.draw(st.integers(0, n - 1)) for n in widths)
    cap = data.draw(st.integers(1, 200))
    try:
        expected = reference_close(start, list(zip(a, b)), cap)
    except ResourceCap:
        with pytest.raises(ResourceCap, match=f"^element cap {cap} exceeded in closure$"):
            close(a, b, start, cap)
        return
    action, xs, ys = close(a, b, start, cap)
    # the breadth-first forest of the tables is the reference's parents
    assert (action, bfs_parents(action, len(xs), [0])[1]) == expected
    # each state's coordinates, in the order the reference numbers them
    index = {start: 0}
    for x, y in zip(xs, ys):
        for row_a, row_b in zip(a, b):
            index.setdefault((row_a[x], row_b[y]), len(index))
    assert list(index) == list(zip(xs, ys))


def test_a_part_that_is_not_an_involution_is_refused():
    three_cycle = (1, 2, 0)
    swap = (1, 0, 2)
    with pytest.raises(DegenerateGenerators, match="'b' not involutive on part 0"):
        sym_components(["a", "b"], [("perms", [swap, three_cycle])])
    # a table that is a permutation but not an involution
    with pytest.raises(DegenerateGenerators, match="'a' not involutive on part 1"):
        sym_components(["a"], [("perms", [swap]), ("tables", [three_cycle])])


def _tables(*perm_parts):
    return [reference_close(tuple(range(len(gens[0]))), [(p,) * len(gens[0]) for p in gens],
                            100)[0]
            for gens in perm_parts]


def test_quotient_parts_are_dropped():
    # each dropped part comes with its map from the kept part's points:
    # the BFS-numbered S3 is 1, a, b, ab, ba, aba and D4 1, a, b, ab, ba,
    # aba, bab, abab, so the parity of a word reads 0 1 1 0 0 1 (1 0)
    sign = [(1, 0), (1, 0)]  # S3 -> Z2 by the parity of a word
    parity = [0, 1, 1, 0, 0, 1]
    assert _essential_parts(_tables(sign, TRIANGLE, SQUARE, TRIANGLE)) == (
        [1, 2], {3: (1, [0, 1, 2, 3, 4, 5]), 0: (1, parity)})
    # the parity is also a quotient of the square's reflection group
    assert _essential_parts(_tables(sign, SQUARE)) == ([1], {0: (1, parity + [1, 0])})
    # TRIANGLE with its points renamed by (0 2), so a and b change places;
    # the regular actions agree
    assert _essential_parts(_tables(TRIANGLE, [(1, 0, 2), (0, 2, 1)])) == (
        [0], {1: (0, [0, 1, 2, 3, 4, 5])})
    # isomorphic groups, but no generator-respecting map between them
    assert _essential_parts(_tables([(1, 0), (0, 1)], [(0, 1), (1, 0)])) == ([0, 1], {})


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
        kept.append((len(tables), len(out[0])))
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


def test_derived_parents_match_the_reference_on_the_corpus():
    # each corpus group's tables walked again by the reference closure of
    # its regular action: the same numbering and the same parents
    for name, group in corpus().items():
        action, parents = reference_close((0,), [(row,) for row in group.gen_action], 10**6)
        assert group.gen_action == tuple(map(tuple, action)), name
        assert group.parents == tuple(parents), name


def test_a_tower_derives_parents_only_when_a_word_is_asked_for(monkeypatch):
    walks = []
    derive = groups.bfs_parents

    def recording(rows, n, roots):
        walks.append(n)
        return derive(rows, n, roots)

    monkeypatch.setattr(groups, "bfs_parents", recording)
    group, reports = construct_n_acyclic(hypercube_group(["a", "b"]),
                                         SynthesisConfig(n_acyclic=12))
    assert [r.order for r in reports] == [4, 55440]
    assert 55440 not in walks
    word = group.word_of(55439)
    assert walks[-1] == 55440 and group.evaluate(word) == 55439
    group.word_of(1)
    assert walks.count(55440) == 1


def test_the_cube_2_tower_keeps_inside_its_memory_budget(tmp_path):
    # with a parent link per element the run peaked at 13.8 MiB, without
    # at 8.8 MiB; a warm-up run keeps imports and the cached parser out of
    # the count
    src = tmp_path / "cube_2.json"
    src.write_bytes(ser.canonical_bytes(ser.egroup_to_json(hypercube_group(["a", "b"]))))
    argv = ["construct", str(src), "-N", "12", "-o", str(tmp_path / "out.json")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


def test_egroup_refuses_each_degenerate_table_of_order_55440(stage_55440):
    # the refusals, messages and indices of the small tables, on whole rows;
    # a Cayley table fixes no element, so for z outside 0, 1 and 1's image
    # the two rows below keep 0's image and break one row each
    colors, parts, _ = stage_55440
    group = sym_components(colors, parts)
    first, second = group.gen_action
    z = min({2, 3, 4} - {second[1]})
    repeated, swapped = list(second), list(second)
    repeated[1] = second[z]
    swapped[1], swapped[z] = second[z], second[1]
    cases = [
        ([first, repeated], "generator table is not a permutation", 1),
        ([first, swapped], f"generator {colors[1]!r} not involutive", 1),
        ([first, range(group.order)], "generator equals the identity", 1),
        ([first, first], "two generators coincide", 1),
    ]
    assert EGroup(colors, group.gen_action, group.order).order == 55440
    for rows, message, index in cases:
        with pytest.raises(DegenerateGenerators, match=f"^{message}$") as err:
            EGroup(colors, rows, group.order)
        assert err.value.where == ("action", colors[index])


def _size_parts_against(monkeypatch, cap):
    """Check the order bound of every part against cap instead of the
    closure's own cap, which takes the bound out below cap: every
    OrderBound, the one of the parts and the one of the components
    together, reads cap in add."""
    init = groups.OrderBound.__init__

    def at_cap(self, _):
        init(self, cap)

    monkeypatch.setattr(groups.OrderBound, "__init__", at_cap)


def test_the_closure_cap_with_parts_dropped(stage_55440, monkeypatch):
    # the lcm of the part orders is already 55,440, so the order bound is
    # taken out to reach the closure itself
    colors, parts, _ = stage_55440
    with pytest.raises(ResourceCap, match="^element cap 55439 exceeded: "):
        sym_components(colors, parts, cap=55439)
    _size_parts_against(monkeypatch, 10**6)
    with pytest.raises(ResourceCap, match="^element cap 55439 exceeded in closure$"):
        sym_components(colors, parts, cap=55439)
    assert sym_components(colors, parts, cap=55440).order == 55440


# the adjacent transpositions of 8 points generate S8, of order 40,320
S8 = [tuple(j + 1 if x == j else j if x == j + 1 else x for x in range(8)) for j in range(7)]
S8_COLORS = list("abcdefg")


def _fold_sizes(monkeypatch):
    """Record the size of every walk sym_components makes."""
    sizes = []
    walk = groups.close

    def recording(a, b, start, cap, deadline=None):
        out = walk(a, b, start, cap, deadline)
        sizes.append(len(out[1]))
        return out

    monkeypatch.setattr(groups, "close", recording)
    return sizes


def test_a_perms_part_folds_its_points_until_its_order(monkeypatch):
    sizes = _fold_sizes(monkeypatch)
    group = sym_components(S8_COLORS, [("perms", S8)])
    # points 0..6 give 8, 8*7, ..., 8!/1! states, the part's order, so
    # point 7 is not folded; the last walk numbers the group's own table
    assert sizes == [8, 56, 336, 1680, 6720, 20160, 40320, 40320]
    action, parents = reference_diagonal_closure(7, [("perms", S8)], 10**6)
    assert group.gen_action == tuple(map(tuple, action))
    assert group.parents == tuple(parents)


def test_a_deadline_inside_an_intermediate_fold(monkeypatch):
    # only the fold of point 4, with 6,720 states, is long enough to read
    # the clock
    monkeypatch.setattr(traverse, "time", _clock(2.0))
    with pytest.raises(ResourceCap, match="^closure timed out after 4096 elements$"):
        sym_components(S8_COLORS, [("perms", S8)], deadline=1.0)


def test_a_cap_inside_an_intermediate_fold(monkeypatch):
    # the order bound is taken out; the fold of point 4 has 6,720 states
    _size_parts_against(monkeypatch, 10**6)
    sizes = _fold_sizes(monkeypatch)
    with pytest.raises(ResourceCap, match="^element cap 5000 exceeded in closure$"):
        sym_components(S8_COLORS, [("perms", S8)], cap=5000)
    assert sizes == [8, 56, 336, 1680]


def test_the_projection_is_the_homomorphism_onto_the_stage_before(monkeypatch):
    # every stage of the corpus towers and of the cube_2 tower at N = 12
    seen = []
    conservation = synthesis._conservation

    def recording(prev, new, *rest):
        seen.append((prev, new))
        return conservation(prev, new, *rest)

    monkeypatch.setattr(synthesis, "_conservation", recording)
    towers = [(group, 2) for group in corpus().values()] + [(hypercube_group(["a", "b"]), 12)]
    for group, n in towers:
        construct_n_acyclic(group, SynthesisConfig(n_acyclic=n, early_exit=True))
    assert len(seen) >= len(towers)
    for prev, new in seen:
        assert new.projection is not None
        assert tuple(new.projection) == homomorphism(new, prev)
    assert max(new.order for _, new in seen) == 55440


def test_closure_reads_the_clock_every_4096_states(monkeypatch):
    # S8's regular table against its points, started at the identity and
    # point 0: 40,320 states
    regular = sym_components(S8_COLORS, [("perms", S8)]).gen_action
    clock = _clock(0.0)
    monkeypatch.setattr(traverse, "time", clock)
    _, xs, _ = close(regular, S8, (0, 0), 10**6, deadline=1.0)
    assert len(xs) == 40320
    assert clock.calls == 40320 // 4096
    clock.calls = 0
    close(regular, S8, (0, 0), 10**6)
    assert clock.calls == 0
    clock = _clock(2.0)
    monkeypatch.setattr(traverse, "time", clock)
    with pytest.raises(ResourceCap, match="^closure timed out after 4096 elements$"):
        close(regular, S8, (0, 0), 10**6, deadline=1.0)
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
