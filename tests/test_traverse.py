import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups.egraph import EGraph, disjoint_union, hypercube
from acygroups.errors import ResourceCap
from acygroups.groups import graph_generator_perms, sym
from acygroups.traverse import NO_EDGE, Cosets, UnionFind, close, gather

from oracles import partition, reference_cosets


def draw_matching(data, n):
    """A random partial matching on n points as a successor row, with loops."""
    order = data.draw(st.permutations(range(n)))
    pairs = data.draw(st.integers(0, n // 2))
    row = [NO_EDGE] * n
    for i in range(pairs):
        u, v = order[2 * i], order[2 * i + 1]
        row[u], row[v] = v, u
    for v in order[2 * pairs:]:
        if data.draw(st.booleans()):
            row[v] = v
    return row


def test_gather_reads_index_lists_of_every_length():
    # itemgetter returns a bare item for one index and needs at least one
    seq = (5, 6, 7)
    assert gather(seq, []) == ()
    assert gather(seq, [2]) == (7,)
    assert gather(seq, (2, 0, 2)) == (7, 5, 7)
    assert gather(list(seq), range(3)) == seq
    for idx in ([3], [0, 3], (1, 2, 9)):
        with pytest.raises(IndexError):
            gather(seq, idx)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_partition_agrees_with_union_find(data):
    n = data.draw(st.integers(0, 12))
    rows = [draw_matching(data, n) for _ in range(data.draw(st.integers(0, 3)))]
    chosen = data.draw(st.lists(st.integers(0, 2), unique=True).map(
        lambda cs: [c for c in cs if c < len(rows)]))
    sub = [rows[c] for c in chosen]
    ids, members = partition(n, sub)

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in sub:
        for u, v in enumerate(row):
            if v != NO_EDGE:
                parent[find(u)] = find(v)
    for x in range(n):
        for y in range(n):
            assert (ids[x] == ids[y]) == (find(x) == find(y))
    assert sorted(x for block in members for x in block) == list(range(n))
    for cid, block in enumerate(members):
        assert all(ids[x] == cid for x in block)
        assert block[0] == min(block)
    assert [block[0] for block in members] == sorted(block[0] for block in members)
    assert partition(n, [])[1] == tuple((x,) for x in range(n))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cosets_walk_the_reference_blocks_in_any_order(data):
    # involutions with fixed points, loops and NO_EDGE entries, as in the
    # successor rows of groupoids
    n = data.draw(st.integers(0, 14))
    rows = [draw_matching(data, n) for _ in range(data.draw(st.integers(0, 3)))]
    ref = reference_cosets(n, rows)
    tables = []
    for _ in range(2):
        order = data.draw(st.permutations(range(n)))
        table = Cosets(n, rows)
        walked = set()
        for k, x in enumerate(order):
            least = table.find(x) if k % 2 else min(table.block(x))
            assert least == ref.ids[x] == min(ref.block(x))
            assert table.members[least] == ref.members[least] == tuple(sorted(ref.block(x)))
            assert table.block(x) == ref.block(x)
            walked.update(ref.block(x))
            # nothing outside the components asked for is walked
            assert {y for y in range(n) if table.ids[y] != -1} == walked
            assert set(table.members) == {ref.ids[y] for y in walked}
        tables.append(table)
    assert tables[0].ids == tables[1].ids == list(ref.ids)
    assert tables[0].members == tables[1].members == ref.members


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_union_find_classes_group_indices_by_root(data):
    n = data.draw(st.integers(0, 16))
    uf = UnionFind(n)
    if n:
        point = st.integers(0, n - 1)
        for a, b in data.draw(st.lists(st.tuples(point, point), max_size=2 * n)):
            uf.union(a, b)
    assert all(p <= x for x, p in enumerate(uf.parent))
    class_of, classes = uf.classes()
    by_root = {}
    for x in range(n):
        by_root.setdefault(uf.find(x), []).append(x)
    assert classes == sorted(by_root.values(), key=min)
    assert class_of == [next(k for k, c in enumerate(classes) if x in c) for x in range(n)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_sym_order_matches_sympy_and_close_stops_at_cap(data):
    from sympy.combinatorics import Permutation, PermutationGroup

    n = data.draw(st.integers(1, 6))
    colors = ["a", "b", "c"][: data.draw(st.integers(1, 3))]
    h = EGraph([str(v) for v in range(n)], colors, [draw_matching(data, n) for _ in colors])
    group = sym(h)
    perms = graph_generator_perms(disjoint_union([h, hypercube(h.colors)]))
    assert group.order == PermutationGroup([Permutation(list(p)) for p in perms]).order()

    # the group's regular table against its points has one state per element
    action, xs, _ = close(group.gen_action, perms, (0, 0), group.order)
    assert len(xs) == len(action[0]) == group.order
    with pytest.raises(ResourceCap):
        close(group.gen_action, perms, (0, 0), group.order - 1)
    with pytest.raises(ResourceCap):
        sym(h, cap=group.order - 1)
