"""The coset-cycle search decides each level configuration once per walk:
the same witnesses, node counts, budget errors and clock reads as the walk
one by one (``oracles.one_by_one_extend``)."""

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acygroups import acyclicity
from acygroups.acyclicity import all_subsets, find_coset_cycle, search_coset_cycle
from acygroups.constraint import find_i_coset_cycle
from acygroups.errors import ResourceCap
from acygroups.groupoid import find_groupoid_coset_cycle

from conftest import corpus
from oracles import one_by_one_extend
from test_comp_tables import _cases
from test_kernel_equivalence import _random_partition, _test_groupoids, triangle_template
from test_search_kernel import _clock, _gamma_filters, group_2592  # noqa: F401  (fixture)


class Recorded(acyclicity._Walk):
    """A walk that keeps itself in ``made`` and the entries left to add at
    each level its memo counts at once in ``hits``."""

    made, hits = [], []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)

    def add(self, count):
        self.hits.append(self.target - len(self.seq))
        super().add(count)


def _run(search, one_by_one=False):
    """(result, nodes, levels left of each memo hit) of one search, walked
    by the kernel or, with one_by_one, by the memo-free reference."""
    Recorded.made.clear()
    Recorded.hits.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(acyclicity, "_Walk", Recorded)
        if one_by_one:
            patch.setattr(acyclicity, "_extend", one_by_one_extend)
        found = search()
    return found, Recorded.made[0].nodes, list(Recorded.hits)


GROUPS = corpus()
TEMPLATES = [*_cases(), triangle_template()]
GROUPOIDS = [gpd for gpd, _ in _test_groupoids()]


@st.composite
def searches(draw):
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["group", "template", "groupoid"]))
    if kind == "group":
        group = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
        gamma, full = draw(st.sampled_from(_gamma_filters(len(group.colors))))
        return partial(find_coset_cycle, group, n, gamma=gamma, allow_full=full)
    if kind == "template":
        group, template = draw(st.sampled_from(TEMPLATES))
        return partial(find_i_coset_cycle, group, template, n)
    return partial(find_groupoid_coset_cycle, draw(st.sampled_from(GROUPOIDS)), n,
                   budget=50_000_000)


@settings(max_examples=200, deadline=None)
@given(searches())
def test_memo_keeps_the_witness_and_the_node_count(search):
    assert _run(search)[:2] == _run(search, one_by_one=True)[:2]


def test_memo_keeps_the_witness_on_random_partitions():
    # random partitions of up to 16 points reach deep levels whose closing
    # levels below close in one context and not in another (entry 0's
    # separation reads the second entry); a level that stored its nodes
    # after such a walk would hide the cycle from the next context
    rng = random.Random(1)
    cycles = 0
    for _ in range(600):
        n_points, n_colors = rng.randint(4, 16), rng.randint(2, 3)
        subsets = all_subsets(n_colors)
        tables = {a: _random_partition(rng, n_points)[0] for a in subsets}
        alphas = [a for a in subsets if rng.random() < 0.8] or subsets
        anchors = sorted(rng.sample(range(n_points), rng.randint(1, 2)))
        for n in range(4, 8):
            search = partial(search_coset_cycle, alphas, anchors, n, tables.__getitem__)
            found, nodes, _ = _run(search)
            assert (found, nodes) == _run(search, one_by_one=True)[:2]
            cycles += found is not None
    assert cycles > 0


@pytest.mark.parametrize("n", [5, 6])
def test_memo_reuses_deep_levels_on_the_order_2592_group(group_2592, n):
    # N = 6 finds the 6-cycle; both walks find it in 680,027 nodes
    found, nodes, hits = _run(partial(find_coset_cycle, group_2592, n))
    assert _run(partial(find_coset_cycle, group_2592, n), one_by_one=True) == (found, nodes, [])
    assert max(hits) >= 3


def _clock_passing_at(k):
    """A stand-in for the time module whose monotonic() reads past a 1.0
    deadline from its k-th call on, and counts its calls."""
    clock = _clock(0.0)

    def monotonic():
        clock.calls += 1
        return 2.0 if clock.calls >= k else 0.0

    clock.monotonic = monotonic
    return clock


@pytest.mark.parametrize("k", range(1, 50))
def test_memo_keeps_every_deadline_of_the_walk_one_by_one(monkeypatch, group_2592, k):
    # a clock past the deadline from its k-th read stops the N = 5 search
    # at the k-th multiple of 4096 up to k = 9, at the 38,880 nodes at which
    # the symmetries are found and the clock is read once more at k = 10,
    # and at the (k - 1)-th multiple after; every read but the one after
    # the symmetries is made while a decided level adds its nodes at once
    inside = []

    class Timed(acyclicity._Walk):
        def add(self, count):
            try:
                super().add(count)
            except ResourceCap:
                inside.append(k)
                raise

    monkeypatch.setattr(acyclicity, "_Walk", Timed)
    nodes = 4096 * k if k < 10 else 38_880 if k == 10 else 4096 * (k - 1)
    for one_by_one in (False, True):
        clock = _clock_passing_at(k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(acyclicity, "time", clock)
            if one_by_one:
                patch.setattr(acyclicity, "_extend", one_by_one_extend)
            with pytest.raises(ResourceCap, match=f"timed out after {nodes} nodes"):
                find_coset_cycle(group_2592, 5, deadline=1.0)
        assert clock.calls == k
    assert len(inside) == (k != 10)


@pytest.mark.parametrize("budget", [*range(25_999, 199_720, 1_733), 199_720])
def test_memo_keeps_every_budget_of_the_walk_one_by_one(group_2592, budget):
    # 25,998 nodes decide N = 4 and 199,721 decide N = 5; every budget in
    # between stops the N = 5 search inside its last length
    with pytest.raises(ResourceCap, match=f"budget {budget} exceeded"):
        find_coset_cycle(group_2592, 5, budget=budget)


def test_memo_search_completes_at_its_node_count(group_2592):
    assert _run(partial(find_coset_cycle, group_2592, 5, budget=199_721))[:2] == (None, 199_721)
