"""The one coset-cycle validator, through the group and template validators
that call it and directly over a groupoid's alpha-cosets (as
find_groupoid_coset_cycle rechecks), against the three validators it
replaced: the same verdict on every witness the searchers return, on
mutated witnesses, and on every connected list of two or three entries over
small groups, templates and groupoids."""

import pytest

from acygroups.acyclicity import find_coset_cycle, proper_subsets, validate_coset_cycle, validate_cycle
from acygroups.constraint import IContext, find_i_coset_cycle, validate_i_coset_cycle
from acygroups.errors import ResourceCap, UnknownName
from acygroups.groupoid import find_groupoid_coset_cycle, inverse_closed_proper_subsets

from conftest import corpus
from oracles import (
    reference_validate_coset_cycle,
    reference_validate_groupoid_coset_cycle,
    reference_validate_i_coset_cycle,
    unpruned_coset_cycle,
)
from test_comp_tables import _cases
from test_kernel_equivalence import _test_groupoids
from test_search_kernel import _gamma_filters, _listed_families


def _first_off(table, points, p):
    """The first of points outside p's component of table, or None."""
    return next((q for q in points if table.find(q) != table.find(p)), None)


def _agree_on_witnesses(witnesses, validate, reference, off):
    """Every rotation of every witness is valid; with the subsets of its
    first two entries swapped it gets the reference's verdict; with one
    point moved off its coset by off(entry) (skipped when None), or cut to
    its first entry, it is rejected by both.  Returns the number of moved
    points."""
    moved = 0
    for entries in witnesses:
        entries = list(entries)
        for r in range(len(entries)):
            rotated = entries[r:] + entries[:r]
            assert validate(rotated) and reference(rotated), rotated
        (a0, *p0), (a1, *p1) = entries[:2]
        swapped = [(a1, *p0), (a0, *p1)] + entries[2:]
        assert validate(swapped) == reference(swapped), swapped
        mutants = [entries[:1]]
        for i, entry in enumerate(entries):
            if off(entry) is not None:
                mutants.append(entries[:i] + [off(entry)] + entries[i + 1:])
                moved += 1
        for mutant in mutants:
            assert not validate(mutant) and not reference(mutant), mutant
    return moved


def _connected_lists(alphas, anchors, block, n):
    """Every list of n (alpha, point) entries from an anchor whose points
    each lie in block(alpha, point) of the entry before: connected but for
    the closing step, and separated or not."""
    lists = [[(a, p)] for a in alphas for p in anchors]
    for _ in range(n - 1):
        lists = [ent + [(a, q)] for ent in lists for q in block(*ent[-1]) for a in alphas]
    return lists


def _agree_on_lists(lists, validate, reference):
    """The same verdict on every list; returns the number of valid lists."""
    verdicts = [validate(entries) for entries in lists]
    assert verdicts == [reference(entries) for entries in lists]
    return sum(verdicts)


def test_group_validator_agrees_with_its_reference():
    found = moved = valid = lists = 0
    for group in corpus().values():
        witnesses = set()
        for n in range(2, 7):
            cycles = [find_coset_cycle(group, n, gamma=gamma, allow_full=full)
                      for gamma, full in _gamma_filters(len(group.colors))]
            cycles += [unpruned_coset_cycle(group, n, alphas=alphas)
                       for alphas in _listed_families(len(group.colors))]
            witnesses.update(cyc for cyc in cycles if cyc is not None)
        found += len(witnesses)

        def validate(entries):
            return validate_coset_cycle(group, entries)

        def reference(entries):
            return reference_validate_coset_cycle(group, entries)

        def off(entry):
            a, g = entry
            q = _first_off(group.coset_table(a), range(group.order), g)
            return None if q is None else (a, q)

        moved += _agree_on_witnesses(sorted(witnesses, key=repr), validate, reference, off)
        if group.order <= 8:
            alphas = proper_subsets(len(group.colors))
            for n in (2, 3):
                connected = _connected_lists(
                    alphas, (0,), lambda a, g: group.coset_table(a).block(g), n)
                valid += _agree_on_lists(connected, validate, reference)
                lists += len(connected)
    assert found == 11 and moved > 0
    assert 0 < valid < lists


def test_template_validator_agrees_with_its_reference():
    found = moved = valid = lists = 0
    for group, template in _cases():
        ctx = IContext(group, template)
        witnesses = {find_i_coset_cycle(group, template, n, ctx=ctx) for n in range(2, 6)}
        witnesses.discard(None)
        found += len(witnesses)

        def validate(entries):
            return validate_i_coset_cycle(group, template, entries, ctx=ctx)

        def reference(entries):
            return reference_validate_i_coset_cycle(group, template, entries, ctx=ctx)

        def off(entry):
            a, s, g = entry
            pairs = [ctx.pair(s, h) for h in range(group.order)]
            q = _first_off(ctx.comp_tables(a), pairs, ctx.pair(s, g))
            return None if q is None else (a, *ctx.unpair(q))

        moved += _agree_on_witnesses(sorted(witnesses, key=repr), validate, reference, off)
        if template.n * group.order <= 36:
            anchors = [ctx.pair(s, 0) for s in range(template.n)]
            alphas = proper_subsets(len(group.colors))
            for n in (2, 3):
                connected = [
                    [(a, *ctx.unpair(x)) for a, x in entries]
                    for entries in _connected_lists(
                        alphas, anchors, lambda a, x: ctx.comp_tables(a).block(x), n)
                ]
                valid += _agree_on_lists(connected, validate, reference)
                lists += len(connected)
    assert found == 5 and moved > 0
    assert 0 < valid < lists


def test_template_validator_range_checks_lists_of_two_or_more_entries():
    group, template = _cases()[0]
    alpha = frozenset({0})
    outside = (alpha, template.n, 0)
    assert not validate_i_coset_cycle(group, template, [outside])
    assert not reference_validate_i_coset_cycle(group, template, [outside])
    for validate in (validate_i_coset_cycle, reference_validate_i_coset_cycle):
        with pytest.raises(UnknownName):
            validate(group, template, [(alpha, 0, 0), outside])
        with pytest.raises(UnknownName):
            validate(group, template, [(alpha, 0, group.order), (alpha, 0, 0)])


def test_groupoid_validator_agrees_with_its_reference():
    found = moved = valid = lists = 0
    for gpd, ns in _test_groupoids():
        witnesses = set()
        for n in ns:
            try:
                cyc = find_groupoid_coset_cycle(gpd, n)
            except ResourceCap:
                continue
            if cyc is not None:
                witnesses.add(cyc)
        found += len(witnesses)

        def validate(entries):
            return validate_cycle(gpd.subset_closures, entries)

        def reference(entries):
            return reference_validate_groupoid_coset_cycle(gpd, entries)

        def off(entry):
            a, g = entry
            q = _first_off(gpd.subset_closures(a), range(gpd.order), g)
            return None if q is None else (a, q)

        moved += _agree_on_witnesses(sorted(witnesses, key=repr), validate, reference, off)
        if gpd.order <= 48:
            alphas = inverse_closed_proper_subsets(gpd.pattern)
            for n in (2, 3):
                connected = _connected_lists(
                    alphas, gpd.neutral, lambda a, g: gpd.subset_closures(a).block(g), n)
                valid += _agree_on_lists(connected, validate, reference)
                lists += len(connected)
    # no groupoid here has a coset cycle of length 2 or 3
    assert found > 0 and moved > 0
    assert valid == 0 and lists > 0
