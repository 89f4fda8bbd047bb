"""Caps that stop a run early, and what such a run leaves behind."""

import json
import random

import pytest

from acygroups import groups, serialize as ser
from acygroups.cli import main
from acygroups.errors import ResourceCap
from acygroups.groupoid import ConstraintPattern
from acygroups.groups import sym_components


def _involution(rnd, n):
    points = list(range(n))
    rnd.shuffle(points)
    perm = list(range(n))
    for x, y in zip(points[::2], points[1::2]):
        perm[x], perm[y] = y, x
    return tuple(perm)


def test_order_bound_of_a_large_part_stops_at_the_cap(monkeypatch):
    # three random involutions on 40 points generate a group of order at
    # least 40!/2; sized exactly, Schreier-Sims takes ~100 times longer
    rnd = random.Random(1)
    part = ("perms", [_involution(rnd, 40) for _ in range(3)])
    limits = []
    group_order = groups.group_order

    def recording(gens, n, limit=None):
        limits.append(limit)
        return group_order(gens, n, limit=limit)

    monkeypatch.setattr(groups, "group_order", recording)
    message = r"^element cap 1000000 exceeded: the group has order at least \d+ \(part 0: 40 points"
    with pytest.raises(ResourceCap, match=message):
        sym_components(["a", "b", "c"], [part], cap=10**6)
    assert limits == [10**6]


def test_capped_groupoid_construct_writes_reports_and_manifest(tmp_path, capsys):
    pattern = tmp_path / "p.json"
    pattern.write_bytes(ser.canonical_bytes(ser.pattern_to_json(
        ConstraintPattern(["s", "t"], [("e", "s", "t", "f"), ("f", "t", "s", "e")]))))
    for cap, orders in (("5", []), ("100", [96])):
        manifest, out = tmp_path / f"m{cap}.json", tmp_path / f"gpd{cap}.json"
        code = main(["groupoid-construct", str(pattern), "-N", "2", "--cap", cap,
                     "-o", str(out), "--manifest", str(manifest)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert lines[-1].startswith(f"resource cap: element cap {cap} exceeded")
        # the finished stages go to stderr, one line each, and into the manifest
        assert [json.loads(line)["order"] for line in lines[:-1]] == orders
        assert [r["order"] for r in json.loads(manifest.read_text())["reports"]] == orders
        assert not out.exists()
