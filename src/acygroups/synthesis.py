"""Inductive construction of groups with graded coset acyclicity.

The tower runs one stage per generator-count level k.  Each stage takes the
disjoint union of the current Cayley graph with every free amalgamation
chain over the subsets of size at most k (and, when a reachability template
is in play, every amalgamation cluster and every small coset amalgam of an
embedded skeleton), deduplicated up to colour isomorphism, and passes to
the group generated by that union's matchings.  Nothing the tower claims is
assumed: conservation, acyclicity and freeness are re-verified per stage
and the final group is re-checked by the independent searchers.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from itertools import combinations, product

from .acyclicity import DEFAULT_SEARCH_BUDGET, GammaFilter, all_subsets, find_coset_cycle
from .amalgam import amalgam_chain, amalgam_cluster
from .canon import canonical_form
from .constraint import IContext, find_i_coset_cycle, is_free_over, small_coset_amalgam
from .errors import ResourceCap
from .groups import (
    OrderBound,
    default_cap,
    graph_generator_perms,
    inherit_compatibility,
    sym_components,
)
from .traverse import gather


MAX_COMPONENTS = 20_000


@dataclass(frozen=True)
class SynthesisConfig:
    n_acyclic: int = 2
    element_cap: int = field(default_factory=default_cap)
    stage_timeout: float | None = None
    search_budget: int = DEFAULT_SEARCH_BUDGET
    early_exit: bool = False

    def __post_init__(self):
        if self.n_acyclic < 2:
            raise ValueError("target acyclicity must be at least 2")
        if self.element_cap <= 0:
            raise ValueError("the element cap must be positive")


@dataclass
class StageReport:
    stage: int
    inventory: dict
    order: int
    conservation: dict
    conservation_ok: bool
    acyclic_checked_to: int
    acyclic_ok: bool
    free_ok: bool | None = None
    final_checks: dict | None = None
    notes: list = field(default_factory=list)

    def to_json(self):
        return asdict(self)


def _chain_pointings(group, subsets, max_len):
    """(alphas, per-position point sets) of the chains up to max_len that
    amalgam_chain accepts, by length, each in product(subsets) order.

    Interior position i admits the g in G[alpha_i] outside
    G[alpha_{i-1} & alpha_i] * G[alpha_i & alpha_{i+1}], which depends on
    that subset triple alone.  So a chain's prefix is a chain, and the
    chains of each length are those one shorter, each extended by every
    subset whose new interior position admits a point: the walk holds one
    length at a time and ends at the first length with no chain.  The last
    point is the identity.

    So is the first point g_0.  Only glue 0, (0, g_0*h) ~ (1, h), reads it:
    the interior checks and the quotient do not.  On copy 0, x -> g_0^-1*x
    commutes with the right action of the generators, so it is a colour
    isomorphism onto the chain with g_0 = 1.  Subgroup elements are sorted,
    so the identity comes first in product order, and the first chain of
    every isomorphism class, the one the dedupe keeps, already has g_0 = 1.
    """
    admissible = {}

    def interior(left, here, right):
        key = (left, here, right)
        points = admissible.get(key)
        if points is None:
            find = group.coset_table(here & right).find
            met = set(map(find, group.subgroup_elements(left & here)))
            points = tuple(g for g in group.subgroup_elements(here) if find(g) not in met)
            admissible[key] = points
        return points

    level = [((a,), ()) for a in subsets]
    for length in range(1, max_len + 1):
        if length > 1:
            grown = []
            for alphas, points in level:
                for a in subsets:
                    here = interior(alphas[-2], alphas[-1], a) if length > 2 else (0,)
                    if here:
                        grown.append((alphas + (a,), points + (here,)))
            level = grown
        if not level:
            return
        for alphas, points in level:
            yield alphas, points + ((0,),)


def _enumerate_chains(group, subsets, max_len, deadline=None):
    """(canonical form, graph) of the deduplicated free amalgamation chains
    with constituents from subsets, each built when it is asked for;
    ResourceCap once the monotonic clock, read before each chain is
    offered, has passed deadline."""
    seen = set()
    offered = 0
    for alphas, pointings in _chain_pointings(group, subsets, max_len):
        for gs in product(*pointings):
            _check_deadline(deadline, f"stage graph timed out after {offered} chains")
            offered += 1
            am = amalgam_chain(group, list(zip(alphas, gs)))
            if am is None:
                continue
            key = canonical_form(am.graph)
            if key in seen:
                continue
            seen.add(key)
            yield key, am.graph


def stage_graph(group, k, igraph=None, config=None, ctx=None, deadline=None):
    """The components that join the Cayley graph of group in the stage
    graph for level k, with an inventory of the whole stage graph.

    Chains of up to max(1, N - 2) constituents (and, given a template
    igraph, clusters plus skeleton extensions) over the subsets of size
    <= k are kept once per colour-isomorphism type.  The Cayley graph is
    never built: the closure takes the group's tables for it, and the
    inventory counts it as one component on |G| vertices.  The deadline is
    read before each chain, cluster and extension.

    The stage group maps onto the group of each component, so each is sized
    by :class:`~acygroups.groups.OrderBound` as soon as it is kept, after
    the group itself as part 0: a stage graph that provably passes
    ``config.element_cap`` is refused at its first component that proves
    it, and the rest is never built.  Each kept component comes back as
    (graph, generator perms, order of its group).
    """
    config = config or SynthesisConfig()
    inventory = {f"cayley[{group.order}v]": 1}
    sizing = OrderBound(config.element_cap)
    sizing.add("tables", group.gen_action)
    components, seen = [], set()

    def keep(kind, graph, key=None):
        label = f"{kind}[{graph.n}v]"
        inventory[label] = inventory.get(label, 0) + 1
        key = canonical_form(graph) if key is None else key
        if key in seen:
            return
        seen.add(key)
        perms = graph_generator_perms(graph)
        components.append((graph, perms, sizing.add("perms", perms)))
        if len(components) >= MAX_COMPONENTS:  # with the Cayley graph, one more than the cap
            raise ResourceCap(f"component cap {MAX_COMPONENTS} exceeded")

    gamma = [a for a in all_subsets(len(group.colors), max_size=k) if a]
    for key, graph in _enumerate_chains(group, gamma, max(1, config.n_acyclic - 2), deadline):
        keep("chain", graph, key)
    if igraph is not None:
        clusters = (c for size in range(2, len(gamma) + 1) for c in combinations(gamma, size))
        for made, alphas in enumerate(clusters):
            _check_deadline(deadline, f"stage graph timed out after {made} clusters")
            keep("cluster", amalgam_cluster(group, list(alphas)).graph)
        ctx = ctx or IContext(group, igraph)
        for made, (a, s) in enumerate(product(gamma, range(igraph.n))):
            _check_deadline(deadline, f"stage graph timed out after {made} extensions")
            keep("extension", small_coset_amalgam(ctx.skeleton(a, s), group).graph)
    return components, inventory


def _combined_group(group, components, cap, deadline):
    """sym of (Cayley graph of group) + the stage graph's components, with
    the regular part keyed by group elements rather than permutations, and
    the part orders the stage graph proved."""
    parts = [("tables", group.gen_action)] + [("perms", perms) for _, perms, _ in components]
    orders = [group.order] + [order for _, _, order in components]
    return sym_components(group.colors, parts, cap=cap, deadline=deadline, orders=orders)


def _conservation(prev, new, k, deadline):
    """Subgroup order tables for |alpha| <= k plus injectivity of the
    restriction of the canonical homomorphism, and that homomorphism
    new -> prev (or None).  The deadline is read before each subset."""
    hom = new.projection  # accepted once it fixes the identity and commutes with the generators
    if hom is not None and (hom[0] != 0 or any(
            gather(hom, row) != gather(before, hom)
            for row, before in zip(new.gen_action, prev.gen_action))):
        hom = None
    table = {}
    ok = hom is not None
    for a in all_subsets(len(prev.colors), max_size=k):
        _check_deadline(deadline, f"conservation timed out at subset {sorted(a)}")
        before = len(prev.subgroup_elements(a))
        after = len(new.subgroup_elements(a))
        iso = False
        if hom is not None:
            image = {hom[x] for x in new.subgroup_elements(a)}
            iso = len(image) == after == before
        key = ",".join(prev.colors[i] for i in sorted(a)) or "-"
        table[key] = (before, after, iso)
        ok = ok and iso
    return table, ok, hom


def _stage_verify(new, k, config, igraph, ctx, deadline):
    cyc = find_coset_cycle(new, config.n_acyclic, gamma=GammaFilter(k + 1),
                           budget=config.search_budget, deadline=deadline)
    acyclic_ok = cyc is None
    free_ok = None
    if igraph is not None:
        alphas = all_subsets(len(new.colors), max_size=k)
        free_ok = is_free_over(new, igraph, alphas=alphas, ctx=ctx, deadline=deadline)
    return acyclic_ok, free_ok


def _final_verify(group, k, config, igraph, ctx, stage, deadline):
    """Final checks of the stage-k group; stage is the (acyclic_ok, free_ok)
    of its stage check over the subsets of at most k colours.  Freeness is
    decided skeleton by skeleton, so only larger subsets are walked again.
    A coset cycle may mix subsets of every size, so the plain verdict is
    reused only at the last stage, where those subsets are all the proper
    ones."""
    limits = {"budget": config.search_budget, "deadline": deadline}
    n_acyclic, free_ok = stage
    if k < len(group.colors) - 1:
        n_acyclic = find_coset_cycle(group, config.n_acyclic, **limits) is None
    checks = {"n_acyclic": n_acyclic}
    if igraph is not None:
        larger = [a for a in all_subsets(len(group.colors)) if len(a) > k]
        checks["free_over"] = free_ok and is_free_over(group, igraph, larger, ctx, deadline)
        checks["n_acyclic_over"] = (
            find_i_coset_cycle(group, igraph, config.n_acyclic, ctx=ctx, **limits) is None
        )
    return checks


def _check_deadline(deadline, message):
    """ResourceCap(message) once the monotonic clock has passed deadline."""
    if deadline is not None and time.monotonic() > deadline:
        raise ResourceCap(message)


def construct_n_acyclic(group0, config=None, igraph=None):
    """Tower of stage groups ending in a verified N-acyclic extension,
    over the reachability template igraph unless it is None.

    Returns (group, stage reports), the last report carrying the final
    checks.  The result is never declared acyclic: it is re-verified by the
    exhaustive searcher and, over a template, re-verified to be free over
    it and without template coset cycles up to the target length.  Over a
    template the starting group must share its colour registry and be
    compatible with it; the :class:`IContext` built for it checks both.  A
    group without colours has no stage and comes back unchanged, with no
    reports.  A ResourceCap raised on the way carries the last finished
    group as ``partial`` and the reports of the finished stages.
    """
    config = config or SynthesisConfig()
    reports = []
    current = group0
    n_colors = len(group0.colors)
    deadline = None
    # one template context per group: built for each stage group, it serves
    # the next stage graph too
    ctx = IContext(current, igraph) if igraph is not None else None
    try:
        for k in range(n_colors):
            if config.stage_timeout is not None:
                deadline = time.monotonic() + config.stage_timeout
            components, inventory = stage_graph(
                current, k, igraph=igraph, config=config, ctx=ctx, deadline=deadline
            )
            _check_deadline(deadline, f"stage {k} timed out after the stage graph")
            new = _combined_group(current, components, config.element_cap, deadline)
            _check_deadline(deadline, f"stage {k} timed out after the closure")
            table, cons_ok, hom = _conservation(current, new, k, deadline)
            _check_deadline(deadline, f"stage {k} timed out after conservation")
            if hom is not None:
                inherit_compatibility(new, current)  # spares IContext its walk of new
            ctx = IContext(new, igraph) if igraph is not None else None
            acyclic_ok, free_ok = _stage_verify(new, k, config, igraph, ctx, deadline)
            report = StageReport(
                stage=k,
                inventory=inventory,
                order=new.order,
                conservation=table,
                conservation_ok=cons_ok,
                acyclic_checked_to=config.n_acyclic,
                acyclic_ok=acyclic_ok,
                free_ok=free_ok,
            )
            reports.append(report)
            current = new
            if config.early_exit or k == n_colors - 1:
                final = _final_verify(current, k, config, igraph, ctx, (acyclic_ok, free_ok),
                                      deadline)
                if config.early_exit and all(final.values()):
                    report.notes.append("early exit: final properties already verified")
                    break
    except ResourceCap as exc:
        exc.partial = current
        exc.stage_reports = reports
        raise
    if reports:
        reports[-1].final_checks = dict(final)
        if not all(final.values()):
            reports[-1].notes.append("final verification FAILED")
    return current, reports

