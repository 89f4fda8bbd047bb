"""Per-layer span tracer that wraps acygroups' entry points from outside.

Nothing in the program is edited.  ``Tracer.install`` replaces each traced
function by a wrapper in every ``acygroups.*`` module that holds it (the
modules import names directly, e.g. ``from .acyclicity import
find_coset_cycle``, so wrapping the defining module alone would miss those
calls) and on the class for methods; ``restore`` puts the originals back.

Each wrapped call is a span: name, start, end, parent span, pass and
instance.  Self time is the span's duration minus its children's.  Spans are
kept in memory and written as JSONL by ``write_spans``.  The hot
``amalgam_chain`` (~700k calls per pass) is not kept one span per call:
its calls and seconds are folded into one record per parent span, which
keeps the parent's self time exact.  Functions listed in ``COUNTED`` are
only counted.  Bookkeeping and hook time is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("groups", "amalgam", "synthesis", "canon", "acyclicity", "constraint",
           "groupoid", "covering", "serialize", "cli")

# (module, attribute) of every timed function; metric prefix "<module>.<attr>".
TIMED = (
    ("groups", "sym_components"),
    ("groups", "homomorphism"),
    ("groups", "is_compatible"),
    ("amalgam", "amalgam_chain"),
    ("amalgam", "amalgam_cluster"),
    ("synthesis", "stage_graph"),
    ("canon", "canonical_form"),
    ("acyclicity", "find_coset_cycle"),
    ("constraint", "is_free_over"),
    ("constraint", "find_i_coset_cycle"),
    ("constraint", "small_coset_amalgam"),
    ("constraint", "IContext.__init__"),
    ("groupoid", "groupoid_from_group"),
    ("groupoid", "verify_groupoid_axioms"),
    ("groupoid", "find_groupoid_coset_cycle"),
    ("groupoid", "is_compatible_groupoid"),
    ("covering", "hypergraph_cover"),
    ("covering", "verify_cover"),
    ("covering", "check_n_acyclic_hypergraph"),
    ("serialize", "canonical_bytes"),
    ("serialize", "load_document"),
    ("cli", "main"),
)
# (module, attribute, metric prefix) of functions that are only counted.
COUNTED = (
    ("groups", "EGroup.coset_table", "groups.coset_table"),
    ("acyclicity", "validate_coset_cycle", "acyclicity.validate_coset_cycle"),
    ("constraint", "IContext.comp_tables", "constraint.comp_tables"),
)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # open frames [span id, start, child seconds, folded hot calls]; the
        # bottom frame stands for the untraced caller
        self.root = [None, 0.0, 0.0, None]
        self.stack = [self.root]
        self.spans = []  # (id, name, start, end, parent id, pass, instance)
        self.folded = []  # (name, parent id, calls, seconds, pass, instance)
        self.next_id = 1
        self.pass_id = 0
        self.instance = None
        self.patches = []
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.closure_orders = []
        self.search_keys = set()
        self.tick_counters = {}  # counted-only functions: name -> itertools.count

    # -- aggregates of one pass

    def reset(self):
        """Clear the per-pass aggregates in place (wrappers hold references)."""
        for agg in (self.calls, self.total_s, self.self_s, self.counts):
            agg.clear()

    def begin_instance(self, index):
        self.instance = index
        self.closure_orders.clear()
        self.search_keys.clear()

    def metrics(self):
        """Per-pass metric values keyed by per-layer metric name."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
        for name in self.total_s:
            out[f"{name}.s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        for name, ticks in self.tick_counters.items():
            out[f"{name}.calls"] = next(ticks)
        for module in MODULES:
            out[f"layer.{module}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.split(".", 1)[0] == module)
        return out

    # -- wrappers

    def _timed(self, name, fn, before=None, after=None):
        tracer = self
        clock = self.clock
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = clock()
            if before is not None:
                before(args, kwargs)
            frame = [tracer.next_id, clock(), 0.0, None]
            tracer.next_id += 1
            stack.append(frame)
            label = name(args) if callable(name) else name
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(label, frame, t_enter, after, args, kwargs, None, exc)
                raise
            tracer._close(label, frame, t_enter, after, args, kwargs, result, None)
            return result

        return wrapper

    def _close(self, name, frame, t_enter, after, args, kwargs, result, exc):
        end = self.clock()
        self.stack.pop()
        span_id, start, child_s, folded = frame
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child_s
        parent = self.stack[-1]
        self.spans.append((span_id, name, start, end, parent[0], self.pass_id, self.instance))
        for hot_name, (n, s) in (folded or {}).items():
            self.folded.append((hot_name, span_id, n, s, self.pass_id, self.instance))
        if after is not None:
            after(args, kwargs, result, exc)
        # the parent's self time excludes this call and all tracing work
        parent[2] += self.clock() - t_enter

    def _hot_chain(self, name, fn):
        """Lean wrapper for amalgam_chain: no span of its own (it calls no
        timed function), calls and seconds folded into the parent's record,
        and a count of the calls that build a chain (a non-None result)."""
        calls, total, self_s, counts = self.calls, self.total_s, self.self_s, self.counts
        stack, clock = self.stack, self.clock
        built = f"{name}.built"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                calls[name] += 1
                total[name] += dur
                self_s[name] += dur
                if result is not None:
                    counts[built] += 1
                parent = stack[-1]
                if parent[3] is None:
                    parent[3] = {}
                agg = parent[3].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dur
                parent[2] += clock() - t0

        return wrapper

    def _counted(self, name, fn):
        # a fresh itertools.count per install: cheaper per call than a dict
        # update, and coset_table alone is called millions of times per pass
        ticks = self.tick_counters[name] = itertools.count()
        tick = ticks.__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that derive counts from arguments and results

    def _hooks(self, name, fn):
        sig = inspect.signature(fn)
        counts = self.counts
        if name == "groups.sym_components":
            from acygroups.errors import ResourceCap
            from acygroups.groups import DEFAULT_ELEMENT_CAP

            def after(args, kwargs, result, exc):
                if result is not None:
                    counts["groups.closure_elements"] += result.order
                    self.closure_orders.append(result.order)
                elif isinstance(exc, ResourceCap):
                    # a capped closure enumerated exactly `cap` elements
                    cap = sig.bind(*args, **kwargs).arguments.get("cap")
                    counts["groups.closure_elements"] += cap or DEFAULT_ELEMENT_CAP
            return None, after
        if name == "synthesis.stage_graph":
            def after(args, kwargs, result, exc):
                if result is not None:
                    components, inventory = result
                    counts["synthesis.components_seen"] += sum(inventory.values())
                    counts["synthesis.components_kept"] += len(components)
            return None, after
        if name == "acyclicity.find_coset_cycle":
            from acygroups.acyclicity import proper_subsets

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                group, n_colors = a["group"], len(a["group"].colors)
                family = (proper_subsets(n_colors) if a["gamma"] is None
                          else a["gamma"].subsets(n_colors, allow_full=a["allow_full"]))
                key = (group.colors, group.order, hash(tuple(map(tuple, group.gen_action))),
                       a["n_max"], tuple(tuple(sorted(x)) for x in family))
                if key in self.search_keys:
                    counts["acyclicity.find_coset_cycle.repeats"] += 1
                self.search_keys.add(key)
            return before, None
        if name == "covering.hypergraph_cover":
            def after(args, kwargs, result, exc):
                if result is not None:
                    counts["covering.cover_vertices"] += result.cover.n
            return None, after
        if name == "serialize.canonical_bytes":
            def after(args, kwargs, result, exc):
                if result is not None:
                    counts["serialize.out_bytes"] += len(result)
            return None, after
        return None, None

    # -- installation

    def install(self):
        """Wrap every traced function wherever an acygroups module holds it."""
        for module_name, attr in TIMED:
            name = f"{module_name}.{attr}"
            if name == "cli.main":
                label = lambda args: f"cli.{(args[0] or ['?'])[0]}"  # noqa: E731
            else:
                label = name
            if name == "amalgam.amalgam_chain":
                self._patch(module_name, attr, lambda fn, n=name: self._hot_chain(n, fn))
            else:
                self._patch(module_name, attr,
                            lambda fn, n=name, lab=label: self._timed(lab, fn, *self._hooks(n, fn)))
        for module_name, attr, name in COUNTED:
            self._patch(module_name, attr, lambda fn, n=name: self._counted(n, fn))

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(f"acygroups.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            self.patches.append((owner, meth, original))
            setattr(owner, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        holders = [m for n, m in list(sys.modules.items())
                   if (n == "acygroups" or n.startswith("acygroups.")) and m is not None
                   and getattr(m, attr, None) is original]
        if module not in holders:
            raise RuntimeError(f"acygroups.{module_name}.{attr} not found")
        for holder in holders:
            self.patches.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def restore(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- output

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, pass_id, inst in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id, "instance": inst}) + "\n")
            root = [(n, None, c, t, None, None) for n, (c, t) in (self.root[3] or {}).items()]
            for name, parent, calls, secs, pass_id, inst in self.folded + root:
                fh.write(json.dumps({"name": name, "parent": parent, "calls": calls,
                                     "s": secs, "pass": pass_id, "instance": inst}) + "\n")
