"""Spans and counts at the module boundaries of tward, installed from outside.

``Tracer.install`` replaces the public functions the workloads call, and the
same functions wherever another tward module imported them by name (for
example ``tward.search.is_self_canonical`` or ``tward.groups.canonical_form``),
with wrappers that record one span per call: name, start, end, parent span
and, for the canonical-form engine, the order of the table.  Very hot calls
(``compose`` and ``cycle_type`` from the search layer) are counted, not
spanned.  Spans stay in memory in flat arrays and are written out once, by
``dump``, after the timed region.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

OUTER = 1  # no enclosing span has the same name
FIRST = 2  # the segment that starts a call (a generator resumes in several)

# span name -> dotted path of each function it covers
SPANNED = {
    "search.enumerate": ("search.enumerate_tw_left_quasigroups",),
    "search.enumerate_tw_quasigroups": ("search.enumerate_tw_quasigroups",),
    "search.twq_catalog_specs": ("search.twq_catalog_specs",),
    "tables.is_self_canonical": ("tables.is_self_canonical",),
    "tables.canonical_form": ("tables.canonical_form",),
    "tables.find_isomorphism": (
        "tables.table_isomorphic",
        "tables.find_isomorphism",
        "tables.find_all_isomorphisms",
    ),
    "tables.check_identity": ("tables.check_identity",),
    "tables.kernels": (
        "tables.cayley_kernel",
        "tables.squaring_kernel",
        "tables.is_congruence",
        "tables.kernel_size_report",
    ),
    "braidings.to_braiding": ("braidings.to_braiding",),
    "braidings.induced_bullet": ("braidings.induced_bullet",),
    "braidings.is_braiding": ("braidings.is_braiding",),
    "perms.automorphism_group": ("perms.automorphism_group",),
    "perms.conjugacy_classes": ("perms.conjugacy_classes",),
    "groups.enumerate_groups": ("groups.enumerate_groups",),
    "groups.q_count": ("groups.q_count",),
    "groups.as_group": ("groups.as_group",),
    "construct.build_twq": ("construct.build_twq",),
    "construct.recover_structure": ("construct.recover_structure",),
    "construct.twq_spec_isomorphic": ("construct.twq_spec_isomorphic",),
}

# per-layer metrics that are the call count and total time of one span name
CALLS_AND_SECONDS = (
    "tables.is_self_canonical",
    "tables.canonical_form",
    "tables.find_isomorphism",
    "tables.check_identity",
    "tables.table_build",
    "braidings.is_braiding",
    "perms.automorphism_group",
    "groups.as_group",
    "construct.recover_structure",
)
SECONDS_ONLY = (
    "tables.kernels",
    "braidings.to_braiding",
    "braidings.induced_bullet",
    "perms.conjugacy_classes",
    "groups.enumerate_groups",
    "groups.q_count",
    "construct.build_twq",
    "construct.twq_spec_isomorphic",
)
COUNTERS = (
    "search.compose_calls",
    "search.cycle_type_calls",
    "search.leaves",
    "tables.check_identity.triples_to_verdict",
    "perms.automorphism_group.elements",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.flags = array("b")
        self.size = array("h")
        self.counts: Counter = Counter()
        self._depth: list[int] = []
        self._stack: list[int] = []

    def _nid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self._depth.append(0)
        return self.names.index(name)

    def span(self, fn, name: str, sizer=None, on_result=None):
        """Wrap fn so that every call records a span called ``name``."""
        nid = self._nid(name)
        depth, stack = self._depth, self._stack
        ids, starts, ends = self.name_id, self.start, self.end
        parents, flags, sizes = self.parent, self.flags, self.size
        clock = time.perf_counter

        def enter(args, first: bool) -> int:
            idx = len(starts)
            d = depth[nid]
            depth[nid] = d + 1
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            flags.append((FIRST if first else 0) | (OUTER if d == 0 else 0))
            sizes.append(sizer(args) if sizer else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def leave(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()
            depth[nid] -= 1

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    idx = enter(args, first)
                    first = False
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(idx)
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter(args, True)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every loaded tward module; nothing under src/ changes."""
        import tward
        from tward import search, tables

        modules = [m for name, m in sys.modules.items() if name == "tward" or name.startswith("tward.")]
        counts = self.counts
        check_identity = tables.check_identity

        def check_identity_counted(t, kind, witness=False):
            # always ask for the witness (same scan) to learn where it stopped
            holds, wit = check_identity(t, kind, witness=True)
            n = t.n
            counts["tables.check_identity.triples_to_verdict"] += (
                n**3 if holds else (wit[0] * n + wit[1]) * n + wit[2] + 1
            )
            return (holds, wit) if witness else holds

        def order_of_table(args):
            return args[0].n

        def add_representatives(report):
            counts["search.representatives"] += report.total

        def add_aut_elements(group):
            counts["perms.automorphism_group.elements"] += group.order

        special = {
            "tables.check_identity": dict(body=check_identity_counted),
            "tables.canonical_form": dict(sizer=order_of_table),
            "tables.is_self_canonical": dict(sizer=order_of_table),
            "search.enumerate_tw_left_quasigroups": dict(on_result=add_representatives),
            "perms.automorphism_group": dict(on_result=add_aut_elements),
        }
        replace: dict[int, object] = {}
        for name, paths in SPANNED.items():
            for path in paths:
                mod_name, attr = path.split(".")
                original = getattr(getattr(tward, mod_name), attr)
                opts = dict(special.get(path, {}))
                body = opts.pop("body", original)
                replace[id(original)] = self.span(body, name, **opts)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])

        # calls made from the search layer
        search.compose = self.counted(search.compose, "search.compose_calls")
        search.cycle_type = self.counted(search.cycle_type, "search.cycle_type_calls")
        search.is_self_canonical = self.counted(search.is_self_canonical, "search.leaves")

        tables.CayleyTable.__init__ = self.span(tables.CayleyTable.__init__, "tables.table_build")

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "flags": np.frombuffer(self.flags, dtype=np.int8),
            "size": np.frombuffer(self.size, dtype=np.int16),
        }

    def dump(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counts recorded so far."""
        a = self.arrays()
        ids, flags, size = a["name_id"], a["flags"], a["size"]
        dur = a["end"] - a["start"]
        outer = (flags & OUTER) != 0
        calls = outer & ((flags & FIRST) != 0)

        def sel(name):
            return ids == (self.names.index(name) if name in self.names else -1)

        out: dict[str, float] = {}
        for name in CALLS_AND_SECONDS:
            out[f"{name}.calls"] = int((calls & sel(name)).sum())
            out[f"{name}.s"] = float(dur[outer & sel(name)].sum())
        for name in SECONDS_ONLY:
            out[f"{name}.s"] = float(dur[outer & sel(name)].sum())
        for n in (8, 9):
            out[f"tables.canonical_form.s.n{n}"] = float(
                dur[outer & sel("tables.canonical_form") & (size == n)].sum()
            )
        canon = calls & (sel("tables.canonical_form") | sel("tables.is_self_canonical")) & (size > 1)
        out["tables.relabelings"] = sum(math.factorial(int(n)) for n in size[canon])

        enum = outer & sel("search.enumerate")
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        out["search.enumerate_s"] = float(dur[enum].sum())
        out["search.self_s"] = float((dur - child)[enum].sum())
        for key in COUNTERS:
            out[key] = int(self.counts[key])
        leaves = self.counts["search.leaves"]
        out["search.accept_ratio"] = self.counts["search.representatives"] / leaves if leaves else 0.0
        return out
