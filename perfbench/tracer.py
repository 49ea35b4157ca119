"""Span tracing of hecke_atlas layers from outside the package.

The tracer wraps each layer's public functions in every ``hecke_atlas``
module namespace that binds them (and methods on their classes), so calls
between modules go through the wrapper.  Spans stay in memory as
``(span_id, name, start_ns, end_ns, parent_id, item)`` and are written out
once, after the pass.  Self time is a span's duration minus the part of it
covered by the union of its child spans; spans opened on a pool thread
take the span that is open on the main thread as their parent.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import sys
import threading
import time
from typing import Callable, Iterable

# (module, attribute) pairs traced as spans, by layer
SPAN_TARGETS = (
    ("weil", "is_of_type"),
    ("weil", "Inventory.from_json_list"),
    ("weil", "UnitMonomial.__init__"),
    ("params", "build_ld_parameter"),
    ("params", "det_discrepancy"),
    ("params", "alternating_characters"),
    ("params", "discrete_parameters"),
    ("params", "supercuspidal_corpus"),
    ("params", "normed_parameter"),
    ("params", "parameter_from_json_dict"),
    ("params", "count_supercuspidals"),
    ("params", "brute_force_supercuspidals"),
    ("support", "supports"),
    ("support", "cuspidal_pairs"),
    ("support", "build_phi_S"),
    ("support", "build_levi"),
    ("hecke", "derived_rows"),
    ("hecke", "hecke_descriptor"),
    ("hecke", "hecke_factor"),
    ("hecke", "specialize"),
    ("centralizer", "realize_matrices"),
    ("centralizer", "parameter_to_triple"),
    ("centralizer", "triple_to_parameter"),
    ("weyl", "relative_weyl"),
    ("weyl", "orbit_stabilizers"),
    ("weyl", "weyl_group"),
)


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a target: constructors are named after their class."""
    return f"{module}.{attr.removesuffix('.__init__')}"


SPAN_NAMES = tuple(span_name(m, a) for m, a in SPAN_TARGETS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.item = -1
        self._supports_in_pairs: list[int] = []  # list.append is thread-safe
        self.distinct: dict[str, set] = {}  # filled in by install()
        self.missing: list[str] = []  # targets the program no longer has
        self._ids = itertools.count()
        self._mul_calls = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_open = -1
        self._undo: list[Callable[[], None]] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, *, key=None, on_result=None):
        """Wrap ``fn`` in a span.

        ``name`` is a string or a function of the bound arguments (a dict);
        ``key`` maps the bound arguments to a value whose distinct count is
        kept; ``on_result`` sees each return value and the name of the
        enclosing span on the same thread (None at the top).
        """
        tracer = self
        signature = inspect.signature(fn)

        def bound(args, kwargs) -> dict:
            ba = signature.bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(bound(args, kwargs)) if callable(name) else name
            if key is not None:
                tracer.distinct[label].add(key(bound(args, kwargs)))
            stack = tracer._stack()
            on_main = threading.current_thread() is tracer._main
            caller = stack[-1] if stack else None
            parent = caller[0] if caller else (-1 if on_main else tracer._main_open)
            sid = next(tracer._ids)
            stack.append((sid, label))
            if on_main:
                saved, tracer._main_open = tracer._main_open, sid
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if on_main:
                    tracer._main_open = saved
                tracer.spans.append((sid, label, start, end, parent, tracer.item))
            if on_result is not None:
                on_result(result, caller[1] if caller else None)
            return result

        return traced

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _rebind(self, original, replacement) -> None:
        """Replace ``original`` in every hecke_atlas module that binds it."""
        for modname, module in list(sys.modules.items()):
            if modname == "hecke_atlas" or modname.startswith("hecke_atlas."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, replacement)

    def install(self, modules: dict) -> None:
        """``modules`` maps short names (``weil``, ``cli`` ...) to modules."""
        hooks = {
            "support.supports": dict(on_result=self._count_supports),
            "hecke.derived_rows": dict(key=lambda a: (a["kind"], a["rank"])),
            "weyl.relative_weyl": dict(key=lambda a: (a["levi"].composition, a["levi"].tail_rank, a["n"])),
        }
        for module, attr in SPAN_TARGETS:
            name = span_name(module, attr)
            cls_name, _, member = attr.rpartition(".")
            owner = getattr(modules[module], cls_name, None) if cls_name else modules[module]
            raw = vars(owner).get(member) if owner is not None else None
            if raw is None:  # renamed or removed: reported, not traced
                self.missing.append(name)
                continue
            hook = hooks.get(name, {})
            if "key" in hook:
                self.distinct[name] = set()  # created up front: set.add is thread-safe
            if cls_name:
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self.wrap(name, fn, **hook)
                self._patch(owner, member, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            else:
                self._rebind(raw, self.wrap(name, raw, **hook))

        cli = modules["cli"]
        suite_name = lambda a: f"cli.run_suite.{a['suite']}_r{a['max_rank']}"
        self._rebind(cli.run_suite, self.wrap(suite_name, cli.run_suite))
        self._rebind(cli.run, self.wrap(lambda a: f"cli.run.{a['argv'][0]}", cli.run))

        signed = getattr(modules["weyl"], "SignedPermutation", None)
        mul = vars(signed).get("__mul__") if signed is not None else None
        if mul is None:
            self.missing.append("weyl.SignedPermutation.mul")
            return
        calls = self._mul_calls

        @functools.wraps(mul)
        def counted_mul(a, b):
            next(calls)
            return mul(a, b)

        self._patch(signed, "__mul__", counted_mul)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _count_supports(self, result, caller) -> None:
        if caller == "support.cuspidal_pairs":
            self._supports_in_pairs.append(len(result))

    @property
    def supports_in_pairs(self) -> int:
        """Supports that cuspidal_pairs turned into (phi_S, Levi) pairs."""
        return sum(self._supports_in_pairs)

    # -- results ---------------------------------------------------------
    def mul_calls(self) -> int:
        """SignedPermutation products so far; call once, after the pass."""
        # itertools.count has no read; the next value is the number of calls
        return next(self._mul_calls)

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s and the longest span."""
        children: dict[int, list[tuple[int, int]]] = collections.defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, dict] = {}
        for sid, name, start, end, _, _ in self.spans:
            covered = _covered(children.get(sid, ()), start, end)
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            dur = (end - start) / 1e9
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - covered / 1e9
            row["max_s"] = max(row["max_s"], dur)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id\tname\tstart_ns\tend_ns\tparent_id\titem\n")
            for span in sorted(self.spans):
                fh.write("\t".join(map(str, span)) + "\n")


def _covered(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
