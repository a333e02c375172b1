"""Span tracing of `perepair`'s public functions, installed from outside.

`Tracer.install` replaces every module binding of the functions in TRACED
(``perepair.field_tower.trace_to``, ``perepair.repair_engine.trace_to``,
``perepair.trace_to`` ...) by a wrapper that records one span per call:
(id, parent id, name, start, end).  Spans stay in memory until `dump`.
The arithmetic kernels in COUNTED run hundreds of thousands of times per
cold repair, so they are only counted, never spanned.  Nothing in the
package is edited.
"""

import functools
import sys
import time

# module -> public functions (or classes, whose __init__ is spanned)
TRACED = {
    "field_tower": ("make_field", "is_irreducible", "factor_integer",
                    "trace_to", "dual_basis", "gf2_rank", "BasisOverSubfield"),
    "rs_codes": ("encode", "naive_decode", "dual_multipliers", "annihilator"),
    "constructions": ("build_plan_c1", "build_plan_c2", "save_plan",
                      "load_plan"),
    "repair_engine": ("lemma1_subspace", "verify_span", "repair_c1",
                      "repair_c2"),
    "storage_sim": ("init_cluster", "save_cluster", "load_cluster",
                    "run_repair"),
    "fixtures": ("example1", "example2"),
    "cli": ("main",),
}
COUNTED = {"field_tower": ("clmul", "clsq", "poly_mod")}

REPAIRS = ("repair_engine.repair_c1", "repair_engine.repair_c2")


class Tracer:
    def __init__(self):
        self.spans = []       # [id, parent, name, start, end]
        self.counts = {}      # name -> one-element list, bumped per call
        self._stack = []
        self._undo = []

    def _span_wrapper(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, name,
                    clock(), None]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def install(self):
        """Wrap every binding, in every loaded perepair module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "perepair"
                                         or key.startswith("perepair."))]
        for kind, table in (("span", TRACED), ("count", COUNTED)):
            for short, names in table.items():
                home = sys.modules["perepair." + short]
                for fn_name in names:
                    name = f"{short}.{fn_name}"
                    orig = getattr(home, fn_name)
                    if isinstance(orig, type):
                        init = orig.__init__
                        orig.__init__ = self._span_wrapper(name, init)
                        self._undo.append((orig, "__init__", init))
                        continue
                    wrapper = (self._span_wrapper(name, orig) if kind == "span"
                               else self._count_wrapper(name, orig))
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapper)
                                self._undo.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def dump(self, tag):
        """Spans and counts as JSON-ready data; tag names the process."""
        return {
            "process": tag,
            "spans": [list(s) for s in self.spans],
            "counts": {k: v[0] for k, v in self.counts.items()},
        }


def layer_metrics(dumps, cli_wall_s):
    """Per-layer metrics from the dumps of every traced process of a run.

    self_s is a span's duration minus its direct children's; counts are
    exact.  cli_wall_s lists the wall times of the traced CLI children.
    """
    calls = {}
    self_s = {}
    counts = {}
    prep_hits = prep_misses = beta_tries = 0
    cli_main_total = 0.0
    for dump in dumps:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        children = [[] for _ in spans]
        for sid, parent, name, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
                children[parent].append(name)
        for sid, parent, name, start, end in spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[sid]
            if name in REPAIRS:
                if "field_tower.dual_basis" in children[sid]:
                    prep_misses += 1
                else:
                    prep_hits += 1
            elif (name == "field_tower.BasisOverSubfield" and parent is not None
                  and spans[parent][2] == "repair_engine.lemma1_subspace"):
                beta_tries += 1
            if name == "cli.main":
                cli_main_total += end - start
        for name, n in dump["counts"].items():
            counts[name] = counts.get(name, 0) + n

    out = {}
    for short, names in COUNTED.items():
        for fn_name in names:
            name = f"{short}.{fn_name}"
            out[name + ".calls"] = (counts.get(name, 0), "count")
    for short, names in TRACED.items():
        for fn_name in names:
            name = f"{short}.{fn_name}"
            out[name + ".calls"] = (calls.get(name, 0), "count")
            out[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    out["repair_engine.prep_misses"] = (prep_misses, "count")
    out["repair_engine.prep_hits"] = (prep_hits, "count")
    out["repair_engine.lemma1_subspace.beta_tries"] = (beta_tries, "count")
    out["cli.startup_s"] = (sum(cli_wall_s) - cli_main_total, "s")
    return out
