"""Spans around calls into the library's public functions.

The tracer wraps a function and rebinds every ``omegadp`` module attribute
that refers to it, so calls made by the benchmark and calls made between
library modules (``odp`` calls ``complement_uca`` by the name it imported)
both pass through the wrapper.  Each call becomes a span: layer name, start,
end, parent span and run id.  Sizes are read from the call's arguments and
returned objects after the call; the time spent counting is stored on the
span and excluded from every span's self time.

Spans stay in memory; ``layer_metrics`` folds them into the per-layer
metrics and ``write_jsonl`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _transitions(A):
    return sum(len(targets) for targets in A.delta.values())


def _rows(M):
    return sum(len(acts) for acts in M.actions.values())


def _dead_ends(M):
    return sum(1 for s in range(M.n_states) if not M.actions.get(s))


# (module, function) -> counter(args, result) -> {count: value}
LAYERS = {
    ("biolab", "build_biolab"): None,
    ("odp", "remove_lookback"):
        lambda a, r: {"states_out": r.n_states},
    ("odp", "remove_lookahead"):
        lambda a, r: {"states_out": r[1].n_states},
    ("collect", "build_collection"):
        lambda a, r: {"states_out": r.n_states,
                         "letters": len(r.alphabet.letters())},
    ("complement", "complement_uca"):
        lambda a, r: {"states_out": r.n_states,
                         "transitions_out": _transitions(r)},
    ("reduction", "prune_empty"):
        lambda a, r: {"states_in": a[0].n_states,
                         "states_out": r.n_states},
    ("reduction", "lump_final"): lambda a, r: {"states_out": r.n_states},
    ("reduction", "merge_lang_final"):
        lambda a, r: {"states_out": r.n_states},
    ("reduction", "lump_all"): lambda a, r: {"states_out": r.n_states},
    ("mdp", "product_with_nba"):
        lambda a, r: {"states_out": r.n_states, "rows_out": _rows(r),
                         "dead_ends": _dead_ends(r)},
    ("mdp", "almost_sure_buchi_region"):
        lambda a, r: {"region_states": len(r[0])},
    ("mdp", "mec_decomposition"): lambda a, r: {"mecs": len(r)},
    ("mdp", "max_reach_prob"): None,
    ("mdp", "discounted_vi"): lambda a, r: {"rows_in": _rows(a[0])},
    ("mdp", "lexicographic_solve"): None,
    ("mdp", "strategy_value_check"): None,
    ("qlearn", "lex_q_learn"):
        lambda a, r: {"steps": sum(r[0].visits.values())},
    ("hoa", "parse_hoa"): None,
    ("hoa", "emit_hoa"): lambda a, r: {"bytes": len(r.encode())},
    ("lasso_bulk", "nba_signature"): lambda a, r: {"words": len(r)},
    ("lasso_bulk", "uca_signature"): lambda a, r: {"words": len(r)},
    ("lasso_bulk", "dsa_signature"): lambda a, r: {"words": len(r)},
    ("streett", "determinize_uca"):
        lambda a, r: {"states_out": r.n_states},
    ("automata", "intersect_nba"): None,
    ("automata", "is_empty"): None,
}

class Tracer:
    """Records a span per wrapped call; ``run_id`` tags the run's phase."""

    def __init__(self, layers=None):
        self.layers = LAYERS if layers is None else layers
        self.spans = []
        self.run_id = "setup"
        self._stack = []
        self._rebound = []

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "count_s": 0.0}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    t = time.perf_counter()
                    span["counts"] = counter(args, result)
                    span["count_s"] = time.perf_counter() - t
                return result
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self):
        """Rebind every library reference to a traced function."""
        for mod_name, _ in self.layers:
            importlib.import_module(f"omegadp.{mod_name}")
        modules = [m for k, m in sys.modules.items()
                   if k == "omegadp" or k.startswith("omegadp.")]
        for (mod_name, fn_name), counter in self.layers.items():
            original = getattr(sys.modules[f"omegadp.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, counter)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    self._rebound.append((module, fn_name, original))

    def uninstall(self):
        for module, fn_name, original in reversed(self._rebound):
            setattr(module, fn_name, original)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(dict(span, id=i)) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus its own counting time
    minus the part of its interval that its child spans cover."""
    children = {}
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for j in sorted(children.get(i, ()), key=lambda j: spans[j]["start"]):
            lo = max(spans[j]["start"], reach)
            hi = min(spans[j]["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span["end"] - span["start"] - span["count_s"] - covered)
    return out


def layer_metrics(spans, names):
    """Fold spans into the per-layer metrics ``names``.

    A name is ``<layer>.<field>``: field ``s`` is the summed self time,
    ``calls`` the number of calls, any other field a summed count; three
    ratios are derived.  Times, calls and counts are summed over the run,
    set-up included; a metric the spans do not give (a layer the workload
    never calls, or ``traced.wall_s``) reports 0.
    """
    own = self_times(spans)
    total, busy, calls, counts = {}, {}, {}, {}
    for span, s in zip(spans, own):
        name = span["name"]
        total[name] = total.get(name, 0.0) + s
        busy[name] = busy.get(name, 0.0) + (
            span["end"] - span["start"] - span["count_s"])
        calls[name] = calls.get(name, 0) + 1
        for key, v in span.get("counts", {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + v
        # words checked by outermost signature calls: uca_signature calls
        # nba_signature on the same words
        parent = span["parent"]
        if "words" in span.get("counts", {}) and (parent is None or not
                spans[parent]["name"].startswith("lasso_bulk.")):
            key = ("lasso_bulk", "words")
            counts[key] = counts.get(key, 0) + span["counts"]["words"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric in names:
        layer, _, field = metric.rpartition(".")
        if field == "s":
            out[metric] = total.get(layer, 0.0)
        elif field == "calls":
            out[metric] = calls.get(layer, 0)
        elif (layer, field) in counts:
            out[metric] = counts[(layer, field)]
    out["complement.complement_uca.states_per_s"] = ratio(
        counts.get(("complement.complement_uca", "states_out"), 0.0),
        busy.get("complement.complement_uca", 0.0))
    out["complement.live_ratio"] = ratio(
        counts.get(("reduction.prune_empty", "states_out"), 0.0),
        counts.get(("reduction.prune_empty", "states_in"), 0.0))
    out["qlearn.lex_q_learn.steps_per_s"] = ratio(
        counts.get(("qlearn.lex_q_learn", "steps"), 0.0),
        busy.get("qlearn.lex_q_learn", 0.0))
    return {metric: out.get(metric, 0) for metric in names}
