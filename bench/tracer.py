"""Spans around the calls into credal's public functions, recorded from outside.

`Tracer.install()` replaces every module-level binding of each wrapped
function in every loaded ``credal.*`` module (credal imports with
``from .x import f``, so one function has several bindings).  Each call
then records a span (name, start, end, parent span, item id) in memory;
`write()` saves them when the run ends and `layer_metrics()` turns them
into per-layer counts and self times.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function) pairs whose calls are spans, grouped by layer.
WRAPPED = (
    ("spaces", "component_map"),
    ("spaces", "cylinder"),
    ("constraints", "parse_constraint"),
    ("constraints", "to_dnf"),
    ("constraints", "satisfies"),
    ("constraints", "translate"),
    ("simplex", "solve_lp"),
    ("entail", "satisfiable"),
    ("entail", "entails"),
    ("entail", "linear_range"),
    ("entail", "sample_measures"),
    ("entail", "is_interesting"),
    ("entail", "objective_normal_form"),
    ("entail", "conservative_check"),
    ("optimize", "kl_project"),
    ("optimize", "update_set"),
    ("measures", "product_measure"),
    ("measures", "pushforward"),
    ("embeddings", "random_faithful_embedding"),
    ("embeddings", "is_faithful"),
    ("procedures", "infers"),
    ("procedures", "product_prior_infer"),
    ("harness", "replay_trial"),
    ("harness", "invariance_check"),
    ("harness", "gadget_feasible"),
)

# Metrics computed from return values or caches rather than from spans.
EXTRA_METRICS = (
    "constraints.to_dnf.hit_ratio",
    "simplex.solve_lp.infeasible_ratio",
    "simplex.solve_lp.mean_vars",
    "optimize.kl_project.cycles",
    "trace.overhead_ratio",
)

SETUP_ITEM = -1


def per_layer_names() -> list[str]:
    names = []
    for mod, fn in WRAPPED:
        names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
    return names + list(EXTRA_METRICS)


def credal_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "credal" or name.startswith("credal."))]


class Tracer:
    def __init__(self):
        self.item = SETUP_ITEM
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.items = array("i")
        self.lp_calls = 0
        self.lp_infeasible = 0
        self.lp_vars = 0
        self.kl_cycles = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import credal.simplex

        self._lp_infeasible_status = credal.simplex.INFEASIBLE
        modules = credal_modules()
        for label_id, (mod, fn) in enumerate(WRAPPED):
            original = getattr(sys.modules[f"credal.{mod}"], fn)
            label = f"{mod}.{fn}"
            self.originals[label] = original
            wrapper = self._wrap(label_id, original, self._observer(label))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes that still hold an unwrapped function."""
        originals = {id(f): label for label, f in self.originals.items()}
        return [f"{m.__name__}.{attr} ({originals[id(v)]})"
                for m in credal_modules() for attr, v in vars(m).items()
                if id(v) in originals]

    def _observer(self, label: str):
        if label == "simplex.solve_lp":
            return self._observe_lp
        if label == "optimize.kl_project":
            return self._observe_projection
        return None

    def _observe_lp(self, args, kwargs, result) -> None:
        self.lp_calls += 1
        self.lp_vars += args[0] if args else kwargs["num_vars"]
        if result[0] == self._lp_infeasible_status:
            self.lp_infeasible += 1

    def _observe_projection(self, args, kwargs, result) -> None:
        self.kl_cycles += sum(d.cycles for d in result.diagnostics)

    def _wrap(self, label_id: int, fn, observe):
        stack = self._stack
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, items = self.parents, self.items

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(label_id)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self seconds per wrapped function, over all spans."""
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        child = np.zeros(len(dur) + 1)
        np.add.at(child, parents, dur)  # parent -1 lands in the last slot
        self_time = dur - child[:-1]
        k = len(WRAPPED)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        out = {}
        for i, (mod, fn) in enumerate(WRAPPED):
            out[f"{mod}.{fn}.calls"] = int(calls[i])
            out[f"{mod}.{fn}.self_s"] = float(self_s[i])
        out["simplex.solve_lp.infeasible_ratio"] = (
            self.lp_infeasible / self.lp_calls if self.lp_calls else 0.0)
        out["simplex.solve_lp.mean_vars"] = (
            self.lp_vars / self.lp_calls if self.lp_calls else 0.0)
        out["optimize.kl_project.cycles"] = self.kl_cycles
        return out

    def write(self, path) -> None:
        np.savez(path,
                 names=np.array([f"{m}.{f}" for m, f in WRAPPED]),
                 name_id=np.frombuffer(self.name_ids, dtype=np.int32),
                 start=np.frombuffer(self.starts),
                 end=np.frombuffer(self.ends),
                 parent=np.frombuffer(self.parents, dtype=np.int32),
                 item=np.frombuffer(self.items, dtype=np.int32))
