"""Span recording for traced benchmark passes.

A span has a name, a start, an end and a parent.  Spans around coarse calls
(phases, CLI trials, algorithm entry points, loaders, verifiers) are kept one
by one.  Hot leaf calls (objective evaluation, membership checks,
``ElementSet.with_element``) happen up to a million times per pass, so they
are folded into one aggregate node per (parent, name): a call count, the
summed duration, the summed duration of the node's own children and, for
membership checks, the number of rejections.

Self time is a span's duration minus the part of it that its children cover.
Explicit children are merged as intervals; folded children have no intervals,
so their summed duration is added on top.  That is exact for the
single-threaded program measured here, where a folded call never overlaps an
explicit sibling.

Tracing wraps public callables of the installed ``submax`` modules from the
benchmark's side (:func:`install`); nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns

# Names of the nodes the layer summary reads.
CHECK_NAMES = ("constraints.check", "hardness.check")
NESTED_CHECK = "constraints.component_check"
EVALUATE = "objectives.evaluate"
WITH_ELEMENT = "core.with_element"
ALGORITHM_PREFIX = "algorithms."
VERIFY_PREFIX = "constraints.verify_"


class Recorder:
    """In-memory span store.  ``spans[i]`` is ``[name, start_ns, end_ns,
    parent, attrs]``; ``parent`` is a span index, an aggregate key or None.
    ``aggs[(parent, name)]`` is ``[count, total_ns, child_ns, rejects]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.aggs: dict[tuple, list[int]] = {}
        self.stack: list = []
        self.enabled = True

    def open(self, name: str, start_ns: int | None = None) -> int:
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, perf_counter_ns() if start_ns is None else start_ns, None, parent, None])
        self.stack.append(idx)
        return idx

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a finished span under the currently open one."""
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, start_ns, end_ns, parent, None])

    def close(self, idx: int, attrs: dict | None = None) -> None:
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")
        self.spans[idx][2] = perf_counter_ns()
        if attrs:
            self.spans[idx][4] = attrs

    def explicit(self, name_of, fn, attrs_of=None):
        """Wrap ``fn`` so that each call is one recorded span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name_of(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, attrs_of(out) if attrs_of else None)
            return out

        return wrapper

    def folded(self, name_of, fn):
        """Wrap ``fn`` so that its calls are folded into aggregate nodes."""
        stack = self.stack
        aggs = self.aggs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            key = (parent, name_of(args, parent))
            stack.append(key)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                node = aggs.get(key)
                if node is None:
                    node = aggs[key] = [0, 0, 0, 0]
                node[0] += 1
                node[1] += dt
                if type(parent) is tuple:
                    aggs.setdefault(parent, [0, 0, 0, 0])[2] += dt
            if out is False:
                node[3] += 1
            return out

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span and aggregate node as JSON."""
        agg_ids = {key: i for i, key in enumerate(self.aggs)}

        def ref(parent):
            if parent is None:
                return None
            if type(parent) is tuple:
                return {"agg": agg_ids[parent]}
            return {"span": parent}

        doc = {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": ref(p), "attrs": a}
                for n, s, e, p, a in self.spans
            ],
            "aggregates": [
                {"id": agg_ids[key], "name": key[1], "parent": ref(key[0]), "count": c,
                 "total_ns": t, "child_ns": ch, "rejects": r}
                for key, (c, t, ch, r) in self.aggs.items()
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _union_length(intervals: list[tuple[int, int]]) -> int:
    total = 0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list], aggs: dict) -> tuple[list[int], dict]:
    """Self time of every explicit span (list, by index) and aggregate node
    (dict, by key): duration minus the time its children cover."""
    child_intervals: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _attrs in spans:
        if parent is not None and type(parent) is not tuple:
            child_intervals.setdefault(parent, []).append((start, end))
    folded_child_ns: dict[int, int] = {}
    for (parent, _name), node in aggs.items():
        if parent is not None and type(parent) is not tuple:
            folded_child_ns[parent] = folded_child_ns.get(parent, 0) + node[1]
    span_self = [
        (end - start)
        - _union_length(child_intervals.get(i, []))
        - folded_child_ns.get(i, 0)
        for i, (name, start, end, parent, _attrs) in enumerate(spans)
    ]
    agg_self = {key: node[1] - node[2] for key, node in aggs.items()}
    return span_self, agg_self


def _owner(spans: list[list], parent) -> int | None:
    """Nearest explicit span above a node."""
    while type(parent) is tuple:
        parent = parent[0]
    return parent


def _is_algorithm(spans: list[list], idx: int | None) -> bool:
    return idx is not None and spans[idx][0].startswith(ALGORITHM_PREFIX)


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer totals of one traced pass, in seconds, counts and ratios.

    Oracle calls (evaluate, check, with_element) count only when the nearest
    explicit span above them is an algorithm entry point, which is how
    ``SolveResult`` counts them; calls made by ``max_feasible_size`` or the
    verifiers are part of those spans' own totals.  Only the outermost check
    counts: checks of an ``IntersectionSystem``'s components are its children.
    """
    spans, aggs = rec.spans, rec.aggs
    span_self, _agg_self = self_times(spans, aggs)
    ns: dict[str, int] = {}
    calls: dict[str, int] = {}

    def add(key: str, value: int, n: int = 1) -> None:
        ns[key] = ns.get(key, 0) + value
        calls[key] = calls.get(key, 0) + n

    picks = {"algorithms.greedy": [0, 0], "algorithms.lazy_greedy": [0, 0]}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        if name in ("setup", "solve", "cli.import", "objectives.generate",
                    "objectives.load_similarity_csv", "constraints.max_feasible_size"):
            add(name, dur)
        elif name.startswith(VERIFY_PREFIX):
            add("constraints.verify", dur)
        elif name == "cli.run_one_trial":
            add("cli.self", span_self[i])
        elif name == "cli.cmd_bench":
            add("cli.report", span_self[i])
        elif name.startswith(ALGORITHM_PREFIX):
            add("algorithms.self", span_self[i])
            if not any(_is_algorithm(spans, p) for p in _ancestors(spans, parent)):
                add("algorithms.busy", dur)
            if name in picks and attrs:
                picks[name][0] += attrs["picks"]
                picks[name][1] += attrs["marginal_evals"]
    rejects = 0
    for (parent, name), (count, total, _child, rej) in aggs.items():
        if not _is_algorithm(spans, _owner(spans, parent)):
            continue
        if name in CHECK_NAMES:
            add(name, total, count)
            if name == "constraints.check":
                rejects += rej
        elif name in (EVALUATE, WITH_ELEMENT):
            add(name, total, count)

    def sec(key):
        return ns.get(key, 0) / 1e9

    def per_call_us(key):
        return ns[key] / calls[key] / 1e3 if calls.get(key) else 0.0

    def ratio(pair):
        return pair[0] / pair[1] if pair[1] else 0.0

    return {
        "setup_s": sec("setup"),
        "solve_s": sec("solve"),
        "cli.import_s": sec("cli.import"),
        "cli.self_s": sec("cli.self"),
        "cli.report_s": sec("cli.report"),
        "objectives.generate_s": sec("objectives.generate"),
        "objectives.load_s": sec("objectives.load_similarity_csv"),
        "objectives.load_calls": calls.get("objectives.load_similarity_csv", 0),
        "objectives.evaluate_s": sec(EVALUATE),
        "objectives.evaluate_calls": calls.get(EVALUATE, 0),
        "objectives.evaluate_us": per_call_us(EVALUATE),
        "constraints.check_s": sec("constraints.check"),
        "constraints.check_calls": calls.get("constraints.check", 0),
        "constraints.check_us": per_call_us("constraints.check"),
        "constraints.reject_ratio": rejects / calls["constraints.check"]
        if calls.get("constraints.check") else 0.0,
        "constraints.rank_s": sec("constraints.max_feasible_size"),
        "constraints.rank_calls": calls.get("constraints.max_feasible_size", 0),
        "constraints.verify_s": sec("constraints.verify"),
        "hardness.check_s": sec("hardness.check"),
        "hardness.check_calls": calls.get("hardness.check", 0),
        "hardness.check_us": per_call_us("hardness.check"),
        "core.with_element_s": sec(WITH_ELEMENT),
        "core.with_element_calls": calls.get(WITH_ELEMENT, 0),
        "algorithms.busy_s": sec("algorithms.busy"),
        "algorithms.self_s": sec("algorithms.self"),
        "algorithms.greedy_pick_ratio": ratio(picks["algorithms.greedy"]),
        "algorithms.lazy_pick_ratio": ratio(picks["algorithms.lazy_greedy"]),
    }


def _ancestors(spans: list[list], parent):
    parent = _owner(spans, parent)
    while parent is not None:
        yield parent
        parent = _owner(spans, spans[parent][3])


# ---------------------------------------------------------------------------
# Wiring into submax
# ---------------------------------------------------------------------------

_ALGORITHMS = {
    "greedy": None,  # named by its lazy flag
    "sample_greedy": "algorithms.sample_greedy",
    "sample_greedy_linear": "algorithms.sample_greedy_linear",
    "repeated_greedy": "algorithms.repeated_greedy",
    "unconstrained_max_det": "algorithms.double_greedy",
    "unconstrained_max_rand": "algorithms.double_greedy",
    "brute_force_opt": "algorithms.brute_force_opt",
    "instrumented_sample_greedy": "algorithms.instrumented_sample_greedy",
}
_VERIFIERS = ("verify_downward_closed", "verify_k_system", "verify_k_extendible")


def _replace(modules, name: str, make) -> None:
    """Replace function ``name`` with ``make(original)`` in every module that
    binds the original (the defining module, ``submax`` and ``submax.cli``)."""
    original = getattr(modules[0], name)
    wrapped = make(original)
    for mod in modules:
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapped)


def install(rec: Recorder) -> None:
    """Wrap the public callables of an imported ``submax`` with span recorders."""
    import submax
    from submax import algorithms, cli, constraints, core, hardness, objectives

    def const(label):
        return lambda args, extra: label

    for cls in (objectives.ModularObjective, objectives.CutObjective,
                objectives.CoverageDispersionObjective, objectives.WeightedCoverageObjective):
        cls.evaluate = rec.folded(const(EVALUATE), cls.evaluate)

    def check_name(args, parent):
        if type(parent) is tuple and parent[1] in CHECK_NAMES + (NESTED_CHECK,):
            return NESTED_CHECK
        return "hardness.check" if isinstance(args[0], hardness.HardInstance) else "constraints.check"

    core.IndependenceOracle.is_independent = rec.folded(check_name, core.IndependenceOracle.is_independent)
    core.ElementSet.with_element = rec.folded(const(WITH_ELEMENT), core.ElementSet.with_element)

    _replace([objectives, submax, cli], "generate",
             lambda fn: rec.explicit(const("objectives.generate"), fn))
    _replace([objectives, submax, cli], "load_similarity_csv",
             lambda fn: rec.explicit(const("objectives.load_similarity_csv"), fn))
    _replace([constraints, submax, cli], "max_feasible_size",
             lambda fn: rec.explicit(const("constraints.max_feasible_size"), fn))
    for name in _VERIFIERS:
        _replace([constraints, submax, cli], name,
                 lambda fn, name=name: rec.explicit(const(f"constraints.{name}"), fn))
    _replace([cli], "run_one_trial", lambda fn: rec.explicit(const("cli.run_one_trial"), fn))
    _replace([cli], "cmd_bench", lambda fn: rec.explicit(const("cli.cmd_bench"), fn))

    def greedy_name(args, kwargs):
        return "algorithms.lazy_greedy" if kwargs.get("lazy") else "algorithms.greedy"

    def greedy_attrs(out):
        res, trace = out
        return {"picks": len(trace), "marginal_evals": res.marginal_evals}

    for name, label in _ALGORITHMS.items():
        if label is None:
            make = lambda fn: rec.explicit(greedy_name, fn, greedy_attrs)  # noqa: E731
        else:
            make = lambda fn, label=label: rec.explicit(const(label), fn)  # noqa: E731
        _replace([algorithms, submax, cli], name, make)
