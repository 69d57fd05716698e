"""Span tracing at the package's module boundaries, installed from outside.

``install`` wraps each layer's public entry points and rebinds the wrapper in
every ``occupancy_games`` module that imported the original object (for
example ``verify.step`` and ``solve.linprog``), so calls between modules are
traced as well as calls from the benchmark.  Spans are kept in memory as
``[name, start, end, parent, item]``, written out by ``dump`` and reduced to
per-layer self times and counts by ``layer_metrics``.  Nothing under ``src/``
is modified on disk.
"""

from __future__ import annotations

import contextlib
import functools
import json
import pathlib
import statistics
import sys
import time
from collections import Counter

NAME, START, END, PARENT, ITEM = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.enabled = False
        self.item: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, name, fn, count=None):
        """``name`` is a span name or a function of the call's kwargs;
        ``count(tracer, args, kwargs, result, error)`` updates counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(kwargs) if callable(name) else name
            parent = tracer._open[-1] if tracer._open else None
            span = [label, time.perf_counter(), None, parent, tracer.item]
            tracer.spans.append(span)
            tracer._open.append(len(tracer.spans) - 1)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._open.pop()
                if count is not None:
                    count(tracer, args, kwargs, result, error)

        return traced

    def peak(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)


# ---------------------------------------------------------------------------
# counters at the boundaries
# ---------------------------------------------------------------------------


def _count_enumerate(tr, args, kwargs, result, error):
    tr.counts["policies.enumerated"] += len(result) if result is not None else 0


def _count_step(tr, args, kwargs, result, error):
    s = args[1] if len(args) > 1 else kwargs["s"]
    tr.counts["occupancy.step_calls"] += 1
    tr.counts["occupancy.step_entries_in"] += len(s.entries)
    tr.peak("occupancy.support_max", len(s.entries))
    for _, _, nxt in result or ():
        tr.counts["occupancy.step_entries_out"] += len(nxt.entries)
        tr.peak("occupancy.support_max", len(nxt.entries))


def _count_private_step(tr, args, kwargs, result, error):
    tr.counts["occupancy.private_step_calls"] += 1
    tr.counts["occupancy.private_step_useful"] += error is None


def _count_value_tables(tr, args, kwargs, result, error):
    tr.counts["evaluate.value_tables_calls"] += 1
    tr.counts["evaluate.table_entries"] += sum(len(t.values) for t in result or ())


def _count_simulate(tr, args, kwargs, result, error):
    tr.counts["evaluate.episodes"] += result.episodes if result is not None else 0


def _count_normal_form(tr, args, kwargs, result, error):
    if result is not None:
        mats, _ = result
        tr.counts["solve.normal_form_cells"] += sum(m.size for m in mats)


def _count_lp(tr, args, kwargs, result, error):
    tr.counts["solve.lp_calls"] += 1
    tr.counts["solve.lp_success"] += bool(result is not None and result.success)


def _count_br(tr, args, kwargs, result, error):
    tr.counts["solve.br_calls"] += 1


def _verify_name(suite):
    return lambda kwargs: "verify.controls" if kwargs.get("negative_control") else suite


# (span name, module, attribute, counter); every layer of the package
TARGETS = [
    ("model.parse", "model", "parse_posg", None),
    ("policies.enumerate", "policies", "enumerate_pure_policies", _count_enumerate),
    ("occupancy.step", "occupancy", "step", _count_step),
    ("occupancy.private_step", "occupancy", "private_step", _count_private_step),
    ("occupancy.decompose", "occupancy", "decompose", None),
    ("occupancy.reward", "occupancy", "expected_reward", None),
    ("occupancy.reward", "occupancy", "private_reward", None),
    ("evaluate.value_tables", "evaluate", "value_tables", _count_value_tables),
    ("evaluate.value_tables", "evaluate", "evaluate_occupancy", None),
    ("evaluate.simulate", "evaluate", "simulate", _count_simulate),
    ("solve.normal_form", "solve", "induced_normal_form", _count_normal_form),
    ("solve.normal_form", "solve", "suffix_normal_form", _count_normal_form),
    ("solve.lp", "solve", "linprog", _count_lp),
    ("solve.br_history", "solve", "best_response_history", _count_br),
    ("solve.br_history", "solve", "best_response_value_from", _count_br),
    ("solve.br_private", "solve", "best_response_private", _count_br),
    ("solve.br_private", "solve", "best_response_private_from", _count_br),
    ("solve.solver", "solve", "solve_zero_sum", None),
    ("solve.solver", "solve", "solve_dec", None),
    ("solve.solver", "solve", "solve_stackelberg", None),
    ("solve.solver", "solve", "zero_sum_value_from", None),
    ("solve.solver", "solve", "dec_value_from", None),
    ("solve.solver", "solve", "stackelberg_value_from", None),
    ("solve.solver", "solve", "matrix_game_value", None),
    ("solve.solver", "solve", "stackelberg_from_matrices", None),
    (_verify_name("verify.sufficiency"), "verify", "check_sufficiency_master", None),
    (_verify_name("verify.sufficiency"), "verify", "check_sufficiency_private", None),
    (_verify_name("verify.slave"), "verify", "check_slave_structure", None),
    (_verify_name("verify.master"), "verify", "check_master_structure", None),
    (_verify_name("verify.lipschitz"), "verify", "check_lipschitz", None),
    ("verify.controls", "verify", "_negative_controls", None),
    ("verify.suite", "verify", "run_suite", None),
]


def install(tracer: Tracer, package: str = "occupancy_games") -> list[tuple]:
    """Bind a wrapper for every target in every package module that holds the
    original; returns ``(module, name, original, wrapper)`` bindings."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == package]
    bindings = []
    for name, module, attr, count in TARGETS:
        original = getattr(sys.modules[f"{package}.{module}"], attr)
        wrapper = tracer.wrap(name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    bindings.append((mod, key, original, wrapper))
    bind(bindings, True)
    return bindings


def bind(bindings: list[tuple], traced: bool):
    """Switch every binding to its wrapper (traced) or back to the original."""
    for mod, key, original, wrapper in bindings:
        setattr(mod, key, wrapper if traced else original)


def dump(path: pathlib.Path, tracer: Tracer, parse_spans: list[list]):
    """Write the raw spans (parsing's and the traced rounds'), counters and
    maxima as one JSON object; times are raw ``perf_counter`` seconds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "item"],
        "parse_spans": parse_spans,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "maxima": tracer.maxima,
    }))


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------


def self_and_inclusive(spans: list[list]) -> tuple[Counter, Counter]:
    """Self time per span name (duration minus direct children), and inclusive
    time per name counting only spans with no same-name ancestor."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    self_t, incl = Counter(), Counter()
    for i, span in enumerate(spans):
        dur = span[END] - span[START]
        self_t[span[NAME]] += dur - child_time[i]
        p = span[PARENT]
        while p is not None and spans[p][NAME] != span[NAME]:
            p = spans[p][PARENT]
        if p is None:
            incl[span[NAME]] += dur
    return self_t, incl


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    parse_spans: list[list],
    traced_rounds: list[float],
    untraced_rounds: list[float],
    scale: float = 1.0,
    parse_scale: float = 1.0,
) -> dict[str, float]:
    """Per-round averages over the traced rounds (parse is per process).

    Round times come in reference seconds; span times are raw and are scaled
    by ``scale`` (``parse_scale`` for parsing) into reference seconds."""
    n = len(traced_rounds)
    self_t, incl = self_and_inclusive(tracer.spans)
    parse_self, _ = self_and_inclusive(parse_spans)
    for table in (self_t, incl):
        for key in table:
            table[key] *= scale
    parse_self["model.parse"] *= parse_scale
    c = tracer.counts
    verify_self = sum(v for k, v in self_t.items() if k.startswith("verify."))
    out = {
        "model.parse_s": parse_self["model.parse"],
        "policies.enumerate_s": self_t["policies.enumerate"] / n,
        "policies.enumerated": c["policies.enumerated"] / n,
        "occupancy.step_s": self_t["occupancy.step"] / n,
        "occupancy.step_calls": c["occupancy.step_calls"] / n,
        "occupancy.step_entries_in": c["occupancy.step_entries_in"] / n,
        "occupancy.step_entries_out": c["occupancy.step_entries_out"] / n,
        "occupancy.support_max": tracer.maxima.get("occupancy.support_max", 0.0),
        "occupancy.private_step_s": self_t["occupancy.private_step"] / n,
        "occupancy.private_step_calls": c["occupancy.private_step_calls"] / n,
        "occupancy.private_step_useful_ratio": _ratio(
            c["occupancy.private_step_useful"], c["occupancy.private_step_calls"]
        ),
        "occupancy.decompose_s": self_t["occupancy.decompose"] / n,
        "occupancy.reward_s": self_t["occupancy.reward"] / n,
        "evaluate.value_tables_s": self_t["evaluate.value_tables"] / n,
        "evaluate.value_tables_calls": c["evaluate.value_tables_calls"] / n,
        "evaluate.table_entries": c["evaluate.table_entries"] / n,
        "evaluate.simulate_s": self_t["evaluate.simulate"] / n,
        "evaluate.episodes_per_s": _ratio(
            c["evaluate.episodes"], incl["evaluate.simulate"]
        ),
        "solve.normal_form_s": self_t["solve.normal_form"] / n,
        "solve.normal_form_cells": c["solve.normal_form_cells"] / n,
        "solve.lp_s": self_t["solve.lp"] / n,
        "solve.lp_calls": c["solve.lp_calls"] / n,
        "solve.lp_useful_ratio": _ratio(c["solve.lp_success"], c["solve.lp_calls"]),
        "solve.br_history_s": self_t["solve.br_history"] / n,
        "solve.br_private_s": self_t["solve.br_private"] / n,
        "solve.br_calls": c["solve.br_calls"] / n,
        "solve.solver_s": self_t["solve.solver"] / n,
        "verify.self_s": verify_self / n,
        "verify.sufficiency_s": incl["verify.sufficiency"] / n,
        "verify.slave_s": incl["verify.slave"] / n,
        "verify.master_s": incl["verify.master"] / n,
        "verify.lipschitz_s": incl["verify.lipschitz"] / n,
        "verify.controls_s": incl["verify.controls"] / n,
        "bench.item_self_s": self_t["item"] / n,
        "trace.wall_s": statistics.median(traced_rounds),
        "trace.overhead_s": statistics.median(traced_rounds)
        - statistics.median(untraced_rounds),
    }
    return out
