"""Guard for the traced benchmark: ``perfbench/spans.py`` rebinds module
attributes of the package by name, so every name it lists must exist and its
bindings must come undone.  The file is read, never imported as a module, so
nothing is written under ``perfbench/``."""

import importlib
import pathlib
import sys
import types

import occupancy_games.cli  # noqa: F401  (imports every module spans scans)
from occupancy_games import solve

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def package_modules() -> list[types.ModuleType]:
    return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "occupancy_games"]


def spans_problems(spans) -> list[str]:
    """What keeps ``spans`` from tracing the package and leaving it as it
    was: targets that do not resolve to a callable, and module attributes
    that ``install`` then ``bind(..., False)`` do not put back (restored
    here before returning)."""
    missing = [
        f"occupancy_games.{module}.{attr} does not resolve"
        for _, module, attr, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"occupancy_games.{module}"), attr, None))
    ]
    if missing:
        return missing
    before = {mod: dict(vars(mod)) for mod in package_modules()}
    try:
        spans.bind(spans.install(spans.Tracer()), False)
    finally:
        left = [
            (mod, key, value)
            for mod, attrs in before.items()
            for key, value in attrs.items()
            if vars(mod).get(key) is not value
        ]
        for mod, key, value in left:
            setattr(mod, key, value)
    return [f"{mod.__name__}.{key} is not restored" for mod, key, _ in left]


def test_traced_targets_resolve_and_unbind():
    spans = load_spans()
    assert len(spans.TARGETS) > 0
    assert spans_problems(spans) == []


def test_a_removed_target_is_caught(monkeypatch):
    monkeypatch.delattr(solve, "best_response_private_from")
    assert spans_problems(load_spans()) == [
        "occupancy_games.solve.best_response_private_from does not resolve"
    ]


def test_a_binding_left_in_place_is_caught():
    spans = load_spans()
    bind = spans.bind
    spans.bind = lambda bindings, traced: bind(bindings, True)  # never unbinds
    problems = spans_problems(spans)
    assert "occupancy_games.solve.best_response_private is not restored" in problems
    assert spans_problems(load_spans()) == []  # the check put every attribute back


def test_traced_solve_counts_its_lps(st_tiger):
    # spans' LP counter reads ``success`` from what ``solve.linprog``
    # returns: a traced Stackelberg solve counts its LPs and their successes
    spans = load_spans()
    tracer = spans.Tracer()
    bindings = spans.install(tracer)
    try:
        tracer.enabled = True
        solve.solve_stackelberg(st_tiger.with_horizon(2))
    finally:
        spans.bind(bindings, False)
    assert tracer.counts["solve.lp_calls"] >= 1
    assert tracer.counts["solve.lp_success"] >= 1
