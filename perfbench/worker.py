"""One workload process: set up, run timed rounds, print one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Set-up (import, model parsing, seeded input generation) ends at the
``setup_done`` timestamp, taken on the system-wide monotonic clock so the
parent can subtract its own spawn time.  With ``--setup-only`` the process
stops there.

Rounds repeat the workload's fixed list of calls; their number is
``--seconds`` over the workload's nominal round time.  Latencies and round times are
reported in reference seconds (see ``calibrate.py``); a round's time is the
sum of its items' latencies, so checks and calibration are not in it.  With
``--trace 1`` rounds alternate untraced and traced (at least one of each);
the tracer's wrappers are bound only during traced rounds, and the raw spans
are written to ``.bench_build/perfbench/spans-<workload>-<seed>.json`` in the
checkout at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import sys
import time

import calibrate


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", type=pathlib.Path, required=True)
    p.add_argument("--corrupt-reference", type=float, default=0.0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_round(ctx, items: list, tracer=None) -> tuple[float, float]:
    """Drive one round's generator.  Appends ``(label, raw_s, reference_s)``
    per item and returns the round's raw wall time and median kernel time.

    Before every call, untimed, the garbage collector runs and the speed
    kernel is timed: each call then starts from a collected heap, so the
    collections inside it depend on its own allocations only, and the median
    kernel time gives the round's factor from raw to reference seconds."""
    gen = ctx.round()
    start = time.perf_counter()
    kernel = []
    first = len(items)
    try:
        request = next(gen)
        while True:
            label, fn, args, *rest = request
            kwargs = rest[0] if rest else {}
            ctx.current_item = len(items)
            if tracer is not None:
                tracer.item = ctx.current_item
                fn = tracer.wrap("item", fn)
            gc.collect()
            kernel.append(calibrate.kernel_seconds())
            t = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # an item that raises is a failed item
                items.append((label, time.perf_counter() - t))
                ctx.check(False, f"{label} raised {type(exc).__name__}: {exc}")
                gen.close()
                break
            items.append((label, time.perf_counter() - t))
            request = gen.send(result)
    except StopIteration:
        pass
    wall = time.perf_counter() - start
    speed = statistics.median(kernel)
    factor = calibrate.REFERENCE_S / speed
    items[first:] = [(label, raw, raw * factor) for label, raw in items[first:]]
    return wall, speed


def main(argv=None) -> int:
    args = parse_args(argv)
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import occupancy_games
    import workloads

    if not pathlib.Path(occupancy_games.__file__).resolve().is_relative_to(src):
        print(f"imported {occupancy_games.__file__}, not the checkout", file=sys.stderr)
        return 2
    tracer = bindings = None
    if args.trace:
        import spans as tr

        tracer = tr.Tracer()
        bindings = tr.install(tracer)
        tracer.enabled = True
    ctx = workloads.Context(args.workload, args.seed, args.root, args.corrupt_reference)
    setup_done = time.monotonic()
    setup_factor = calibrate.REFERENCE_S / statistics.median(
        calibrate.kernel_seconds() for _ in range(5)
    )
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "setup_factor": setup_factor}))
        return 0

    parse_spans = []
    if tracer is not None:
        parse_spans, tracer.spans = tracer.spans, []
        tracer.counts.clear()
        tracer.maxima.clear()
        ctx.untraced = tracer.paused

    items: list = []
    walls = {False: [], True: []}  # reference seconds per round, by traced
    raw_walls, kernel = [], []
    traced_raw = traced_ref = 0.0
    rounds = max(
        2 if tracer is not None else 1,
        round(args.seconds / workloads.NOMINAL_ROUND_S[args.workload]),
    )
    for n in range(rounds):
        traced = tracer is not None and n % 2 == 1
        if tracer is not None:
            tr.bind(bindings, traced)
        first = len(items)
        wall, speed = run_round(ctx, items, tracer if traced else None)
        raw_walls.append(wall)
        kernel.append(speed)
        walls[traced].append(sum(ref for _, _, ref in items[first:]))
        if traced:
            traced_raw += sum(raw for _, raw, _ in items[first:])
            traced_ref += walls[True][-1]

    import numpy
    import scipy

    out = {
        "setup_done": setup_done,
        "setup_factor": setup_factor,
        "rounds": walls[False],
        "raw_rounds": raw_walls,
        "kernel_s": kernel,
        "latencies": [ref for _, _, ref in items],
        "failed": len(ctx.failed_items),
        "failures": ctx.failures[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        out["layers"] = tr.layer_metrics(
            tracer, parse_spans, walls[True], walls[False], traced_ref / traced_raw, setup_factor
        )
        spans_file = pathlib.Path(".bench_build", "perfbench",
                                  f"spans-{args.workload}-{args.seed}.json")
        tr.dump(args.root / spans_file, tracer, parse_spans)
        out["spans_file"] = str(spans_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
