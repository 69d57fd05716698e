"""Benchmark entry point for occupancy-games.

    python3 perfbench/run.py --workload solve|dynamics|verify --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Workload processes run one at a time, each a
fresh interpreter with ``PYTHONPATH=src`` and BLAS/OpenMP capped at one
thread.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run.  The line
before it records the item count, the tail percentile, round times and the
interpreter and library versions.  Exit code 0 means every item passed its
check, 1 means some failed, 2 means the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import select
import statistics
import subprocess
import sys
import time

from frontier import MAX_H

HERE = pathlib.Path(__file__).resolve().parent
SETUP_REPEATS = 4  # fresh interpreters timed for setup_s, the workload's included
WORKER_GRACE_S = 60.0  # beyond --seconds, before a workload process is killed
FRONTIER_BUDGET_S = 8.0  # per attempt; stackelberg h=3 takes ~65 s at the baseline
FRONTIER_TOTAL_S = 90.0
TAIL_MIN_BEYOND = 10
WORKLOADS = ("solve", "dynamics", "verify")
CRITERIA = ("zerosum", "common", "stackelberg")


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def child_env(root: pathlib.Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(root, env, args, extra=(), timeout=None) -> tuple[float, dict]:
    """Start one worker; return (spawn time on the monotonic clock, its JSON)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(root), "--corrupt-reference", str(args.corrupt_reference),
        *extra,
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest rank with TAIL_MIN_BEYOND items above."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, ordered[n - TAIL_MIN_BEYOND - 1]


def _read_line(proc, buf: bytearray, deadline: float) -> str | None:
    """Next stdout line of ``proc``, '' at end of file, None at the deadline."""
    fd = proc.stdout.fileno()
    while b"\n" not in buf:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 4096)
        if not chunk:
            return ""
        buf.extend(chunk)
    line, _, rest = bytes(buf).partition(b"\n")
    buf[:] = rest
    return line.decode()


def probe_frontier(root, env, reference) -> tuple[dict, list[str]]:
    """Largest solved horizon per criterion, each attempt killed at the budget.

    Criteria run in order in one child; ``pending[0]`` is always the one in
    progress.  A child killed at the budget, or one that ends early, is
    restarted for the criteria after it."""
    frontier = {c: 0 for c in CRITERIA}
    errors: list[str] = []
    pending = list(CRITERIA)
    stop_all = time.monotonic() + FRONTIER_TOTAL_S
    while pending:
        cmd = [sys.executable, str(HERE / "frontier.py"), *pending, "--root", str(root)]
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        buf = bytearray()
        running = False
        deadline = min(time.monotonic() + WORKER_GRACE_S, stop_all)
        try:
            while pending:
                line = _read_line(proc, buf, deadline)
                if line is None and running and time.monotonic() < stop_all:
                    pending.pop(0)  # attempt over budget: not solved
                    break
                if not line:  # the child hung or ended early, or time ran out
                    errors.append(f"frontier probe stopped before {pending[0]} finished")
                    pending.pop(0)
                    break
                word, criterion, h, *rest = line.split()
                h = int(h)
                running = word == "start"
                if running:
                    deadline = min(time.monotonic() + FRONTIER_BUDGET_S, stop_all)
                    continue
                if rest[0] == "solved":
                    ref = reference.get(criterion, {}).get(str(h))
                    values = [float(v) for v in rest[1:]]
                    if ref and max(abs(a - b) for a, b in zip(values, ref)) > 1e-9:
                        errors.append(f"frontier {criterion} h={h} values {values} != {ref}")
                    else:
                        frontier[criterion] = h
                elif rest[0] == "error":
                    errors.append(f"frontier {criterion} h={h} raised {rest[1:]}")
                if rest[0] != "solved" or h == MAX_H:
                    pending.pop(0)
                deadline = min(time.monotonic() + WORKER_GRACE_S, stop_all)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
    return frontier, errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="occupancy-games benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--corrupt-reference", type=float, default=0.0,
                   help="add this to every recorded reference value (self-test)")
    args = p.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "occupancy_games" / "__init__.py").is_file() or not (
        root / "models"
    ).is_dir():
        print("run from a checkout holding src/occupancy_games and models/", file=sys.stderr)
        return 2
    env = child_env(root)
    timeout = args.seconds + WORKER_GRACE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                t0, out = run_worker(root, env, args, ["--setup-only"], timeout)
                setups.append((out["setup_done"] - t0) * out["setup_factor"])
        t0, out = run_worker(root, env, args, timeout=timeout)
        setups.append((out["setup_done"] - t0) * out["setup_factor"])
        reference = json.loads((HERE / "reference.json").read_text())["frontier"]
        frontier, errors = ({}, []) if args.trace else probe_frontier(root, env, reference)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2

    lat = out["latencies"]
    attempted = len(lat) + len(errors)
    failed = out["failed"] + len(errors)
    tail_pct, tail_s = tail(lat)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "items": len(lat),
        "tail_percentile": round(tail_pct, 1),
        "rounds_s": out["rounds"],
        "raw_rounds_s": out["raw_rounds"],
        "kernel_s": out["kernel_s"],
        "setups_s": setups,
        "failures": out["failures"] + errors,
        **({"spans_file": out["spans_file"]} if "spans_file" in out else {}),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **out["versions"],
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in out["layers"].items()}
    else:
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(out["rounds"]), "s"),
            "item_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "item_tail_ms": (1e3 * tail_s, "ms"),
            "success_rate": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
            **{f"frontier_h.{c}": (float(frontier[c]), "horizon") for c in CRITERIA},
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
