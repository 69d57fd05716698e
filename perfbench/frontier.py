"""Frontier probe child: solve each criterion's bundled tiger model at
horizons 1, 2, ... under the default caps, one attempt at a time.

Prints ``start <criterion> <h>`` before each attempt and
``done <criterion> <h> <status> [values]`` after it, where status is
``solved``, ``cap`` (``CapExceededError``: not solved, not a failure) or
``error``.  A criterion stops at its first unsolved horizon, or after
``MAX_H``.  The parent (``run.py``) kills this process when an attempt
overruns its budget.

    PYTHONPATH=src python3 perfbench/frontier.py zerosum common
"""

from __future__ import annotations

import argparse
import pathlib

MAX_H = 6  # the probe's last horizon per criterion
MODELS = {
    "zerosum": ("tiger-zs", "solve_zero_sum"),
    "common": ("tiger", "solve_dec"),
    "stackelberg": ("stackelberg-tiger", "solve_stackelberg"),
}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("criteria", nargs="+", choices=sorted(MODELS))
    p.add_argument("--root", type=pathlib.Path, default=pathlib.Path("."))
    args = p.parse_args(argv)
    import occupancy_games as og  # here, so run.py can import MAX_H without the package

    for criterion in args.criteria:
        name, solver = MODELS[criterion]
        model = og.parse_posg((args.root / "models" / f"{name}.posg").read_text())
        for h in range(1, MAX_H + 1):
            print(f"start {criterion} {h}", flush=True)
            try:
                eq = getattr(og, solver)(model.with_horizon(h))
            except og.CapExceededError:
                print(f"done {criterion} {h} cap", flush=True)
                break
            except Exception as exc:  # reported to the parent as a failed attempt
                print(f"done {criterion} {h} error {type(exc).__name__}", flush=True)
                break
            values = " ".join(repr(float(v)) for v in eq.values)
            print(f"done {criterion} {h} solved {values}", flush=True)


if __name__ == "__main__":
    main()
