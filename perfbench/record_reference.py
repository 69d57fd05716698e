"""Record the solver reference values the ``solve`` workload checks against.

Values of the three h=2 tiger models at every grid start belief, and of each
criterion's frontier model at its bundled start for h = 1, 2.  Run from the
repository root to regenerate ``perfbench/reference.json``:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import pathlib

import occupancy_games as og

from frontier import MODELS
from workloads import H2_CASES, REFERENCE, load_model

GRID = [round(0.05 * k, 2) for k in range(1, 20)]


def main():
    root = pathlib.Path(".")
    out = {"grid": GRID, "h2": {}, "frontier": {}}
    for name, solver in H2_CASES:
        model = load_model(root, name)
        out["h2"][name] = {
            f"{b:.2f}": list(getattr(og, solver)(model.with_start([b, 1.0 - b])).values)
            for b in GRID
        }
    for criterion, (name, solver) in MODELS.items():
        model = load_model(root, name)
        out["frontier"][criterion] = {
            str(h): list(getattr(og, solver)(model.with_horizon(h)).values) for h in (1, 2)
        }
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
