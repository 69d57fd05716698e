"""Self-test: the benchmark's correctness checks can fail.

Runs the ``solve`` workload twice for a few seconds: once with the recorded
reference values intact, which must pass with no failed item, and once with
every reference shifted by 1e-6 (a negative control), which must report
failed items, ``correct: false`` and exit code 1.  Run from the repository
root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys

CORRUPTION = 1e-6


def run(corrupt: float) -> tuple[int, dict]:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "7",
        "--seconds", "1", "--trace", "0", "--corrupt-reference", str(corrupt),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    code, clean = run(0.0)
    rate = clean["failed"] / clean["attempted"]
    print(f"intact references:    exit {code}, error_rate {rate:.3f} ({clean['failed']}/{clean['attempted']})")
    ok &= code == 0 and clean["correct"] and clean["failed"] == 0
    code, bad = run(CORRUPTION)
    rate = bad["failed"] / bad["attempted"]
    print(f"corrupted references: exit {code}, error_rate {rate:.3f} ({bad['failed']}/{bad['attempted']})")
    ok &= code == 1 and not bad["correct"] and rate > 0.0
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
