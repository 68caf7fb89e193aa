#!/usr/bin/env python3
"""Reproduce the desk-scale reference results in one table.

Runs every supported theorem verification at its reference parameters
(bound vs constructed family vs exact search).  The acceptance battery
is `multifam suite --profile full`.

Usage:
    python scripts/reproduce_results.py [--uniqueness]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    import multifam  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multifam.verify import verify_theorem

# (theorem, params, note) -- reference instances; the two entries outside a
# theorem's hypothesis run in exploration mode and report it in the status
INSTANCES = [
    ("T1.1", {"m": 5, "k": 2}, "Petersen graph"),
    ("T1.4", {"m": 4, "k": 3}, ""),
    ("T1.4", {"m": 5, "k": 3}, "uniqueness regime"),
    ("T2.3", {"m": 8, "k": 2, "s": 2}, ""),
    ("T2.4", {"m": 6, "k": 2}, ""),
    ("T3.3", {"m": 6, "k": 3}, ""),
    ("T3.4", {"m": 7, "k": 2, "s": 2}, ""),
    ("T3.5", {"m": 5, "k": 2}, ""),
    ("T4.1", {"m": 4, "k": 3, "t": 2}, "threshold boundary"),
    ("T4.1", {"m": 5, "k": 4, "t": 2}, "exploration: m < 2k-t"),
    ("T4.8", {"m": 5, "k": 3, "t": 2}, ""),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--uniqueness", action="store_true",
                        help="also enumerate optimum classes where supported")
    args = parser.parse_args()

    header = f"{'theorem':<8} {'params':<18} {'bound':>5} {'built':>5} {'search':>6} {'status':<18} note"
    print(header)
    print("-" * len(header))
    failures = 0
    for theorem, params, note in INSTANCES:
        report = verify_theorem(theorem, params, uniqueness=args.uniqueness)
        params_str = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
        built = report.constructed_size if report.constructed_size is not None else "-"
        print(
            f"{theorem:<8} {params_str:<18} {report.analytic_bound:>5} "
            f"{built:>5} {report.search_optimum:>6} {report.status:<18} {note}"
        )
        if args.uniqueness and report.uniqueness_verdict != "not_checked":
            print(f"{'':<8} {'':<18} uniqueness: {report.uniqueness_verdict}")
        if not report.match and report.hypothesis_met:
            failures += 1

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
