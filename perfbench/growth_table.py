"""Exact (omega, alpha) of the growth family, for the ``oracle`` workload.

The values come from the level-by-level search in ``oracles.py``, never from
the program's oracle.  Regenerate the stored table with

    python3 perfbench/growth_table.py

which recomputes every entry of ``CASES``, about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from oracles import growth_edge, max_homogeneous

TABLE_PATH = Path(__file__).resolve().parent / "growth_table.json"

# (scale, n) pairs the oracle workload draws from
CASES = tuple((4, n) for n in range(40, 49)) + tuple((8, n) for n in range(39, 42))


def compute(s: int, n: int) -> tuple[int, int]:
    """(omega, alpha) of the 4-uniform growth hypergraph with one scale s."""
    edge = growth_edge((s,))
    return max_homogeneous(n, 4, edge, True), max_homogeneous(n, 4, edge, False)


def load() -> dict[tuple[int, int], tuple[int, int]]:
    rows = json.loads(TABLE_PATH.read_text())
    return {(row["s"], row["n"]): (row["omega"], row["alpha"]) for row in rows}


def main() -> int:
    rows = []
    for s, n in CASES:
        omega, alpha = compute(s, n)
        print(f"s={s} n={n}: omega={omega} alpha={alpha}", file=sys.stderr)
        rows.append({"s": s, "n": n, "omega": omega, "alpha": alpha})
    TABLE_PATH.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
