"""Edge formulas and exact clique/independence numbers, written apart from
``slramsey`` so the benchmark can check the program's oracle against them.

Nothing here imports the package under test.  The search is a level-by-level
enumeration of homogeneous sets (every r-subset an edge, or none), unlike the
program's depth-first branch-and-bound it prunes nothing by size: level k+1
is built from every homogeneous k-set, and the answer is the last nonempty
level.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def shift_edge(t: tuple[int, ...]) -> bool:
    """x < y < z is an edge of the shift hypergraph iff x + z < 2y."""
    x, y, z = t
    return x + z < 2 * y


def shift_omega(n: int) -> int:
    """Clique number of the shift hypergraph on [n]: floor(log2 n) + 1.

    In a clique each consecutive gap exceeds the sum of all later gaps, so
    k vertices span at least 2**(k-1) - 1.
    """
    return (n.bit_length() - 1) + 1


def shift_alpha(n: int) -> int:
    """Independence number on [n]: floor(log2(n - 1)) + 2.

    In an independent set each gap is at least the sum of all earlier gaps,
    so k >= 2 vertices span at least 2**(k-2).
    """
    return (n - 1).bit_length() - 1 + 2


def growth_edge(scales: tuple[int, ...]):
    """Edge predicate of the alternating-gap growth family.

    For t_0 = 1 and t_i = s_1 * ... * s_i, a sorted tuple
    (x_0 .. x_q, y_q .. y_0) is an edge iff
    sum_i (-1)**i * t_i * (y_i - x_i) > 0.
    """
    ts = [Fraction(1)]
    for s in scales:
        ts.append(ts[-1] * Fraction(s))
    q = len(scales)
    r = 2 * q + 2

    def edge(t: tuple[int, ...]) -> bool:
        total = Fraction(0)
        for i in range(q + 1):
            gap = ts[i] * (t[r - 1 - i] - t[i])
            total += gap if i % 2 == 0 else -gap
        return total > 0

    return edge


def max_homogeneous(n: int, r: int, edge, want: bool) -> int:
    """Largest S of [n] whose every r-subset has ``edge(t) == want``.

    Sets below r vertices qualify vacuously.  Each level stores, per set,
    the bitmask of larger vertices that extend it; a new vertex w survives
    the extension by v when every r-subset made of v, w and r-2 members of
    the set passes.
    """
    if n < r:
        return n
    # passing[u] for every (r-1)-subset u: bitmask of w > max(u) with u+w passing
    passing: dict[tuple[int, ...], int] = {}
    for u in combinations(range(1, n + 1), r - 1):
        m = 0
        for w in range(u[-1] + 1, n + 1):
            if edge(u + (w,)) == want:
                m |= 1 << w
        passing[u] = m
    level = [(u, m) for u, m in passing.items()]
    size = r - 1
    while True:
        nxt = []
        for s, cand in level:
            rest = cand
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                new_cand = rest
                for part in combinations(s, r - 2):
                    if not new_cand:
                        break
                    new_cand &= passing[tuple(sorted(part + (v,)))]
                nxt.append((s + (v,), new_cand))
        if not nxt:
            return size
        level = nxt
        size += 1
