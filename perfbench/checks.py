"""Output checks made apart from the program.

Every checker takes the benchmark's own raw inputs (plain ints, Fractions
and lists) and the program's answer, recomputes what the answer claims with
code of its own, and raises :class:`CheckFailed` on any disagreement.  None
of them calls into ``slramsey``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations

from oracles import shift_alpha, shift_omega


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _increasing_within(vertices, n: int, what: str) -> None:
    vs = list(vertices)
    _require(all(1 <= v <= n for v in vs), f"{what}: vertex out of [1, {n}]")
    _require(all(a < b for a, b in zip(vs, vs[1:])), f"{what}: not strictly increasing")


# ---------------------------------------------------------------------------
# extraction


def edge_of(points, functions, table, tup) -> bool:
    """Own evaluation of a 1-D description on a 1-based r-tuple.

    ``functions`` are (coefficients, constant) pairs with one coefficient per
    argument; the sign pattern indexes ``table`` as sum((sign_i + 1) * 3**i).
    """
    idx = 0
    for i, (coeffs, constant) in enumerate(functions):
        total = Fraction(constant)
        for c, v in zip(coeffs, tup):
            total += c * points[v - 1]
        sign = (total > 0) - (total < 0)
        idx += (sign + 1) * 3**i
    return table[idx]


def check_extraction(points, functions, table, r, kind, vertices, vacuous) -> None:
    """Every r-subset of the returned set agrees with the reported kind."""
    _increasing_within(vertices, len(points), "extract")
    _require(kind in ("clique", "independent"), f"unknown kind {kind!r}")
    _require(vacuous == (len(vertices) < r), "vacuous flag disagrees with the set size")
    want = kind == "clique"
    for t in combinations(vertices, r):
        _require(
            edge_of(points, functions, table, t) == want,
            f"{t} is {'not ' if want else ''}an edge of a reported {kind}",
        )


WIDTH_CHAIN = ("input", "monotone", "cupcap", "sampled", "clique")


def check_width_chain(widths: dict, n_points: int, n_vertices: int) -> None:
    """input >= monotone >= cupcap >= sampled >= clique, with both ends known."""
    chain = [widths[k] for k in WIDTH_CHAIN]
    _require(chain[0] == n_points, f"input width {chain[0]} != {n_points}")
    _require(chain[-1] == n_vertices, f"clique width {chain[-1]} != {n_vertices}")
    _require(
        all(a >= b for a, b in zip(chain, chain[1:])),
        f"widths increase along the chain: {chain}",
    )


def longest_monotone(values) -> int:
    """max(LIS, LDS) of a sequence of distinct values, by patience sorting."""

    def lis(seq) -> int:
        tails: list = []
        for v in seq:
            i = bisect_left(tails, v)
            if i == len(tails):
                tails.append(v)
            else:
                tails[i] = v
        return len(tails)

    return max(lis(values), lis([-v for v in values]))


def check_monotone_width(widths: dict, expected: int) -> None:
    """Every stack row is affine in the same scalar point with a nonzero
    coefficient, so the first pass keeps max(LIS, LDS) columns and the later
    rows keep them all."""
    _require(
        widths["monotone"] == expected,
        f"monotone width {widths['monotone']} != {expected}",
    )


# ---------------------------------------------------------------------------
# domination


def colour_of(matrix, h: int, tup) -> int | None:
    """Own colouring rule for one increasing 1-based tuple.

    0 when every diagonal entry is at most h; j when entry j is at least
    h + 4 and at least 2 above every other diagonal entry; else uncoloured.
    """
    diag = [row[v - 1] for row, v in zip(matrix, tup)]
    if all(d <= h for d in diag):
        return 0
    for j, d in enumerate(diag):
        others = diag[:j] + diag[j + 1 :]
        if d >= h + 4 and all(d >= o + 2 for o in others):
            return j + 1
    return None


def check_domination(instances, vertices, colours) -> None:
    """The set is monochromatic in every (matrix, threshold) instance, in
    the colour the program reports."""
    n = len(instances[0][0][0])
    _increasing_within(vertices, n, "dominate")
    _require(len(colours) == len(instances), "one colour per instance expected")
    for i, ((matrix, h), reported) in enumerate(zip(instances, colours)):
        r = len(matrix)
        seen = set()
        for t in combinations(vertices, r):
            c = colour_of(matrix, h, t)
            _require(c is not None, f"instance {i}: {t} is uncoloured")
            seen.add(c)
            _require(len(seen) == 1, f"instance {i}: two colours on the set")
        if seen:
            _require(
                seen == {reported},
                f"instance {i}: colour {seen.pop()} but {reported} reported",
            )


# ---------------------------------------------------------------------------
# oracles


def check_witness(n: int, r: int, edge, size: int, witness, want: bool) -> None:
    """The witness has the reported size and is a clique (want True) or an
    independent set (want False) under the benchmark's own edge formula."""
    _increasing_within(witness, n, "oracle witness")
    _require(len(witness) == size, f"witness has {len(witness)} vertices, not {size}")
    for t in combinations(witness, r):
        _require(edge(t) == want, f"{t} breaks the reported witness")


def check_shift_values(n: int, omega: int, alpha: int) -> None:
    _require(omega == shift_omega(n), f"shift n={n}: omega {omega} != {shift_omega(n)}")
    _require(alpha == shift_alpha(n), f"shift n={n}: alpha {alpha} != {shift_alpha(n)}")


def check_growth_values(table: dict, s: int, n: int, omega: int, alpha: int) -> None:
    want = table.get((s, n))
    _require(want is not None, f"growth s={s} n={n} is not in the table")
    _require((omega, alpha) == want, f"growth s={s} n={n}: {(omega, alpha)} != {want}")
