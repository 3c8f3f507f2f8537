"""The four workloads: how each job's inputs are made, run and checked.

A run is whole rounds of jobs.  Every round of a workload has the same
slots, so each run holds the same mix of job shapes whatever its length;
the seed draws the values inside each slot.  Inputs are built from plain
ints and Fractions the benchmark keeps, and the checks in ``checks.py`` use
those, never the program's objects.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
from fractions import Fraction
from itertools import accumulate

import checks
from growth_table import load as load_growth_table
from oracles import growth_edge, shift_edge
from slramsey import cli, constructions, domination, hypergraph, jsonio, pipeline
from slramsey.semilinear import LinearDescription, LinearFunction, SignTable

# points per description: a sorted description keeps every column through
# the monotone pass, so per point it costs about three times a shuffled one
N_SORTED = 2048
N_SHUFFLED = 4096
# Sorted gaps and shuffled numerators have a random bit length up to these.
# Spread over many scales, the points hold cups and caps of 13 to 17
# columns, so most extractions return at least R vertices and the r-subset
# check has subsets to test.  Shuffled numerators stay shorter so that
# cup/cap stays cheap there.
SORTED_GAP_BITS = 40
SHUFFLED_NUMERATOR_BITS = 20
R = 3  # uniformity of the extract descriptions
WIDTH = 100_000  # columns of each dominate job's instances
NONZERO = (-3, -2, -1, 1, 2, 3)

# dominate slots: row directions per instance ('i' increasing, 'd'
# decreasing).  Fixed per slot so that result_size compares across seeds;
# "id", "iid,ddi" and "id,di" take the mixed-then-single-row path that ends
# in the program's verification fallback.
DOMINATE_SHAPES = ("ii", "id", "ii,dd", "iid,ddi", "did,iid,dd", "id,di")


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


# ---------------------------------------------------------------------------
# extraction


def random_magnitude(rng: random.Random, bits: int) -> int:
    """A positive int of a random bit length in 1..bits."""
    return rng.randrange(1, 2 ** rng.randint(1, bits) + 1)


def sorted_points(rng: random.Random, n: int) -> list[Fraction]:
    start = rng.randrange(-1000, 1000)
    gaps = [random_magnitude(rng, SORTED_GAP_BITS) for _ in range(n)]
    return [Fraction(x) for x in accumulate(gaps, initial=start)][1:]


def shuffled_points(rng: random.Random, n: int) -> list[Fraction]:
    seen: set = set()
    out = []
    while len(out) < n:
        numerator = rng.choice((-1, 1)) * random_magnitude(rng, SHUFFLED_NUMERATOR_BITS)
        p = Fraction(numerator, rng.randrange(1, 101))
        if p not in seen:
            seen.add(p)
            out.append(p)
    rng.shuffle(out)
    return out


def random_functions(rng: random.Random, m: int):
    return [
        (tuple(rng.choice(NONZERO) for _ in range(R)), rng.randrange(-50, 51))
        for _ in range(m)
    ]


class ExtractJob:
    """semilinear_ramsey_extract on a 1-D description, then jsonio and
    verify on its certificate."""

    certified = True

    def __init__(self, points, functions, table):
        self.points = points
        self.functions = functions
        self.table = table
        self.desc = LinearDescription(
            1,
            R,
            tuple((p,) for p in points),
            tuple(
                LinearFunction(1, tuple((Fraction(c),) for c in coeffs), Fraction(b))
                for coeffs, b in functions
            ),
            SignTable(len(functions), table),
        )

    def solve(self):
        return pipeline.semilinear_ramsey_extract(self.desc)

    def certificate(self, res) -> str:
        return jsonio.dumps(jsonio.pipeline_result_to_json(res, self.desc))

    def check(self, res) -> None:
        checks.check_extraction(
            self.points, self.functions, self.table, R, res.kind, res.vertices, res.vacuous
        )
        checks.check_width_chain(res.widths, len(self.points), len(res.vertices))
        # N on sorted points, max(LIS, LDS) of the point order on shuffled ones
        checks.check_monotone_width(res.widths, checks.longest_monotone(self.points))

    def sizes(self, res) -> list[int]:
        return [len(res.vertices)]


def extract_sorted(seed: int, rnd: int, wrap=None) -> list:
    """One description with one function and two with two functions: two
    thirds of the jobs share one cost, so the median job time sits inside
    that group rather than between the groups."""
    jobs = []
    for slot, m in enumerate((1, 2, 2)):
        def build(slot=slot, m=m):
            rng = _rng("extract-sorted", seed, rnd, slot)
            points = sorted_points(rng, N_SORTED)
            functions = random_functions(rng, m)
            table = tuple(rng.random() < 0.5 for _ in range(3**m))
            return ExtractJob(points, functions, table)

        jobs.append(build)
    return jobs


# A valid description whose first function, x1 - x3, has an all-zero block
# for the middle argument.  Its inputs do not depend on the seed, and the
# program rejects it every time at the exponential-sample stage because the
# constant stack row has repeated values.  (On most other point sets the
# constant row first shrinks the cup/cap width below two samples, and the
# same stage fails one check earlier.)
ZERO_BLOCK_FUNCTIONS = [((1, 0, -1), 0), ((1, -2, 1), 0)]
ZERO_BLOCK_TABLE = tuple(i % 3 == 0 for i in range(9))  # x1 - x3 < 0


def extract_shuffled(seed: int, rnd: int, wrap=None) -> list:
    jobs = []
    for slot in range(3):
        def build(slot=slot):
            rng = _rng("extract-shuffled", seed, rnd, slot)
            points = shuffled_points(rng, N_SHUFFLED)
            functions = random_functions(rng, 2)
            table = tuple(rng.random() < 0.5 for _ in range(9))
            return ExtractJob(points, functions, table)

        jobs.append(build)

    def zero_block():
        points = shuffled_points(_rng("zero-block", 4), N_SHUFFLED)
        return ExtractJob(points, ZERO_BLOCK_FUNCTIONS, ZERO_BLOCK_TABLE)

    jobs.append(zero_block)
    return jobs


# ---------------------------------------------------------------------------
# domination


def monotone_row(rng: random.Random, increasing: bool) -> tuple[int, ...]:
    row = list(accumulate(rng.choices((1, 2, 3, 4), k=WIDTH - 1), initial=rng.randrange(-50, 50)))
    return tuple(row if increasing else row[::-1])


class DominateJob:
    """domination_clique on k instances over one column set, then jsonio and
    verify on its certificate."""

    certified = True

    def __init__(self, raw):
        self.raw = raw  # [(rows, threshold)]
        self.instances = [domination.DominationInstance(rows, h) for rows, h in raw]

    def solve(self):
        return domination.domination_clique(self.instances)

    def certificate(self, res) -> str:
        return jsonio.dumps(jsonio.domination_result_to_json(res, self.instances))

    def check(self, res) -> None:
        checks.check_domination(self.raw, res.vertices, res.colors)

    def sizes(self, res) -> list[int]:
        return [len(res.vertices)]


def dominate(seed: int, rnd: int, wrap=None) -> list:
    jobs = []
    for shape in DOMINATE_SHAPES:
        def build(shape=shape):
            rng = _rng("dominate", seed, rnd, shape)
            raw = [
                (tuple(monotone_row(rng, d == "i") for d in part), rng.randrange(-60, 61))
                for part in shape.split(",")
            ]
            return DominateJob(raw)

        jobs.append(build)
    return jobs


# ---------------------------------------------------------------------------
# exact oracles

growth_table = functools.cache(load_growth_table)


class OracleJob:
    """brute_omega and brute_alpha on a lazy hypergraph."""

    certified = False

    def __init__(self, family, n, s=None, wrap=None):
        self.family, self.n, self.s = family, n, s
        if family == "shift":
            self.r, self.edge = 3, shift_edge
            pred = constructions.shift3_hypergraph(n).has_edge
        else:
            self.r, self.edge = 4, growth_edge((s,))
            params = constructions.GrowthParams((Fraction(s),))
            pred = constructions.growth_edge_function(params)
        if wrap is not None:
            pred = wrap(pred)
        self.lazy = hypergraph.LazyHypergraph(n, self.r, pred)

    def solve(self):
        return hypergraph.brute_omega(self.lazy), hypergraph.brute_alpha(self.lazy)

    def check(self, res) -> None:
        (omega, w_clique), (alpha, w_indep) = res
        checks.check_witness(self.n, self.r, self.edge, omega, w_clique, True)
        checks.check_witness(self.n, self.r, self.edge, alpha, w_indep, False)
        if self.family == "shift":
            checks.check_shift_values(self.n, omega, alpha)
        else:
            checks.check_growth_values(growth_table(), self.s, self.n, omega, alpha)

    def sizes(self, res) -> list[int]:
        return [len(res[0][1]), len(res[1][1])]


def oracle(seed: int, rnd: int, wrap=None) -> list:
    """The shift hypergraph at n = 96 and 112, growth s = 4 at a seed-drawn
    n, and growth s = 8 at n = 39, 40 and 41.  Each round materializes both
    shift hypergraphs with ``shift3_hypergraph`` again, as a new request
    would; the first one is the first job's input, so its construction
    falls in setup_s.  The three s = 8 jobs cost about the same and are
    spread out in the round, so the median job time is theirs rather than a
    value between two job kinds.  ``wrap`` is applied to every edge
    predicate, for the traced run."""
    n4 = _rng("oracle", seed, rnd).randrange(40, 49)
    return [
        lambda: OracleJob("shift", 96, wrap=wrap),
        lambda: OracleJob("growth", 39, s=8, wrap=wrap),
        lambda: OracleJob("growth", n4, s=4, wrap=wrap),
        lambda: OracleJob("growth", 40, s=8, wrap=wrap),
        lambda: OracleJob("shift", 112, wrap=wrap),
        lambda: OracleJob("growth", 41, s=8, wrap=wrap),
    ]


WORKLOADS = {
    "extract-sorted": extract_sorted,
    "extract-shuffled": extract_shuffled,
    "dominate": dominate,
    "oracle": oracle,
}


def verify_certificate(text: str, path) -> int:
    """Write a certificate and run ``slramsey verify`` on it in-process."""
    with open(path, "w") as fh:
        fh.write(text)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["verify", "--input", str(path)])
