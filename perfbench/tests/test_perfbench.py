"""Tests of the benchmark's own checks, closed forms and growth table."""

import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import growth_table  # noqa: E402
import workloads  # noqa: E402
from oracles import (  # noqa: E402
    growth_edge,
    max_homogeneous,
    shift_alpha,
    shift_edge,
    shift_omega,
)
from slramsey import constructions, domination, hypergraph, pipeline  # noqa: E402


SHIFT = [((1, -2, 1), 0)]  # x1 - 2 x2 + x3
SHIFT_TABLE = (True, False, False)  # an edge iff the sign is negative
SHIFT_CLIQUE = (1, 9, 13, 15, 16)  # each gap exceeds the sum of later gaps


def shift_job(n):
    points = [Fraction(j) for j in range(1, n + 1)]
    return workloads.ExtractJob(points, SHIFT, SHIFT_TABLE)


def breaking_swap(vertices, n, r, ok):
    """The set with one vertex replaced so that some r-subset fails ``ok``,
    a predicate of the program's own."""
    for i in range(len(vertices)):
        for v in range(1, n + 1):
            vs = sorted(set(vertices[:i] + vertices[i + 1 :]) | {v})
            if len(vs) == len(vertices) and not all(ok(t) for t in combinations(vs, r)):
                return vs
    raise AssertionError("no breaking swap")


@pytest.fixture(scope="module")
def extraction():
    job = shift_job(512)
    return job, pipeline.semilinear_ramsey_extract(job.desc)


def test_extract_checks_accept_the_program_output(extraction):
    job, res = extraction
    job.check(res)


def test_extract_check_rejects_a_swapped_vertex():
    job = shift_job(64)
    assert all(job.desc.has_edge(t) for t in combinations(SHIFT_CLIQUE, 3))
    checks.check_extraction(job.points, SHIFT, SHIFT_TABLE, 3, "clique", SHIFT_CLIQUE, False)
    swapped = breaking_swap(list(SHIFT_CLIQUE), 64, 3, job.desc.has_edge)
    with pytest.raises(checks.CheckFailed):
        checks.check_extraction(job.points, SHIFT, SHIFT_TABLE, 3, "clique", swapped, False)


def test_extract_check_rejects_a_flipped_kind():
    job = shift_job(64)
    with pytest.raises(checks.CheckFailed):
        checks.check_extraction(
            job.points, SHIFT, SHIFT_TABLE, 3, "independent", SHIFT_CLIQUE, False
        )
    with pytest.raises(checks.CheckFailed):  # a 2-set is vacuous, not a clique
        checks.check_extraction(job.points, SHIFT, SHIFT_TABLE, 3, "clique", (1, 2), False)


def test_width_chain_rejects_an_increase(extraction):
    _, res = extraction
    widths = dict(res.widths)
    widths["sampled"] = widths["cupcap"] + 1
    with pytest.raises(checks.CheckFailed):
        checks.check_width_chain(widths, 512, len(res.vertices))


def test_monotone_width_rejects_a_wrong_width(extraction):
    _, res = extraction
    widths = dict(res.widths)
    widths["monotone"] -= 1
    with pytest.raises(checks.CheckFailed):
        checks.check_monotone_width(widths, 512)


def test_longest_monotone_matches_brute_force():
    rng = random.Random(5)
    for _ in range(30):
        values = rng.sample(range(100), 9)
        best = max(
            len(sub)
            for k in range(1, 10)
            for sub in combinations(values, k)
            if list(sub) == sorted(sub) or list(sub) == sorted(sub, reverse=True)
        )
        assert checks.longest_monotone(values) == best


@pytest.fixture(scope="module")
def domination_result():
    rng = random.Random(3)
    rows = []
    for _ in range(2):
        row = [rng.randrange(-50, 50)]
        for _ in range(399):
            row.append(row[-1] + rng.randrange(1, 5))
        rows.append(tuple(row))
    job = workloads.DominateJob([(tuple(rows), 20)])
    res = domination.domination_clique(job.instances)
    assert len(res.vertices) >= 3
    return job, res


def test_domination_check_accepts_the_program_output(domination_result):
    job, res = domination_result
    job.check(res)


def test_domination_check_rejects_a_changed_colour(domination_result):
    job, res = domination_result
    colours = [(c + 1) % 3 for c in res.colors]
    with pytest.raises(checks.CheckFailed):
        checks.check_domination(job.raw, res.vertices, colours)


def test_domination_check_rejects_a_swapped_vertex(domination_result):
    job, res = domination_result
    inst = job.instances[0]
    colour = res.colors[0]
    swapped = breaking_swap(
        list(res.vertices), 400, 2, lambda t: domination.domination_color(inst, t) == colour
    )
    with pytest.raises(checks.CheckFailed):
        checks.check_domination(job.raw, swapped, res.colors)


def test_colour_rule_examples():
    matrix = ((0, 1, 10), (5, 6, 7))
    assert checks.colour_of(matrix, 100, (1, 2)) == 0  # every entry at most h
    assert checks.colour_of(matrix, 0, (1, 2)) == 2  # 6 >= h + 4 and 6 >= 0 + 2
    assert checks.colour_of(matrix, 5, (1, 2)) is None  # 6 misses h + 4
    assert checks.colour_of(matrix, 0, (2, 3)) == 2
    assert checks.colour_of(((9, 10), (8, 9)), 0, (1, 2)) is None  # 9 < 9 + 2


def test_oracle_checks_reject_tampered_witness_and_values():
    n = 24
    lazy = hypergraph.LazyHypergraph(n, 3, shift_edge)
    omega, clique = hypergraph.brute_omega(lazy)
    alpha, indep = hypergraph.brute_alpha(lazy)
    checks.check_witness(n, 3, shift_edge, omega, clique, True)
    checks.check_witness(n, 3, shift_edge, alpha, indep, False)
    checks.check_shift_values(n, omega, alpha)
    program = constructions.shift3_hypergraph(n)
    swapped = breaking_swap(list(clique), n, 3, program.has_edge)
    with pytest.raises(checks.CheckFailed):
        checks.check_witness(n, 3, shift_edge, omega, swapped, True)
    with pytest.raises(checks.CheckFailed):
        checks.check_witness(n, 3, shift_edge, omega, clique[:-1], True)
    with pytest.raises(checks.CheckFailed):
        checks.check_shift_values(n, omega + 1, alpha)
    with pytest.raises(checks.CheckFailed):
        checks.check_growth_values({(4, 40): (7, 6)}, 4, 40, 7, 7)


def _naive_max(n, r, edge, want):
    best = min(n, r - 1)
    for k in range(r, n + 1):
        if any(
            all(edge(t) == want for t in combinations(s, r))
            for s in combinations(range(1, n + 1), k)
        ):
            best = k
        else:
            break
    return best


def test_shift_closed_forms_match_brute_force():
    for n in range(3, 12):
        assert _naive_max(n, 3, shift_edge, True) == shift_omega(n)
        assert _naive_max(n, 3, shift_edge, False) == shift_alpha(n)
    for n in range(3, 33):
        assert max_homogeneous(n, 3, shift_edge, True) == shift_omega(n)
        assert max_homogeneous(n, 3, shift_edge, False) == shift_alpha(n)


def test_level_search_matches_brute_force_on_growth():
    edge = growth_edge((4,))
    for n in range(4, 12):
        assert max_homogeneous(n, 4, edge, True) == _naive_max(n, 4, edge, True)
        assert max_homogeneous(n, 4, edge, False) == _naive_max(n, 4, edge, False)


def test_growth_table_regenerates():
    stored = growth_table.load()
    assert set(stored) == set(growth_table.CASES)
    assert growth_table.compute(4, 40) == stored[(4, 40)] == (7, 6)
