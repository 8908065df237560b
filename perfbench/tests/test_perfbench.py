"""Tests of the benchmark's own pieces: the brute-force oracle, the checks
(each must reject a corrupted result), the input rules and the contract
between run.py and BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from padicann.oracle import search_rational_points  # noqa: E402

SEED = 7


# ---------------------------------------------------------------------------
# brute force against the program
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("job", inputs.points_jobs(SEED), ids=lambda j: j.name)
def test_brute_force_equals_point_search_at_reduced_height(job):
    height = 25
    points, inf = checks.brute_force_points(job.coeffs, height)
    result = search_rational_points(list(job.coeffs), height)
    assert set(result.affine) == points
    assert result.infinity_points == inf


def test_brute_force_knows_the_septic():
    points, inf = checks.brute_force_points(inputs.SEPTIC, 20)
    assert points == {(-1, 0), (0, 1), (0, -1)}
    assert inf == 1


def test_brute_force_finds_non_integral_points():
    # f = (5x^2)^2 + (3x - 1) x^3 has f(1/3) = (5/9)^2
    q = [0, 0, 5]
    f = inputs.poly_add(inputs.poly_mul(q, q), inputs.poly_mul([-1, 3], [0, 0, 0, 1]))
    points, _ = checks.brute_force_points(f, 5)
    assert (Fraction(1, 3), Fraction(5, 9)) in points
    assert (Fraction(1, 3), Fraction(-5, 9)) in points


def test_uniform_bound_is_the_papers():
    assert checks.uniform_bound(3, 0) == 67
    assert checks.uniform_bound(5, 2) == 8 * 6 * 4 + 8 * 5
    assert checks.septic_problems(67) == []
    assert checks.septic_problems(68)


# ---------------------------------------------------------------------------
# each check rejects a corrupted result
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def planted():
    job = dataclasses.replace(inputs.points_jobs(SEED)[1], height=90)
    return job, search_rational_points(list(job.coeffs), job.height)


def test_point_check_passes_a_true_result(planted):
    job, result = planted
    assert checks.point_problems(job, result.affine, result.infinity_points) == []


def test_point_check_catches_a_removed_planted_point(planted):
    job, result = planted
    gone = job.planted[0]
    affine = [pt for pt in result.affine if pt[0] != gone[0]]
    problems = checks.point_problems(job, affine, result.infinity_points)
    assert any("planted" in p for p in problems)


def test_point_check_catches_an_off_curve_point(planted):
    job, result = planted
    x, y = result.affine[0]
    affine = list(result.affine) + [(x, y + 1), (x, -y - 1)]
    problems = checks.point_problems(job, affine, result.infinity_points)
    assert any("not on the curve" in p for p in problems)


def test_point_check_catches_a_broken_symmetry_and_infinity(planted):
    job, result = planted
    x, y = next(pt for pt in result.affine if pt[1] != 0)
    affine = [pt for pt in result.affine if pt != (x, -y)]
    assert any("closed" in p for p in checks.point_problems(job, affine, result.infinity_points))
    assert any("infinity" in p for p in checks.point_problems(job, result.affine,
                                                               result.infinity_points + 1))


def test_family_check_catches_a_missed_point():
    job = inputs.family_jobs(SEED)[0]
    result = search_rational_points(list(job.coeffs), job.height)
    points, inf = checks.brute_force_points(job.coeffs, job.height)
    assert checks.family_problems(job, result.affine, result.infinity_points, (points, inf)) == []
    extra = (Fraction(10**6), Fraction(0))
    assert checks.family_problems(job, result.affine, result.infinity_points,
                                  (points | {extra}, inf))


@pytest.fixture(scope="module")
def local_outputs():
    curve_jobs, zero_jobs = inputs.local_jobs(SEED)
    curve_job = curve_jobs[len(inputs.CLUSTER_PATTERNS) - 1]   # p = 3, degree 8
    return (curve_job, workloads.curve_pipeline(curve_job),
            zero_jobs, [workloads.zero_count(z) for z in zero_jobs])


def test_curve_check_passes_a_true_result(local_outputs):
    job, out, _, _ = local_outputs
    assert out.pullbacks and any(pb.integrals for pb in out.pullbacks)
    assert checks.curve_problems(job, out) == []


def test_cover_check_catches_a_class_covered_twice(local_outputs):
    job, out, _, _ = local_outputs
    dec = out.decomposition
    free = next(r for r in dec.disks if r.kind == "free")
    twice = dataclasses.replace(dec, disks=dec.disks + [free])
    problems = checks.cover_problems(job.p, inputs.LOCAL_COVER_N, twice, out.cover)
    assert any("covered twice" in p for p in problems)
    hole = dataclasses.replace(dec, disks=[r for r in dec.disks if r is not free])
    problems = checks.cover_problems(job.p, inputs.LOCAL_COVER_N, hole, out.cover)
    assert any("uncovered" in p for p in problems)


def test_curve_check_catches_wrong_branch_points_and_integrals(local_outputs):
    job, out, _, _ = local_outputs
    moved = dataclasses.replace(job, roots=(job.roots[0] + 1,) + job.roots[1:])
    assert any("planted roots" in p for p in checks.curve_problems(moved, out))
    pb = next(pb for pb in out.pullbacks if pb.integrals)
    i01, i12, i02 = pb.integrals
    broken = dataclasses.replace(pb, integrals=(i01, i12, i02 + 1))
    bad = dataclasses.replace(out, pullbacks=[broken])
    assert any("additive" in p for p in checks.curve_problems(job, bad))


def test_zero_check_catches_a_newton_count_off_by_one(local_outputs):
    _, _, zero_jobs, outs = local_outputs
    for job, out in zip(zero_jobs, outs):
        assert checks.zero_problems(job, out) == []
    job, out = zero_jobs[0], outs[0]
    assert checks.zero_problems(job, dataclasses.replace(out, newton=out.newton + 1))
    assert checks.zero_problems(job, dataclasses.replace(out, enumerated=out.enumerated + 1))


# ---------------------------------------------------------------------------
# input rules
# ---------------------------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    assert inputs.points_jobs(3) == inputs.points_jobs(3)
    assert inputs.local_jobs(3) == inputs.local_jobs(3)
    assert inputs.family_jobs(3) != inputs.family_jobs(4)


def test_curve_patterns_give_the_planned_tree():
    curve_jobs, _ = inputs.local_jobs(SEED)
    for job in curve_jobs:
        assert len(set(job.roots)) == len(job.roots)
        assert all(0 <= r < job.p**3 for r in job.roots)
        assert len({r % job.p for r in job.roots}) >= 2       # top cluster at depth 0


def test_zero_fixtures_certify_by_their_hensel_depth(local_outputs):
    _, _, zero_jobs, outs = local_outputs
    for job, out in zip(zero_jobs, outs):
        depth = inputs.hensel_depth(job)
        assert job.p**depth <= inputs.ZERO_MAX_CLASSES
        assert out.N <= max(inputs.ZERO_FIRST_N, depth)


# ---------------------------------------------------------------------------
# run.py and BENCHMARK.json
# ---------------------------------------------------------------------------


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(spans.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in spec["workloads"]} == {"points", "family", "local"}


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
