import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import padicann
import padicann.selftest
from padicann.cli import main
from padicann.selftest import CriterionResult


def monic_from_roots(roots):
    poly = [Fraction(1)]
    for r in roots:
        new = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] += c
            new[i] -= Fraction(r) * c
        poly = new
    return poly


OCTIC = [str(c) for c in monic_from_roots([0, 3, 9, 1, 2, 4, 5, 7])]


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def octic_file(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"p": 3, "f": OCTIC, "precision": 30}))
    return str(path)


# ---------------------------------------------------------------------------


def test_bounds_json(capsys):
    rep = run_json(capsys, "bounds", "--p", "3", "--e", "1", "--q", "3",
                   "--g", "3", "--r", "0")
    assert rep["schema"] == "padicann/1"
    assert rep["N_local"] == 67
    assert rep["torsion_bound"] == 67
    assert rep["per_t"][0]["t"] == 0
    assert rep["per_t"][1]["disks"] == 34


def test_bounds_deterministic(capsys):
    args = ("bounds", "--p", "3", "--e", "1", "--q", "9", "--g", "5", "--r", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_bounds_out_writes_json_and_prints_table(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, text, _ = run(capsys, "bounds", "--p", "3", "--e", "1", "--q", "3",
                        "--g", "4", "--r", "1", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["N_local"] == 136
    assert "N_local" in text and "136" in text
    assert "points_on_annuli" in text


def test_usage_error_exits_2(capsys):
    code, _, _ = run(capsys, "bounds", "--p", "3")
    assert code == 2


def test_unknown_command_exits_2(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_computation_error_is_structured_json(capsys):
    code, _, err = run(capsys, "bounds", "--p", "3", "--e", "3", "--q", "3",
                       "--g", "3", "--r", "0")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"]["type"] == "UnsupportedRegime"


def _zeros_job(p):
    return {"p": p, "terms": {"0": "-3", "1": "1"}, "window": ["0", "2"]}


QUINTIC = [str(c) for c in monic_from_roots([1, 2, 3, 4, 5])]


def _run_cli(tmp_path, argv, job=None):
    """``python -m padicann.cli`` in a fresh process, killed after 10 s."""
    if job is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        argv = argv + (str(path),)
    env = dict(os.environ, PYTHONPATH=str(Path(padicann.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "padicann.cli", *argv],
                          capture_output=True, text=True, timeout=10, env=env)


@pytest.mark.parametrize("argv, job", [
    (("count-zeros",), _zeros_job(1)),          # vp would loop forever
    (("count-zeros",), _zeros_job(0)),          # vp would divide by zero
    (("count-zeros",), _zeros_job(1000000007 * 1000000009)),
    (("search-points", "1/0,1,1,1", "--height", "5"), None),
    (("bounds", "--p", "9", "--e", "1", "--q", "9", "--g", "3", "--r", "0"), None),
    (("bounds", "--p", "3", "--e", "1", "--q", "5", "--g", "3", "--r", "0"), None),
    (("count-zeros",), _zeros_job(3.7)),        # int() would read p = 3
    (("count-zeros",), _zeros_job("3.7")),
    (("count-zeros",), _zeros_job(True)),       # int() would read p = 1
    (("count-zeros",), dict(_zeros_job(3), prec=2.5)),
    (("verify-zeros",), dict(_zeros_job(3), N=2.9)),
    (("decompose",), {"p": 3.7, "f": ["-1", "2", "0", "0", "0", "1"]}),
    (("decompose",), {"p": 3, "f": ["-1", "2", "0", "0", "0", "1"],
                      "precision": "10.5"}),
    (("pullback",), {"curve": {"p": 3, "f": OCTIC, "precision": 30},
                     "annulus_index": 0.5, "u_tilde": ["1"]}),
    # one disk per free residue class: this p would never finish
    (("decompose",), {"p": 1000000007, "precision": 10,
                      "f": [str(c) for c in monic_from_roots([1, 2, 3, 4, 5])]}),
    # exponent notation would build a ten-million-digit integer
    (("search-points", "1e10000000,0,0,1", "--height", "2"), None),
    (("decompose",), {"p": 3, "f": ["1e10000000", "2", "0", "0", "0", "1"]}),
    # the cluster tree is read off the roots alone: a hand-supplied matrix
    # would be silently ignored, which answers another question, so it is
    # refused (these curves decompose without it)
    (("decompose",), {"p": 3, "f": [str(c) for c in monic_from_roots([1, 2, 3, 4, 5])],
                      "valuation_matrix": [[0, 0, 1, 0, 0], [0, 0, 2, 0, 0],
                                           [1, 2, 0, 0, 0], [0, 0, 0, 0, 0],
                                           [0, 0, 0, 0, 0]]}),
    (("pullback",), {"curve": {"p": 3, "f": OCTIC, "precision": 30},
                     "annulus_index": 0, "u_tilde": ["1"],
                     "valuation_matrix": [[0] * 8] * 8}),
    (("verify-cover",), {"p": 3, "f": QUINTIC, "precision": 10,
                         "valuation_matrix": [[0] * 5] * 5}),
    # int() would read m = 1, a valid genus-2 graph
    (("graph-check",), {"vertices": [{"m": 1.9, "pa": 2, "w": 2}], "edges": []}),
    # bool() would read "false" as true
    (("count-zeros",), dict(_zeros_job(3), include_lo="false")),
    # a p-adic term is known only mod p^prec, and the oracle needs exact terms
    (("verify-zeros",), dict(_zeros_job(3), terms={
        "0": {"val": "1", "unit": "-1", "prec": "20"}, "1": "1"})),
    # the root finder's cost grows faster than the size of p^precision
    (("decompose",), {"p": 3, "f": QUINTIC, "precision": 100000}),
    (("decompose",), {"p": 65521, "f": QUINTIC, "precision": 10000}),
    # no digit is known below precision 1; p**-3 would be a float
    (("decompose",), {"p": 3, "f": QUINTIC, "precision": 0}),
    (("decompose",), {"p": 3, "f": QUINTIC, "precision": -3}),
    # residues mod 3^prec: 18 s at 10^7, killed at 10^8
    (("count-zeros",), dict(_zeros_job(3), prec=10**7)),
    (("count-zeros",), dict(_zeros_job(3), prec=10**8)),
    # a sieve bank of 11.9 GiB; refused before it is allocated
    (("search-points", "1,0,0,0,0,0,0,1", "--height", "100000000"), None),
], ids=["p=1", "p=0", "p-semiprime", "zero-denominator", "p-not-prime",
        "q-not-power-of-p", "p-float", "p-float-string", "p-bool",
        "prec-float", "N-float", "curve-p-float", "curve-precision-string",
        "annulus-index-float", "decompose-huge-p", "coefficient-exponent",
        "curve-f-exponent", "matrix-not-ultrametric", "pullback-matrix",
        "verify-cover-matrix", "graph-m-float",
        "include-lo-string", "verify-zeros-padic-term",
        "decompose-huge-precision", "decompose-huge-precision-large-p",
        "decompose-precision-zero", "decompose-precision-negative",
        "count-zeros-huge-prec", "count-zeros-huger-prec",
        "search-points-huge-height"])
def test_bad_input_is_a_quick_json_error(tmp_path, argv, job):
    proc = _run_cli(tmp_path, argv, job)
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stderr)["error"]
    assert error["type"] in {"ValueError", "ZeroDivisionError", "UnsupportedRegime"}


@pytest.mark.parametrize("p", [4, 15])
def test_decompose_says_p_is_not_prime(tmp_path, p):
    # a composite p used to fail inside the root finder, on a modular inverse
    proc = _run_cli(tmp_path, ("decompose",), {"p": p, "f": QUINTIC, "precision": 10})
    assert json.loads(proc.stderr)["error"] == {
        "type": "ValueError", "message": f"p = {p} is not prime"}


def test_verify_cover_at_a_large_prime_answers_quickly(tmp_path):
    # about p free disks: the audit looks each class up by its residue
    # mod p^(level + 1), not against every disk
    start = time.perf_counter()
    proc = _run_cli(tmp_path, ("verify-cover",), {"p": 10007, "f": QUINTIC, "precision": 10})
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["ok"] and rep["classes"] == 10007


def test_large_prime_answers_quickly(tmp_path):
    # the primality check on p must not scale with sqrt(p)
    proc = _run_cli(tmp_path, ("count-zeros",), _zeros_job(10**18 + 3))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 0


def test_verify_zeros_wide_window_returns_quickly(tmp_path):
    # the oracle visits only the valuations where two terms tie, not
    # every integer of the window
    proc = _run_cli(tmp_path, ("verify-zeros",),
                    dict(_zeros_job(3), window=["-1000000", "3"]))
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["oracle_count"] == rep["newton_count"] == 1


def test_verify_zeros_huge_prec_returns_quickly(tmp_path):
    # the oracle descends on the exact terms -3 and 1, not on their
    # residues mod 3^1000000
    proc = _run_cli(tmp_path, ("verify-zeros",), dict(_zeros_job(3), prec=1000000))
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["oracle_count"] == rep["newton_count"] == 1


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, "decompose", "/nonexistent/curve.json")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"


def test_decompose(capsys, octic_file):
    rep = run_json(capsys, "decompose", octic_file)
    assert rep["genus"] == 3
    assert len(rep["annuli"]) == 4
    assert rep["disks"] is not None
    kinds = [a["kind"] for a in rep["annuli"]]
    assert kinds.count("odd") == 2 and kinds.count("weierstrass") == 2


def test_decompose_reads_json_decimals_that_print_with_an_exponent(capsys, tmp_path):
    # 0.00001 (1e-05 once read) times (x - 1)...(x - 5), as JSON decimals
    # and as exact strings
    decimals = tmp_path / "decimals.json"
    decimals.write_text('{"p": 3, "f": [-0.0012, 0.00274, -0.00225, 0.00085, '
                        '-0.00015, 0.00001]}')
    exact = tmp_path / "exact.json"
    exact.write_text(json.dumps({"p": 3, "f": ["-3/2500", "137/50000", "-9/4000",
                                               "17/20000", "-3/20000", "1/100000"]}))
    rep = run_json(capsys, "decompose", str(decimals))
    assert rep["genus"] == 2
    assert rep == run_json(capsys, "decompose", str(exact))


def test_decompose_small_genus_fails(capsys, tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"p": 3, "f": ["2", "0", "1"]}))
    code, _, err = run(capsys, "decompose", str(path))
    assert code == 1
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_pullback(capsys, octic_file, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "curve": {"p": 3, "f": OCTIC, "precision": 30},
        "annulus_index": 0,
        "u_tilde": ["1"],
    }))
    rep = run_json(capsys, "pullback", str(job))
    assert rep["annulus"]["kind"] == "odd"
    assert rep["support"] == [-2, -2]
    assert rep["inside_window"] is True


def test_pullback_index_range(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "curve": {"p": 3, "f": OCTIC, "precision": 30},
        "annulus_index": 99,
        "u_tilde": ["1"],
    }))
    code, _, err = run(capsys, "pullback", str(job))
    assert code == 1
    assert "out of range" in json.loads(err)["error"]["message"]


def test_count_zeros(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "p": 3, "terms": {"0": "-3", "1": "1"}, "window": ["0", "2"],
    }))
    rep = run_json(capsys, "count-zeros", str(job))
    assert rep["count"] == 1


def test_integrate_annulus_and_disk(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "integrand": {"ell": {"p": 3, "terms": {"1": "1"}},
                      "c": "0", "domain": ["0", "4"]},
        "xi0": "3", "xi1": "6",
    }))
    rep = run_json(capsys, "integrate", str(job))
    assert rep["value"] == {"val": "1", "unit": "1", "prec": "20"}

    disk = tmp_path / "disk.json"
    disk.write_text(json.dumps({
        "integrand": {"ell": {"p": 3, "terms": {"2": "1"}}},
        "xi0": "3", "xi1": "6", "mode": "disk",
    }))
    rep = run_json(capsys, "integrate", str(disk))
    assert rep["value"]["val"] == "3" and rep["value"]["unit"] == "1"


def test_integrate_log_scaling(capsys, tmp_path):
    # pure dz/z from xi to 3*xi: Log0(3) = 0, so the integral vanishes
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "integrand": {"ell": {"p": 3, "terms": {}},
                      "c": "1", "domain": ["0", "4"]},
        "xi0": "3", "xi1": "9",
    }))
    rep = run_json(capsys, "integrate", str(job))
    assert rep["value"]["unit"] == "0"


def test_integrate_bad_mode(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "integrand": {"ell": {"p": 3, "terms": {"1": "1"}}},
        "xi0": "3", "xi1": "6", "mode": "sideways",
    }))
    code, _, err = run(capsys, "integrate", str(job))
    assert code == 1
    assert "unknown mode" in json.loads(err)["error"]["message"]


def test_graph_check(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": [{"m": 1, "pa": 4, "w": 6}], "edges": []}))
    rep = run_json(capsys, "graph-check", str(path))
    assert rep["bounds"]["ok"] is True
    assert rep["bounds"]["genus"] == 4
    # one genus-4 component: no (-2)-curve, and N = 1 component with w > 0
    assert rep["classification"]["minus_two_vertices"] == 0
    assert rep["bounds"]["N"] == 1


def test_graph_check_counts_the_minus_two_curves(capsys, tmp_path):
    # a multiplicity-2 hub with three (-2)-leaves on a genus-2 component
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "vertices": [{"m": 1, "pa": 2, "w": 4}, {"m": 2, "pa": 0, "w": 0}]
                    + [{"m": 1, "pa": 0, "w": 0}] * 3,
        "edges": [[0, 1, 1], [1, 2, 1], [1, 3, 1], [1, 4, 1]],
    }))
    rep = run_json(capsys, "graph-check", str(path))
    assert rep["classification"]["case2"] == [2, 3, 4]
    assert rep["classification"]["minus_two_vertices"] == 3
    assert rep["bounds"]["N"] == 1


def test_graph_check_rejects_bad_relation(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "vertices": [{"m": 1, "pa": 1, "w": 2}], "edges": [],
    }))
    code, _, err = run(capsys, "graph-check", str(path))
    assert code == 1
    assert json.loads(err)["error"]["type"] == "RelationViolated"


def test_search_points(capsys):
    rep = run_json(capsys, "search-points", "1,0,0,0,0,0,0,1",
                   "--height", "10")
    assert rep["count"] == 4
    assert rep["infinity_points"] == 1
    assert ["-1", "0"] in rep["affine"]


def test_search_points_degree_16(capsys):
    rep = run_json(capsys, "search-points", ",".join(["1"] + ["0"] * 15 + ["1"]),
                   "--height", "5")
    assert rep["count"] == 4  # (0, +-1) and two points at infinity


def test_search_points_reports_its_stages_byte_identically(tmp_path):
    argv = ("search-points", "1,0,0,0,0,0,0,1", "--height", "2000")
    first, second = _run_cli(tmp_path, argv), _run_cli(tmp_path, argv)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["stages"] == {
        "denominators": 44, "pairs": 176_044, "survivors": 95, "coprime": 6,
        "confirmed": 2}


@pytest.mark.parametrize("command, job, key", [
    # a misspelt precision would run at the default precision 20
    ("decompose", {"p": 3, "f": QUINTIC, "precison": 5}, "'precison'"),
    ("pullback", {"curve": {"p": 3, "f": OCTIC, "precision": 30,
                            "valuation_matrix": [[0] * 8] * 8},
                  "annulus_index": 0, "u_tilde": ["1"]},
     "'curve.valuation_matrix'"),
    ("verify-cover", {"p": 3, "f": QUINTIC, "precision": 10,
                      "valuation_matrix": [[0] * 5] * 5}, "'valuation_matrix'"),
    ("count-zeros", dict(_zeros_job(3), include_low=True), "'include_low'"),
    ("count-zeros", dict(_zeros_job(3), terms={"0": {"val": "1", "unit": "-1",
                                                     "prec": "20", "p": 3},
                                               "1": "1"}), "'terms.0.p'"),
    ("verify-zeros", dict(_zeros_job(3), n=6), "'n'"),
    ("integrate", {"integrand": {"ell": {"p": 3, "terms": {"1": "1"}, "precision": 5},
                                 "c": "0", "domain": ["0", "4"]},
                   "xi0": "3", "xi1": "6"}, "'integrand.ell.precision'"),
    ("integrate", {"integrand": {"ell": {"p": 3, "terms": {"1": "1"}}},
                   "xi0": {"val": "1", "unit": "1", "prec": "20", "valuation": 1},
                   "xi1": "6", "mode": "disk"}, "'xi0.valuation'"),
    ("graph-check", {"vertices": [{"m": 1, "pa": 4, "w": 6, "genus": 4}],
                     "edges": []}, "'vertices.0.genus'"),
])
def test_an_unknown_job_key_is_refused_by_name(capsys, tmp_path, command, job, key):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"unknown key {key}")


@pytest.mark.parametrize("argv", [
    ("-5,1,0,4", "--height", "20"),
    ("--height", "20", "-5,1,0,4"),
    ("--height", "20", "--", "-5,1,0,4"),
])
def test_search_points_negative_leading_coefficient_list(capsys, argv):
    # y^2 = 4x^3 + x - 5 has the point (1, 0)
    rep = run_json(capsys, "search-points", *argv)
    assert ["1", "0"] in rep["affine"]


def test_verify_cover(capsys, octic_file):
    # every region of the octic is resolved mod 3^2
    rep = run_json(capsys, "verify-cover", octic_file)
    assert rep["ok"] is True
    assert rep["modulus_exponent"] == 2
    assert rep["classes"] == 9


def test_verify_zeros_match_and_legitimate_mismatch(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "p": 3, "terms": {"0": "-3", "1": "1"}, "window": ["0", "2"], "N": 6,
    }))
    rep = run_json(capsys, "verify-zeros", str(job))
    assert rep["newton_count"] == 1 and rep["oracle_count"] == 1
    assert rep["match"] is True

    job.write_text(json.dumps({
        "p": 3, "terms": {"0": "-3", "2": "1"}, "window": ["0", "2"], "N": 6,
    }))
    rep = run_json(capsys, "verify-zeros", str(job))
    # z^2 = 3 splits in C_p but not in Q_p: counts legitimately differ
    assert rep["newton_count"] == 2 and rep["oracle_count"] == 0
    assert rep["match"] is False


def test_verify_zeros_refuses_a_double_root(capsys, tmp_path):
    # (x - 1)^2: the oracle reads the exact terms, not 1 + (3^20 - 2)x + x^2,
    # which has no root in Q_3
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "p": 3, "terms": {"0": "1", "1": "-2", "2": "1"}, "window": ["-1", "1"],
        "N": 30,
    }))
    code, out, err = run(capsys, "verify-zeros", str(job))
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "CertificationFailed"


def _fake_results(all_ok):
    rows = [
        CriterionResult(1, "first", True, "fine", 0.01, 1.0),
        CriterionResult(2, "second", all_ok, "fine" if all_ok else "broke",
                        0.01, 1.0),
    ]
    return rows


def test_selftest_matrix_output(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(padicann.selftest, "run_all", lambda: _fake_results(True))
    out = tmp_path / "self.json"
    code, text, _ = run(capsys, "selftest", "--out", str(out))
    assert code == 0
    assert "criterion  1: PASS" in text
    assert "all criteria passed" in text
    payload = json.loads(out.read_text())
    assert payload["ok"] is True and len(payload["criteria"]) == 2
    assert [c["budget"] for c in payload["criteria"]] == [1.0, 1.0]
    assert [c["elapsed"] for c in payload["criteria"]] == [0.01, 0.01]


def test_selftest_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(padicann.selftest, "run_all", lambda: _fake_results(False))
    code, text, _ = run(capsys, "selftest")
    assert code == 1
    assert "criterion  2: FAIL" in text


# ---------------------------------------------------------------------------
# generated malformed input
# ---------------------------------------------------------------------------

_BAD = {
    "int": [3.7, "3.7", True, None, [], {}, "1e9", "x", "0x10"],
    "rational": [True, None, [], "abc", "1e9", "1/0", "", "2**3", "0.5.1"],
}
_BAD["p"] = _BAD["int"] + [0, 1, 4, 9, -3, 1 << 16, 10**30]
_BAD["precision"] = _BAD["int"] + [10**5, 10**9]

_CURVE = {"p": 3, "f": QUINTIC, "precision": 20}
_CURVE_FIELDS = [(("p",), "p"), (("precision",), "precision")] + \
    [(("f", i), "rational") for i in range(len(QUINTIC))]
_ZEROS_FIELDS = [(("p",), "p"), (("prec",), "int"), (("terms", "0"), "rational"),
                 (("terms", "1"), "rational"), (("window", 0), "rational"),
                 (("window", 1), "rational")]

# subcommand: (a valid job, the fields a fuzzed job breaks, its required keys)
_FUZZ_JOBS = {
    "count-zeros": (_zeros_job(3), _ZEROS_FIELDS, ("p", "terms", "window")),
    "verify-zeros": (dict(_zeros_job(3), N=6), _ZEROS_FIELDS + [(("N",), "int")],
                     ("p", "terms", "window")),
    "decompose": (_CURVE, _CURVE_FIELDS, ("p", "f")),
    "verify-cover": (_CURVE, _CURVE_FIELDS, ("p", "f")),
    "pullback": ({"curve": _CURVE, "annulus_index": 0, "u_tilde": ["1"]},
                 [(("curve",) + path, kind) for path, kind in _CURVE_FIELDS]
                 + [(("annulus_index",), "int"), (("u_tilde", 0), "rational")],
                 ("curve", "annulus_index", "u_tilde")),
}


def _assert_quick_json_error(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 2, argv
    assert code == 1 and out.getvalue() == "", argv
    error = json.loads(err.getvalue())["error"]
    assert error["type"] and error["message"]
    return error


@pytest.mark.parametrize("command", sorted(_FUZZ_JOBS))
def test_fuzz_base_jobs_are_valid(capsys, tmp_path, command):
    # so each fuzzed job below fails by its one malformed part
    path = tmp_path / "job.json"
    path.write_text(json.dumps(_FUZZ_JOBS[command][0]))
    run_json(capsys, command, str(path))


@st.composite
def malformed_jobs(draw):
    """(subcommand, job file text): a valid job with one part broken."""
    command = draw(st.sampled_from(sorted(_FUZZ_JOBS)))
    base, fields, required = _FUZZ_JOBS[command]
    job = copy.deepcopy(base)
    how = draw(st.sampled_from(("field", "drop", "shape")))
    if how == "shape":
        return command, draw(st.sampled_from(
            ("[1, 2]", '"job"', "null", "3", "{", "", "{'p': 3}")))
    if how == "drop":
        del job[draw(st.sampled_from(required))]
    else:
        path, kind = draw(st.sampled_from(fields))
        target = job
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = draw(st.sampled_from(_BAD[kind]))
    return command, json.dumps(job)


@given(malformed_jobs())
@example(("decompose", json.dumps(dict(_CURVE, precision=10**5))))
@settings(max_examples=300, deadline=None)
def test_fuzzed_jobs_are_quick_json_errors(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(text)
        _assert_quick_json_error([command, str(path)])


@given(st.lists(st.integers(-9, 9), max_size=8), st.integers(0, 8),
       st.sampled_from(("abc", "1e9", "1/0", "", "2**3", "0.5.1", "true", "nan")))
@settings(max_examples=100, deadline=None)
def test_fuzzed_coefficient_lists_are_quick_json_errors(coeffs, at, bad):
    tokens = [str(c) for c in coeffs]
    tokens.insert(at, bad)
    _assert_quick_json_error(["search-points", "--height", "3", "--", ",".join(tokens)])


# a terms value that is no JSON object is refused by its path; reading it
# as one raised an AttributeError that printed a traceback
@pytest.mark.parametrize("bad", [[1, 2], "terms", 3, True, None])
@pytest.mark.parametrize("command, job, path", [
    ("count-zeros", _zeros_job(3), ()),
    ("verify-zeros", _zeros_job(3), ()),
    ("integrate", {"integrand": {"ell": {"p": 3, "terms": {"1": "1"}},
                                 "c": "0", "domain": ["0", "4"]},
                   "xi0": "3", "xi1": "6"}, ("integrand", "ell")),
])
def test_terms_that_are_no_object_are_quick_json_errors(tmp_path, command, job,
                                                        path, bad):
    job = copy.deepcopy(job)
    target = job
    for key in path:
        target = target[key]
    target["terms"] = bad
    file = tmp_path / "job.json"
    file.write_text(json.dumps(job))
    error = _assert_quick_json_error([command, str(file)])
    assert error["type"] == "ValueError"
    assert error["message"] == (f"{'.'.join(path + ('terms',))!r} must be a JSON "
                                f"object, got {bad!r}")


# each of these ran until killed: a residue mod 3^(10^8), a descent on a
# double root that never certifies, and an audit of all 3^20 classes
@pytest.mark.parametrize("command, job", [
    ("integrate", {"integrand": {"ell": {"p": 3, "terms": {"1": "1"}},
                                 "c": "0", "domain": ["0", "4"]},
                   "xi0": {"val": "1", "unit": "1", "prec": "100000000"}, "xi1": "6"}),
    ("count-zeros", {"p": 3, "window": ["0", "2"], "terms": {
        "0": "-3", "1": {"val": "0", "unit": "1", "prec": "1000000000"}}}),
    ("verify-zeros", {"p": 3, "terms": {"0": "1", "1": "-2", "2": "1"},
                      "window": ["-1", "1"], "N": 10000000}),
    ("verify-cover", {"p": 3, "precision": 30, "f": [
        str(c) for c in monic_from_roots([0, 3**20, 2 * 3**20, 1, 2])]}),
], ids=["integrate-huge-xi0-prec", "count-zeros-huge-term-prec",
        "verify-zeros-huge-N", "verify-cover-huge-audit"])
def test_jobs_that_ran_until_killed_are_quick_json_errors(tmp_path, command, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    _assert_quick_json_error([command, str(path)])
