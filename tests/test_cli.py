import json
from fractions import Fraction

import pytest

import padicann.selftest
from padicann.cli import main
from padicann.graphs import good_reduction_graph
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
    path.write_text(good_reduction_graph(4).to_json())
    rep = run_json(capsys, "graph-check", str(path))
    assert rep["bounds"]["ok"] is True
    assert rep["bounds"]["genus"] == 4
    assert rep["classification"]["minus_two_vertices"] == 1


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


def test_verify_cover(capsys, octic_file):
    rep = run_json(capsys, "verify-cover", octic_file, "--precision", "4")
    assert rep["ok"] is True
    assert rep["classes"] == 81


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


def test_selftest_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(padicann.selftest, "run_all", lambda: _fake_results(False))
    code, text, _ = run(capsys, "selftest")
    assert code == 1
    assert "criterion  2: FAIL" in text
