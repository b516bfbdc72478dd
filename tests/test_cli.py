import json

import pytest

from fbl.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_join_example(capsys):
    code, out, err = run_cli(
        capsys, "norm", "--space", "l1:2", "--expr", "|d(1,0)| v |d(0,1)|",
        "--k", "2", "--restarts", "200", "--seed", "0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["lower_bound"] >= 1.999
    assert report["seed"] == 0
    assert len(report["witness"]) == 2
    assert "lower bound" in err


def test_norm_delta_isometry(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--space", "l2:3", "--expr", "d(1,0,0)",
        "--k", "2", "--restarts", "60",
    )
    assert code == 0
    report = json.loads(out)
    assert report["lower_bound"] == pytest.approx(1.0, abs=5e-3)
    assert report["lower_bound"] <= 1.0 + 1e-9


def test_norm_malformed_expr_exits_2(capsys):
    code, out, _ = run_cli(capsys, "norm", "--space", "l1:2", "--expr", "d(1,")
    assert code == 2
    report = json.loads(out)
    assert report["error"]["position"] == 4


def test_norm_bad_space_exits_2(capsys):
    code, _, _ = run_cli(capsys, "norm", "--space", "l7:x", "--expr", "d(1,0)")
    assert code == 2


def test_norm_generator_index_out_of_range_exits_2(capsys):
    code, out, _ = run_cli(capsys, "norm", "--space", "l2:2", "--expr", "f(9)")
    assert code == 2
    assert "generator index 9" in json.loads(out)["error"]["message"]


def test_norm_bad_k_exits_3(capsys):
    code, _, _ = run_cli(capsys, "norm", "--space", "l1:2", "--expr", "d(1,0)", "--k", "30")
    assert code == 3


def test_lift_verify_passes(capsys):
    code, out, _ = run_cli(
        capsys, "lift-verify", "--space", "l2:4", "--seed", "0",
        "--instances", "500", "--coeff-vectors", "5",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    names = {c["check"] for c in report["checks"]}
    assert names == {"biorthogonal", "disjoint", "beta_section", "normspan", "freenorm"}


def test_lift_verify_rejects_divergent_mseq(capsys):
    code, out, _ = run_cli(capsys, "lift-verify", "--space", "l2:6", "--mseq", "harmonic")
    assert code == 3
    assert "diverges" in json.loads(out)["error"]["message"]


def test_lift_verify_short_mseq_exits_3(capsys):
    code, out, _ = run_cli(capsys, "lift-verify", "--space", "l2:3", "--mseq", "custom:1,2")
    assert code == 3
    assert "no term 3" in json.loads(out)["error"]["message"]


def test_lift_verify_custom_mseq(capsys):
    code, out, _ = run_cli(
        capsys, "lift-verify", "--space", "l2:3", "--mseq", "custom:[3,9,27]",
        "--instances", "200", "--coeff-vectors", "3",
    )
    assert code == 0
    assert json.loads(out)["passed"]


def test_lemma44_batch(capsys):
    code, out, _ = run_cli(capsys, "lemma44", "--instances", "300", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == [] and report["instances"] == 300


def test_lemma44_zero_instances(capsys):
    code, out, _ = run_cli(capsys, "lemma44", "--instances", "0")
    assert code == 0
    assert json.loads(out)["instances"] == 0


def test_lemma44_tuple_cap_exits_3(capsys):
    code, _, _ = run_cli(capsys, "lemma44", "--l", "30")
    assert code == 3


def test_out_file_and_determinism(tmp_path, capsys):
    args = ["norm", "--space", "l2:2", "--expr", "|d(1,0)| ^ |d(0,1)|",
            "--k", "2", "--restarts", "30", "--seed", "0"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, *args, "--out", str(p1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
