"""End-to-end tests of the command-line interface: output content,
exit codes, and byte-level determinism of written reports."""

import dataclasses
import json

import pytest

from stw import cli, modular


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_anyons_table(capsys):
    code, out, _ = run(capsys, ["anyons", "--u", "1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 51  # comment + header + 49 rows
    assert any(line.startswith("B_1_0") and "zeta_25^1" in line for line in lines)
    assert any(line.startswith("I_5") and line.split()[1] == "5" for line in lines)


def test_anyons_u0_twists_are_fifth_roots(capsys):
    code, out, _ = run(capsys, ["anyons", "--u", "0"])
    assert code == 0
    for line in out.splitlines():
        if line.startswith("B_"):
            twist = line.split()[-1]
            assert twist == "1" or twist.startswith("zeta_5^")


def test_anyons_invalid_group_exits_2(capsys):
    quandle = ["quandle", "--braid", "s1", "--strands", "2"]
    for argv, message in [
        (["anyons", "--n", "2"], "order"),
        (["anyons", "--q", "9"], "q=9 and p=5 must be prime"),
        (["anyons", "--q", "13"], "p=5 must divide q-1=12"),
        # theory and color indices out of range
        (["anyons", "--u", "7"], "--u 7 is out of range"),
        (["anyons", "--u", "-1"], "--u -1 is out of range"),
        (["distinguish", "--u", "1", "9"], "--u 9 is out of range"),
        (["distinguish", "--u", "5", "1"], "--u 5 is out of range"),
        ([*quandle, "--k", "7"], "--k 7 is out of range"),
        ([*quandle, "--k", "0"], "--k 0 is out of range"),
        ([*quandle, "--s", "5"], "--s 5 is out of range"),
    ]:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert message in err
        assert out == "", argv


def test_anyons_output_deterministic(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert cli.main(["anyons", "--u", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    doc = json.loads(paths[0].read_text())
    assert len(doc["anyons"]) == 49


def test_anyons_csv_output(capsys, tmp_path):
    path = tmp_path / "anyons.csv"
    code, _, _ = run(capsys, ["anyons", "--format", "csv", "--out", str(path)])
    assert code == 0
    assert len(path.read_text().splitlines()) == 50


def test_invariant_pinned_clasp_value(capsys):
    code, out, _ = run(capsys, [
        "invariant", "--braid", "s2^-2 s1 s2^-1 s1", "--strands", "3",
        "--colors", "B_1_0,A_1_4,B_1_0", "--u", "1",
    ])
    assert code == 0
    assert "components: ((1, 3), (2,))" in out
    assert "writhe: -1" in out
    assert "zero-framed float: +22.847826+50.029760j" in out


def test_invariant_identity_braid_gives_dimension(capsys):
    code, out, _ = run(capsys, [
        "invariant", "--braid", "", "--strands", "1", "--colors", "I_5",
    ])
    assert code == 0
    assert "framed      float: +5.000000+0.000000j" in out


def test_invariant_inconsistent_coloring_exits_3(capsys):
    code, _, err = run(capsys, [
        "invariant", "--braid", "s2^-2 s1 s2^-1 s1", "--strands", "3",
        "--colors", "B_1_0,A_1_4,B_2_1",
    ])
    assert code == 3
    assert "(1, 3)" in err


def test_invariant_unknown_color_exits_2(capsys):
    code, _, err = run(capsys, [
        "invariant", "--braid", "s1", "--strands", "2",
        "--colors", "B_9_0,B_9_0",
    ])
    assert code == 2
    assert "B_9_0" in err


def test_invariant_bad_braid_exits_2(capsys):
    code, _, err = run(capsys, [
        "invariant", "--braid", "t3", "--strands", "3",
        "--colors", "I_0,I_0,I_0",
    ])
    assert code == 2
    assert "t3" in err


def test_quandle_command(capsys):
    code, out, _ = run(capsys, [
        "quandle", "--braid", "s1^3", "--strands", "2", "--k", "2", "--s", "3",
    ])
    assert code == 0
    lines = out.splitlines()
    counts = [line.split()[-1] for line in lines[1:5]]
    assert counts == ["11", "11", "11", "11"]
    assert lines[-1].startswith("PASS")
    assert "B_2_3" in lines[-1]


def test_modular_command(capsys):
    code, out, _ = run(capsys, ["modular", "--u", "1"])
    assert code == 0
    assert out.count("PASS") == 7
    assert "FAIL" not in out
    assert "c = 0 (mod 8)" in out


def test_modular_json_output(capsys, tmp_path):
    path = tmp_path / "md.json"
    code, _, _ = run(capsys, ["modular", "--u", "1", "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["total_dim"] == 55 and doc["c_mod_8"] == 0


def test_modular_verification_failure_exits_4(capsys, monkeypatch):
    real = modular.modularity_report

    def broken(md):
        report = real(md)
        object.__setattr__(report, "failures", ("synthetic failure",))
        return report

    monkeypatch.setattr(modular, "modularity_report", broken)
    code, _, err = run(capsys, ["modular", "--u", "1"])
    assert code == 4
    assert "synthetic failure" in err


def test_wmatrix_command(capsys):
    code, out, _ = run(capsys, ["wmatrix", "--u", "1"])
    assert code == 0
    assert out.count("PASS") == 4


def test_reports_are_built_only_for_out(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("report document built without --out")

    monkeypatch.setattr(modular, "modular_data_to_json", refuse)
    monkeypatch.setattr(modular, "w_matrix_to_json", refuse)
    assert run(capsys, ["modular", "--u", "1"])[0] == 0
    assert run(capsys, ["wmatrix", "--u", "1"])[0] == 0


def test_distinguish_pair(capsys):
    code, out, _ = run(capsys, ["distinguish", "--u", "1", "4"])
    assert code == 0
    assert "(S,T)   u=1 vs u=4: EQUIVALENT" in out
    assert "(S,T,W) u=1 vs u=4: NOT-EQUIVALENT" in out
    assert "T allows   A_1_4 -> {A_1_4, A_2_2}" in out
    assert "W requires A_1_4 -> {A_1_1, A_2_6}" in out
    assert "intersection: {}" in out


def test_distinguish_pair_prints_no_obstruction_with_a_nonempty_intersection(
    capsys, monkeypatch
):
    """When T and W both allow an image at the pair, the pair proves
    nothing: one line says so, and no obstruction block is printed."""
    real = modular.obstruction_certificate

    def nonempty(d1, d2):
        cert = real(d1, d2)
        return dataclasses.replace(cert, compatible=cert.t_allowed[:1])

    monkeypatch.setattr(modular, "obstruction_certificate", nonempty)
    code, out, _ = run(capsys, ["distinguish", "--u", "1", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "no two-object obstruction found at A_1_4 (anchor B_1_0)"
    assert not any(line.startswith("obstruction") for line in lines)
    assert not any(word in out for word in ("T allows", "W requires", "intersection"))


@pytest.mark.parametrize(
    "argv",
    [
        ["distinguish", "--all"],
        ["quandle", "--braid", "s1^3", "--strands", "2"],
        ["lens", "5", "2"],
    ],
)
@pytest.mark.parametrize("flag", [["--out", "x.json"], ["--format", "csv"]])
def test_out_is_rejected_where_no_report_is_written(argv, flag, tmp_path, monkeypatch):
    """Commands that write no report do not take --out or --format."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, *flag])
    assert exc.value.code == 2
    assert not (tmp_path / "x.json").exists()


def test_distinguish_st_only(capsys):
    code, out, _ = run(capsys, ["distinguish", "--st-only"])
    assert code == 0
    assert "{u=0}  {u=1, u=4}  {u=2, u=3}" in out


def test_distinguish_all(capsys):
    code, out, _ = run(capsys, ["distinguish", "--all"])
    assert code == 0
    assert "(S,T) classes  : {u=0}  {u=1, u=4}  {u=2, u=3}" in out
    assert "(S,T,W) classes: {u=0}  {u=1}  {u=2}  {u=3}  {u=4}" in out


def test_lens_command(capsys):
    code, out, _ = run(capsys, ["lens", "5", "2", "--u", "1"])
    assert code == 0
    assert "digits: [3, 2]" in out
    assert "signature: 2" in out
    assert "float: -0.629032+0.000000j" in out


def test_lens_non_coprime_exits_2(capsys):
    code, _, err = run(capsys, ["lens", "4", "2"])
    assert code == 2
    assert "coprime" in err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("u", ["0", "1"])
def test_modular_command_at_even_order(capsys, u):
    code, out, _ = run(capsys, ["modular", "--q", "7", "--p", "2", "--n", "6", "--u", u])
    assert code == 0
    assert out.count("PASS") == 7
    assert "PASS  charge conjugation is an involution fixing the unit" in out


def test_distinguish_builds_two_theories(capsys, monkeypatch):
    """Only u = 0 and u = 1 are walked; u = 2 is derived from u = 1."""
    built = []
    real = modular.w_matrix

    def spy(params, mirror=False):
        built.append(params.u)
        return real(params, mirror)

    monkeypatch.setattr(modular, "w_matrix", spy)
    code, out, _ = run(capsys, ["distinguish", "--all", "--q", "7", "--p", "3", "--n", "2"])
    assert code == 0 and built == [0, 1]
    assert "(S,T,W) classes: {u=0}  {u=1}  {u=2}" in out


def test_distinguish_at_even_order(capsys):
    code, out, _ = run(capsys, ["distinguish", "--all", "--q", "7", "--p", "2", "--n", "6"])
    assert code == 0
    assert "(S,T) classes  : {u=0}  {u=1}" in out
