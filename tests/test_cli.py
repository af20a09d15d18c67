"""End-to-end tests of the command-line interface: output content,
exit codes, and byte-level determinism of written reports."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from stw import cli, modular
from stw.braid import parse_braid
from stw.cocycle import CocycleParams
from stw.cyclotomic import _factorize
from stw.group import GroupSpec


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


def test_invariant_csv_holds_both_values(capsys, tmp_path):
    """`invariant --format csv` writes one row per value, framed and
    zero-framed, each matching the float line printed for it."""
    path = tmp_path / "inv.csv"
    code, out, _ = run(capsys, [
        "invariant", "--braid", "s2^-2 s1 s2^-1 s1", "--strands", "3",
        "--colors", "B_1_0,A_1_4,B_1_0", "--u", "1", "--out", str(path), "--format", "csv",
    ])
    assert code == 0
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["row", "col", "re", "im"]
    assert [row[:2] for row in rows[1:]] == [["framed", "invariant"], ["zero_framed", "invariant"]]
    printed = {
        line.split()[0]: line.split()[-1]
        for line in out.splitlines() if line.split()[1:2] == ["float:"]
    }
    for (name, _, re, im), key in zip(rows[1:], ("framed", "zero-framed")):
        assert printed[key] == f"{float(re):+.6f}{float(im):+.6f}j"
    assert printed["framed"] != printed["zero-framed"]


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


def test_invariant_unknown_label_says_it_names_no_object(capsys):
    """A label that names no simple object exits 2 with a sentence that
    says so, not the bare repr of a KeyError."""
    code, out, err = run(capsys, [
        "invariant", "--braid", "s1", "--strands", "2", "--colors", "0,99",
    ])
    assert code == 2 and out == ""
    assert err == (
        "error: '0' names no simple object of the twisted double of the group"
        " Z_11 x| Z_5 (n = 4)\n"
    )


def test_invariant_bad_braid_exits_2(capsys):
    code, _, err = run(capsys, [
        "invariant", "--braid", "t3", "--strands", "3",
        "--colors", "I_0,I_0,I_0",
    ])
    assert code == 2
    assert "t3" in err


def test_malformed_braid_token_exits_2(capsys):
    """Tokens that int() would read (an underscore, a non-ASCII digit, a
    sign on the index) exit 2 naming the token, and print nothing."""
    for token in ["s1_0", "s١", "s+1", "s1^2_0"]:
        code, out, err = run(capsys, ["invariant", "--braid", token, "--strands", "12",
                                      "--colors", ",".join(["I_0"] * 12)])
        assert code == 2 and out == "", token
        assert f"cannot parse braid token {token!r}" in err


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


def test_modular_certifies_the_galois_action_once(capsys, monkeypatch):
    """`stw modular` at the flagship matches S against its images under
    the two generators of (Z/275)^x, once each, and never under complex
    conjugation, which it composes from them: the Galois check runs once
    per theory, and `fusion_rules` reads the generator permutations it
    certified; `dual` comes from the group's classes and reads no S."""
    calls = []
    permutation = modular.ModularData.galois_permutation

    def counted(self, f):
        calls.append(f)
        return permutation(self, f)

    monkeypatch.setattr(modular.ModularData, "galois_permutation", counted)
    code, out, _ = run(capsys, ["modular", "--u", "1"])
    assert code == 0 and "FAIL" not in out
    assert calls == [g for g, _ in modular._unit_generators(275)] and len(calls) == 2


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


def test_wmatrix_walks_no_s(capsys, monkeypatch):
    """`stw wmatrix --u 1` at the flagship reads the charge conjugation
    from the group's classes and twists: it builds no modular data, maps
    no S row under a Galois automorphism, and traces the clasp word only."""
    calls = {"modular_data": 0, "galois_permutation": 0}
    words = []

    def counted(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(modular, "modular_data", counted("modular_data", modular.modular_data))
    monkeypatch.setattr(modular.ModularData, "galois_permutation",
                        counted("galois_permutation", modular.ModularData.galois_permutation))
    real_trace = modular.sparse_trace_counts

    def trace(ctx, word, *rest):
        words.append(word)
        return real_trace(ctx, word, *rest)

    monkeypatch.setattr(modular, "sparse_trace_counts", trace)
    code, out, _ = run(capsys, ["wmatrix", "--u", "1"])
    assert code == 0 and out.count("PASS") == 4
    assert calls == {"modular_data": 0, "galois_permutation": 0}
    clasp = parse_braid(modular.WHITEHEAD_WORD, 3)
    assert words and all(word == clasp for word in words)


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


def test_distinguish_pair_walks_v_only_for_an_st_equivalent_pair(capsys, monkeypatch):
    """W only refines (S, T): `--u 0 1`, which (S, T) separates, builds no
    W-matrix and prints both verdicts, while `--u 1 4`, equivalent under
    (S, T), builds V of u = 1 once, as its conjugate u = 4 needs it."""
    built = []
    real = modular.w_matrix

    def spy(params, *rest):
        built.append(params.u)
        return real(params, *rest)

    monkeypatch.setattr(modular, "w_matrix", spy)
    code, out, _ = run(capsys, ["distinguish", "--u", "0", "1"])
    assert code == 0 and built == []
    assert out == "(S,T)   u=0 vs u=1: NOT-EQUIVALENT\n(S,T,W) u=0 vs u=1: NOT-EQUIVALENT\n"
    code, out, _ = run(capsys, ["distinguish", "--u", "1", "4"])
    assert code == 0 and built == [1]
    assert "(S,T,W) u=1 vs u=4: NOT-EQUIVALENT" in out and "intersection: {}" in out


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


def test_distinguish_builds_one_theory(capsys, monkeypatch):
    """Only u = 1 is walked: u = 0 is placed by the twists, and every
    u >= 2 is derived from u = 1.  V of u = 1 is walked, row by row, only
    where (S, T) leaves a class with more than one member (the
    flagship's {1, 4} and {2, 3}; none at (7, 3, 2)), and the whole
    W-matrix never, as a row decides each (S, T, W) step."""
    built = {}
    for name in ("modular_data", "w_matrix", "_ClaspRows"):
        real = getattr(modular, name)

        def spy(params, *rest, real=real, name=name):
            built[name].append(params.u)
            return real(params, *rest)

        monkeypatch.setattr(modular, name, spy)
    for group, walked_w in (("11", "5", "4"), [1]), (("7", "3", "2"), []):
        built.update(modular_data=[], w_matrix=[], _ClaspRows=[])
        q, p, n = group
        code, out, _ = run(capsys, ["distinguish", "--all", "--q", q, "--p", p, "--n", n])
        assert code == 0
        assert built == {"modular_data": [1], "w_matrix": [], "_ClaspRows": walked_w}
        assert "(S,T,W) classes: " + "  ".join(f"{{u={u}}}" for u in range(int(p))) in out


def _built_theory(spec, u, with_w):
    params = CocycleParams(spec, u)
    wm = modular.w_matrix(params) if with_w else None
    return modular.theory_data(modular.modular_data(params), wm)


@pytest.mark.parametrize("group", [(11, 5, 4), (7, 3, 2), (13, 3, 3)])
def test_distinguish_searches_down_the_divisor_lattice(capsys, monkeypatch, group):
    """`distinguish --all` runs at most sum_r e_r searches for H_ST
    (r^e_r || p - 1), sum_r k_r(ST) for H_STW (|H_ST| = prod r^k_r) and
    one per coset of more than one member, and none for u = 0, which the
    twists place: exactly 3 at the flagship, where a row of V decides
    the one (S, T, W) step before any search.  Every witness it finds maps dims, T and S (and W when
    searched) of the theories it names, each built from its own traces."""
    calls = []
    real = modular.equivalence_search

    def spy(d1, d2):
        found = real(d1, d2)
        calls.append((d1.name, d2.name, d1.w_keys is not None, found))
        return found

    monkeypatch.setattr(modular, "equivalence_search", spy)
    q, p, n = group
    code, out, _ = run(capsys, ["distinguish", "--all", "--q", str(q), "--p", str(p), "--n", str(n)])
    assert code == 0
    partitions = [line.split(":", 1)[1].split("  ") for line in out.splitlines()]
    h_st = len(partitions[0][1].split(","))  # the class of u = 1
    e = sum(_factorize(p - 1).values())
    k = sum(_factorize(h_st).values())
    cosets = sum("," in cls for classes in partitions for cls in classes)
    assert len(calls) <= e + k + cosets
    if group == (11, 5, 4):
        assert len(calls) == 3
    spec = GroupSpec(q, p, n)
    for name1, name2, with_w, found in calls:
        if not found.equivalent:
            continue
        d1, d2 = (_built_theory(spec, int(name[2:]), with_w) for name in (name1, name2))
        perm = np.array(found.permutation)
        grid = np.ix_(perm, perm)
        assert perm[0] == 0 and sorted(perm) == list(range(len(perm)))
        assert np.array_equal(d1.dims, d2.dims[perm])
        assert np.array_equal(d1.t_keys, d2.t_keys[perm])
        assert np.array_equal(d1.values[d1.s_keys], d2.values[d2.s_keys[grid]])
        if with_w:
            assert np.array_equal(d1.values[d1.w_keys], d2.values[d2.w_keys[grid]])


def test_distinguish_at_even_order(capsys):
    code, out, _ = run(capsys, ["distinguish", "--all", "--q", "7", "--p", "2", "--n", "6"])
    assert code == 0
    assert "(S,T) classes  : {u=0}  {u=1}" in out
