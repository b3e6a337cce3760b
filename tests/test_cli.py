import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from schubert_unions import (cli, duality, gf, grassgrid, optimizer, pluecker, twodim,
                             weights)
from schubert_unions.cli import FORMATS, main
from schubert_unions.grassgrid import GrassParams, SchubertUnion, enumerate_ideals

from table_fixtures import DIRECTIONS
from test_optimizer import reference_optimal_unions


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_bytes(monkeypatch, argv):
    """Exit code and stdout bytes of one run, text and --binary writes alike."""
    # a byte stream under a text layer, like the real stdout, so both the
    # text writers and the --binary writer (stdout.buffer) land in `raw`
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(argv)
    stdout.flush()
    return code, raw.getvalue()


def test_enumerate_markdown_deterministic(capsys):
    code1, out1, _ = run_cli(["enumerate", "--l", "2", "--m", "5"], capsys)
    code2, out2, _ = run_cli(["enumerate", "--l", "2", "--m", "5"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("\n") == 16 + 2  # header + rule + 16 rows


def test_enumerate_json_rows(capsys):
    code, out, _ = run_cli(["enumerate", "--l", "2", "--m", "5",
                            "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 16
    assert rows[0]["U"] == "∅"
    by_label = {r["U"]: r for r in rows}
    row = by_label["(2,5)"]
    # polynomials ride as coefficient arrays, lowest degree first
    assert (row["Span"], row["Krull"], row["M_U"], row["Points"],
            row["Maximal"]) == (7, 4, "{3,4}", [1, 1, 2, 2, 1], "Yes")


def test_enumerate_guard_exit_code(capsys):
    code, _out, err = run_cli(["enumerate", "--l", "2", "--m", "12"], capsys)
    assert code == 3
    assert "guard" in err


def test_invalid_params_exit_code(capsys):
    code, _out, err = run_cli(["enumerate", "--l", "5", "--m", "3"], capsys)
    assert code == 2
    assert "error" in err


def test_bad_flag_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--l", "2"])
    assert exc.value.code == 2


def test_malformed_union_exit_code(capsys):
    for bad in ("5", '"abc"', "[[1,2,3]]", "not-json"):
        code, _out, err = run_cli(["dual", "--l", "2", "--m", "7",
                                   "--union", bad], capsys)
        assert code == 2, bad
        assert "error" in err


def test_dual_command(capsys):
    code, out, _ = run_cli(["dual", "--l", "2", "--m", "7",
                            "--union", "[[3,5]]", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dual_maxima"] == [[2, 7], [3, 4]]


def test_encode_command(capsys):
    code, out, _ = run_cli(["encode", "--l", "2", "--m", "7",
                            "--union", "[[1,7],[3,5]]"], capsys)
    assert code == 0
    assert "{2,3,6}" in out
    assert "1<3<5<7" in out
    assert "{1,4,5}" in out
    assert "2<3<4<6" in out


def test_directions_matches_table(capsys):
    code, out, _ = run_cli(["directions", "--l", "2", "--m", "10",
                            "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["directions"] == DIRECTIONS[(2, 10)]


def test_bounds_csv(capsys):
    code, out, _ = run_cli(["bounds", "--l", "2", "--m", "6",
                            "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,J_r,D_r,E_r,Direction"
    assert len(lines) == 1 + 16  # header + r = 0..15
    assert lines[1].startswith("0,")


def test_krull_command(capsys):
    code, out, _ = run_cli(["krull", "--l", "2", "--m", "5",
                            "--K", "7", "--format", "csv"], capsys)
    assert code == 0
    # span 7 reaches Krull dimension 4, first achievable at span C(4) = 6
    assert out.strip().split("\n")[1] == "7,4,6"


def test_genmatrix_text(capsys, tmp_path):
    path = tmp_path / "mat.txt"
    code, _out, _ = run_cli(["genmatrix", "--l", "2", "--m", "4",
                             "--q", "2", "--out", str(path)], capsys)
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 35
    assert all(len(line.split()) == 6 for line in lines)


def test_genmatrix_binary(capsys, tmp_path):
    path = tmp_path / "mat.bin"
    code, _out, _ = run_cli(["genmatrix", "--l", "2", "--m", "4", "--q", "2",
                             "--union", "[[2,3]]", "--binary",
                             "--out", str(path)], capsys)
    assert code == 0
    header, body = path.read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    assert meta["rows"] == 3 and meta["n"] == 7 and meta["union"] == [[2, 3]]
    assert len(body) == 21


# sha256 of stdout, recorded when each Pluecker coordinate was its own
# gf.det elimination
GENMATRIX_GOLDEN = [
    ("--l 2 --m 5 --q 4",
     "9b55663192476f22d4006070d3f8a00e75b2143181a0593a2d5bd5d917d2db25"),
    ("--l 2 --m 4 --q 9",
     "9153aacbfca360d21afabea9e71f522210f1cac15c26f75fd228965aea7cc587"),
    ("--l 3 --m 6 --q 2 --union [[1,5,6],[2,4,6],[3,4,5]]",
     "247ad1cdf283c729655cb97e80025cf09d0bd09bc708573218d0c21fbb95b4cb"),
    ("--l 3 --m 6 --q 2 --union [[1,5,6],[2,4,6],[3,4,5]] --binary",
     "ce0a2256d4d740c2265ad529f1dbb2b56bdb4f3ff473bac080f868ec928735c3"),
    ("--l 2 --m 5 --q 4 --binary",
     "79acf8f17737b986c12e74d7b5ad0b1c3873dc8aeb9cf6c23a9158d1491db1b4"),
    ("--l 2 --m 5 --q 5 --binary",
     "65f0ed924cfd6b74e9679b665cf307a6ac25a62181ea12c0c58854c5f1aff446"),
    # recorded from one gf.maximal_minors expansion per point, for the shapes
    # the last-row walk treats apart: l = 1, a one-slot last row (l = m - 1),
    # many short last rows, and the union's row restriction
    ("--l 1 --m 6 --q 5",
     "190e56ce95090855f385ecc96597aa6ae3a5bc30e67236485caca323bb28edb1"),
    ("--l 3 --m 4 --q 3",
     "fbc218bc62b07605f4c81747667940adf16a3357689f51ddc23b37bfdda2bbeb"),
    ("--l 4 --m 6 --q 2",
     "0bc1485f9c08d51a36e6cd4997b794080536c9c2a25aa79f3968adbeacf171e3"),
    ("--l 2 --m 7 --q 2",
     "dabdda39499e533d3c8edddad13066b0f89dae5d83b7dd1d625997568a8f7ff2"),
    ("--l 2 --m 5 --q 8 --union [[2,5],[3,4]]",
     "322bcd585b52b56e746010294b30a8b0938a6c90e60a5e326829a54cc9958916"),
    ("--l 2 --m 5 --q 9 --union [[1,5],[3,4]] --binary",
     "0481d2404be248c0a5e2ddfffeef237289860f2091c968b11160c467a4e6c585"),
    ("--l 3 --m 5 --q 8 --union [[1,4,5],[2,3,5]]",
     "b12ad4ff0121ee96c6e5f59b60082cd9d5240ed8603f0ca249e03158bebb252f"),
    ("--l 3 --m 5 --q 9 --union [[1,4,5],[2,3,5]] --binary",
     "57d370127e3060f4b3bd50565898ae345749f7b0736bece743f05078547ff04d"),
    # recorded while a union's rows were cut out of full-width vectors: a
    # union far smaller than its grid, and one with two maxima at l = 3
    ("--l 2 --m 1000 --q 2 --union [[1,5]]",
     "045701bc053a2026fd6778bf71f9e29a33119564c894589b71b55289d3681652"),
    ("--l 3 --m 60 --q 3 --union [[1,2,9],[2,4,6]]",
     "d2afa9bbdff69802e83ab3c0fb5eb2bb7a93e3e3d7a99ac7792140bb4f71bf2c"),
    # recorded while rows 1..l-1 were expanded in full per setting: four
    # levels of minors, on a union far below C(m, l-1) and on one over F_3
    ("--l 4 --m 40 --q 2 --union [[1,2,3,9],[2,3,5,7]]",
     "419ad78ce1aeeef23619d04c7f86bb4b1e2583d90572ba36df1157b0375abd01"),
    ("--l 4 --m 7 --q 3 --union [[1,2,6,7],[2,3,4,7]] --binary",
     "acd30673ddc591058e978ada1172ee0697322b64fbc8d5077a831f7f024ec22f"),
    # recorded while columns were int tuples: GF(256), so entries up to 255
    ("--l 1 --m 2 --q 256",
     "d00918ba73e887f4e45b5e98712e3360f936dd64acb34df5d2d26f388f5ace5b"),
    ("--l 2 --m 3 --q 256 --binary",
     "acde2450970f725227de102a0655052472236ed6a926eca47e09466c7f580995"),
    ("--l 2 --m 4 --q 256 --union [[1,4]] --binary",
     "b4c4bc5286477ba5e8572e4ee7ff81afaa9163e53150c75b5ca5ee1cc591c87e"),
    ("--l 2 --m 4 --q 256 --union [[1,4]]",
     "d08c66191f48391c07b22cb84bd79e3d2780e88d0f63ca7266c56f80dd75ef4c"),
    # recorded while the text writer joined one column at a time: entries
    # of two digits, over an extension field and on a union
    ("--l 2 --m 3 --q 27",
     "a82f584ae4c8e6112acf34545824875f766a0c07728609f8a66c748e5c4c78d0"),
    ("--l 2 --m 4 --q 13 --union [[2,4]]",
     "5db6fef9275c94f314e155d2e595b41ab57ec6786f47b6efa7b4b31f6320bb52"),
]


@pytest.mark.parametrize("flags,digest", GENMATRIX_GOLDEN)
def test_genmatrix_golden(monkeypatch, flags, digest):
    code, raw = stdout_bytes(monkeypatch, ["genmatrix", *flags.split()])
    assert code == 0
    assert hashlib.sha256(raw).hexdigest() == digest


def test_weights_json(capsys):
    code, out, _ = run_cli(["weights", "--l", "2", "--m", "4", "--q", "2",
                            "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [r["value"] for r in rows] == [16, 24, 28, 32, 34, 35]


def test_weights_oracle_flag(capsys):
    code, out, _ = run_cli(["weights", "--l", "2", "--m", "4", "--q", "2",
                            "--r-range", "1:3", "--oracle",
                            "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [r["value"] for r in rows] == [16, 24, 28]
    assert all(r["source"] == "Oracle" for r in rows)


def test_weights_union(capsys):
    code, out, _ = run_cli(["weights", "--l", "2", "--m", "5", "--q", "2",
                            "--union", "[[1,5],[2,3]]", "--format", "json"],
                           capsys)
    assert code == 0
    data = json.loads(out)
    assert data["d1"] == 4
    assert data["k"] == 5


def test_weights_union_r_range(capsys):
    code, out, _ = run_cli(["weights", "--l", "2", "--m", "5", "--q", "2",
                            "--union", "[[1,5],[2,3]]", "--r-range", "2:3",
                            "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert [rec["r"] for rec in data["records"]] == [2, 3]
    assert (data["n"], data["k"], data["d1"]) == (19, 5, 4)


def test_experiment_q8(capsys):
    code, out, _ = run_cli(["experiment", "Q8", "--l", "2", "--m", "8"], capsys)
    assert code == 0 and "affirmative" in out
    code, out, _ = run_cli(["experiment", "Q8", "--l", "2", "--m", "10",
                            "--guard", "45"], capsys)
    assert code == 0 and "negative (witness K=22)" in out


def test_experiment_q9(capsys):
    for m in ("8", "9"):
        code, out, _ = run_cli(["experiment", "Q9", "--l", "2", "--m", m],
                               capsys)
        assert code == 0 and "affirmative" in out
    code, out, _ = run_cli(["experiment", "Q9", "--l", "2", "--m", "10"],
                           capsys)
    assert code == 0 and "negative" in out and "22" in out and "24" in out


def test_experiment_q3(capsys):
    code, out, _ = run_cli(["experiment", "Q3", "--l", "2", "--m", "4"], capsys)
    assert code == 0 and "affirmative" in out
    code, out, _ = run_cli(["experiment", "Q3", "--l", "2", "--m", "6"], capsys)
    assert code == 0 and "undetermined" in out


def test_experiment_q4(capsys):
    code, out, _ = run_cli(["experiment", "Q4", "--l", "2", "--m", "4",
                            "--q", "2", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert "affirmative" in data["verdict"]


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"guard": 10, "format": "json"}))
    code, _out, err = run_cli(["enumerate", "--l", "2", "--m", "6",
                               "--config", str(cfg)], capsys)
    assert code == 3  # guard 10 < 15 grid points
    assert "guard" in err


def test_guard_env(capsys, monkeypatch):
    monkeypatch.setenv("SCHUBERT_UNIONS_GUARD", "5")
    code, _out, err = run_cli(["enumerate", "--l", "2", "--m", "5"], capsys)
    assert code == 3
    monkeypatch.setenv("SCHUBERT_UNIONS_GUARD", "28")
    code, out, _ = run_cli(["enumerate", "--l", "2", "--m", "5"], capsys)
    assert code == 0


Q4_GOLDEN = {
    "2": ("Q4 for (2,4): affirmative (for the sections found)\n"
          "  r=1: H_r=19, dual section=1, H_(k-r)=1\n"
          "  r=2: H_r=11, dual section=3, H_(k-r)=3\n"
          "  r=3: H_r=7, dual section=7, H_(k-r)=7\n"
          "  r=4: H_r=3, dual section=11, H_(k-r)=11\n"
          "  r=5: H_r=1, dual section=19, H_(k-r)=19\n"),
    "3": ("Q4 for (2,4): affirmative (for the sections found)\n"
          "  r=1: H_r=49, dual section=1, H_(k-r)=1\n"
          "  r=2: H_r=22, dual section=4, H_(k-r)=4\n"
          "  r=3: H_r=13, dual section=13, H_(k-r)=13\n"
          "  r=4: H_r=4, dual section=22, H_(k-r)=22\n"
          "  r=5: H_r=1, dual section=49, H_(k-r)=49\n"),
}


@pytest.mark.parametrize("q", sorted(Q4_GOLDEN))
def test_experiment_q4_golden(capsys, q):
    # the dual-section counts depend on which maximizing section is found
    code, out, _ = run_cli(["experiment", "Q4", "--l", "2", "--m", "4",
                            "--q", q], capsys)
    assert code == 0
    assert out == Q4_GOLDEN[q]


# sha256 of stdout of `experiment Q4 --l 2 --m 4 --q Q --format F`, recorded
# when the sections came from Field.dot scans and a row-reduced basis
Q4_C24_DIGESTS = [
    ("4", "markdown", "b2cb79d8aafe59fae2083b843094a9dc0dc13f1d6e663dff3bb8f29b349f6246"),
    ("4", "json", "306ae8eb90e243c549726cbc4a8a4ef669f8945ff6dbd29d265765c0c449f491"),
    ("5", "markdown", "e312ecc538da7adb4e7c855e1830dc23b990b599456d0ad95516b36ae2be2a16"),
    ("5", "json", "aad06ddf516d630e99dcf5c576a462f34f994e77adfd05aea41620c2fd61b366"),
]


@pytest.mark.parametrize("q,fmt,digest", Q4_C24_DIGESTS)
def test_experiment_q4_c24_digest(capsys, q, fmt, digest):
    code, out, _ = run_cli(["experiment", "Q4", "--l", "2", "--m", "4",
                            "--q", q, "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout of `weights --l 2 --m 4 --q Q --oracle --format F`,
# recorded when a functional's zero set came from one Field.dot per column
ORACLE_GOLDEN = [
    ("3", "markdown",
     "05aeb2ee3ec9d08667648d96ac5e26df637db9d51c1db72fd2c7106b24834193"),
    ("3", "csv",
     "1c9dcd54f61ce8c79c7f4325e9da5e4c34efd3de07dcc896930cc951470f2fe0"),
    ("3", "json",
     "96801e1868c8257936945b413d9f716df4f069a3e8bdfaf0c3670fd544e859d7"),
    ("4", "markdown",
     "1d27834bb66ad51b3f6589187331bc6a96f024e39eb53f83f94f8ca8d548eb30"),
    ("4", "csv",
     "7914d9d4448c4796786a1914002389cf6c8d22178b708a01e795753144fdb798"),
    ("4", "json",
     "3639c5866bb84c654726c7b7efcebd50477d2f840dfc632fc67cd57a087274a3"),
    ("5", "markdown",
     "1c995f0665d04dceb795baf13ea9dec35ebc678f11214567948ed7411b434778"),
    ("5", "csv",
     "933d08b9e1586a90a94ae149195544ccf81af10470a70f659ec77702f6470400"),
    ("5", "json",
     "45d5acba70faae714eecbc1fb31b833811782eb2bee1293a45c999c683ddebb7"),
]


@pytest.mark.parametrize("q,fmt,digest", ORACLE_GOLDEN)
def test_weights_oracle_golden(capsys, q, fmt, digest):
    code, out, _ = run_cli(["weights", "--l", "2", "--m", "4", "--q", q,
                            "--oracle", "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout of `weights --l 2 --m 5 --q 3 --oracle --r-range 1:4
# --oracle-budget 10^12 --format F`, recorded when every sweep built its own
# oracle state; r = 2..4 end only at the Griesmer cap, whose d_1 now comes
# from the r = 1 sweep that the run shares
ORACLE_C25_F3_GOLDEN = [
    ("markdown", "38adb8877811daf9792e26d7a4b304f5c1e908000bc89030444cac731b34cdc2"),
    ("json", "9d72b82664532574be0855adbcc69e1e875130512b771335b5a90a7fbe58378f"),
]


@pytest.mark.parametrize("fmt,digest", ORACLE_C25_F3_GOLDEN)
def test_weights_oracle_c25_f3_golden(capsys, fmt, digest):
    code, out, _ = run_cli(["weights", "--l", "2", "--m", "5", "--q", "3", "--oracle",
                            "--r-range", "1:4", "--oracle-budget", str(10 ** 12),
                            "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout of `experiment Q4 --l 2 --m 5 --q 2 --oracle-budget
# 200000000 --format F`, recorded when every oracle sweep ran to its end;
# the dual-section counts follow the witness, so the early stop must keep it
Q4_C25_GOLDEN = [
    ("markdown", "65fb51a148f3600ccd53f2861acded4078cd836018e3e7cc7b9a5dd45ab41320"),
    ("json", "f213dbb6fc7312dc9b9493ba8b5ae1a2708f7992675f9e246377026d957953b7"),
]


@pytest.mark.parametrize("fmt,digest", Q4_C25_GOLDEN)
def test_experiment_q4_c25_golden(capsys, fmt, digest):
    code, out, _ = run_cli(["experiment", "Q4", "--l", "2", "--m", "5",
                            "--q", "2", "--oracle-budget", "200000000",
                            "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_experiment_q8_golden(capsys):
    code, out, _ = run_cli(["experiment", "Q8", "--l", "2", "--m", "10",
                            "--guard", "45", "--format", "json"], capsys)
    assert code == 0
    assert out == ('{"question": "Q8", "l": 2, "m": 10, "verdict": '
                   '"negative (witness K=22)", "detail": [22, 23]}\n')


@pytest.mark.parametrize("flags,verdict,detail", [
    ("experiment Q8 --l 3 --m 7 --guard 35", "negative (witness K=17)", [17, 18]),
    ("experiment Q9 --l 3 --m 7 --guard 35", "negative (witness r=[17, 18, 19])", [17, 18, 19]),
    ("experiment Q8 --l 2 --m 10 --guard 45", "negative (witness K=22)", [22, 23]),
    ("experiment Q9 --l 2 --m 10 --guard 45", "negative (witness r=[22, 23, 24])", [22, 23, 24]),
])
def test_experiment_negative_verdicts(capsys, flags, verdict, detail):
    argv = flags.split()
    l, m = argv[3], argv[5]
    assert run_cli(argv, capsys) == (0, f"{argv[1]} for ({l},{m}): {verdict}\n", "")
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0 and json.loads(out) == {"question": argv[1], "l": int(l), "m": int(m),
                                             "verdict": verdict, "detail": detail}


@pytest.mark.parametrize("question", ["Q3", "Q8", "Q9"])
@pytest.mark.parametrize("q,message", [
    ("6", "error: q=6 is not a prime power\n"),
    ("512", "error: q=512 is above 256, the largest supported field\n"),
])
def test_experiment_refuses_bad_q(capsys, question, q, message):
    # the questions that do not read q refuse a bad one as Q4 and weights do
    argv = ["experiment", question, "--l", "2", "--m", "4", "--q", q]
    assert run_cli(argv, capsys) == (2, "", message)


@pytest.mark.parametrize("question", ["Q3", "Q8", "Q9"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_experiment_valid_q_keeps_bytes(capsys, question, fmt):
    argv = ["experiment", question, "--l", "2", "--m", "5", "--format", fmt]
    assert run_cli([*argv, "--q", "4"], capsys) == run_cli(argv, capsys)


def test_missing_config_exit_code(capsys, tmp_path):
    code, out, err = run_cli(["enumerate", "--l", "2", "--m", "5", "--config",
                              str(tmp_path / "missing.json")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["enumerate", "--l", "2", "--m", "4"],
    ["genmatrix", "--l", "2", "--m", "4", "--q", "2", "--binary"],
])
def test_unwritable_out_exit_code(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli([*argv, "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert not target.exists()


def test_config_format_checked(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    code, out, err = run_cli(["krull", "--l", "2", "--m", "5",
                              "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "format" in err


def test_negative_limits_exit_code(capsys, monkeypatch, tmp_path):
    # a negative guard or budget is an invalid argument, not a refused job
    code, _out, err = run_cli(["enumerate", "--l", "2", "--m", "5",
                               "--guard", "-1"], capsys)
    assert code == 2 and "guard" in err
    code, _out, err = run_cli(["weights", "--l", "2", "--m", "4", "--q", "2",
                               "--oracle", "--oracle-budget", "-5"], capsys)
    assert code == 2 and "oracle_budget" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"point_guard": -1}))
    code, _out, err = run_cli(["genmatrix", "--l", "2", "--m", "4", "--q", "2",
                               "--config", str(cfg)], capsys)
    assert code == 2 and "point_guard" in err
    monkeypatch.setenv("SCHUBERT_UNIONS_GUARD", "-3")
    code, _out, err = run_cli(["enumerate", "--l", "2", "--m", "5"], capsys)
    assert code == 2 and "guard" in err


@pytest.mark.parametrize("extra", [
    ["--q", "6"],
    ["--q", "2", "--oracle", "--union", "[[2,4]]"],
    ["--r-range", "0:3"],
    ["--r-range", "5:7"],
    ["--r-range", "4:2"],
    ["--r-range", "7"],
    # the range of a union's code is checked against the union's span, 5 here
    ["--q", "2", "--union", "[[2,4]]", "--r-range", "6"],
    ["--q", "2", "--union", "[[2,4]]", "--r-range", "0:2"],
])
def test_weights_invalid_arguments(capsys, extra):
    code, out, err = run_cli(["weights", "--l", "2", "--m", "4", *extra], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["experiment", "Q4", "--l", "2", "--m", "5", "--q", "2",
     "--oracle-budget", "100000000"],
    ["weights", "--l", "2", "--m", "5", "--q", "2", "--oracle", "--r-range", "1:4"],
])
def test_budget_checked_before_any_sweep(capsys, monkeypatch, argv):
    def no_sweep(*args):
        raise AssertionError("swept before checking the budget")
    monkeypatch.setattr(weights, "_sweep", no_sweep)
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert "budget" in err


@pytest.mark.parametrize("argv,needs", [
    (["experiment", "Q4", "--l", "2", "--m", "5", "--q", "2",
      "--oracle-budget", "100000000"], "r=5 sweep needs 109221651 subspaces"),
    (["weights", "--l", "2", "--m", "5", "--q", "2", "--oracle", "--r-range", "1:4"],
     "r=4 sweep needs 53743987 subspaces"),
])
def test_budget_refusal_names_r(capsys, argv, needs):
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert needs in err


# sha256 of stdout in markdown, csv and json (in FORMATS order), recorded
# while genmatrix had its own output branch, the weights command two row
# builders and the dual JSON a report object of its own
CLI_GOLDEN = {
    "enumerate --l 2 --m 5": (
        "a02d73b3a0774f2baae6b0c6acf998ca4592b92aa09b1e029891a713a3cb5d61",
        "d481cb55ae36eb5d239f4dff0973fc6f586367c7a491b6d896ecb95972680fb9",
        "0026bf8e449c78c0eac95925c0effdcbda976ae2d5b307a44c619276be981122",
    ),
    "enumerate --l 3 --m 6": (
        "3160c4f65c02d8cb0a7fcf0a04d06103837e52a72dc90571838ca7d20b281295",
        "f7a716e503c01013045a8040f29806899cb9660dc799b6ac709bd40f82289da6",
        "092cced86bccdfc12ddea1cb8432ab64390f9369dacb65cc77b7bb2b40fe0cd5",
    ),
    "dual --l 2 --m 7 --union [[1,7],[3,5]]": (
        "8ae84b1ccd19150637c55bf195fe900e372cf4a9410a67a4b1466be316e95b80",
        "d868cc873e6e3e45735ec143f1a6eff7d0a690c5d863c09c137f5910d8ac2293",
        "3f202e7f8710ad2f13f3c37bf99630fb47e14f678578a549c6918eac15184c08",
    ),
    "dual --l 3 --m 7 --union [[1,5,6],[2,4,7]]": (
        "f661172d6fa6e7f5d69b140bdd0a0a29d4912cad8c67257bbe164ac07efc22cc",
        "4eb64e3b306291622562cad47372fc88545dd9d2a65daa711f4178cf52a1fb73",
        "cdd13c4a49f41f56de0ffacb02203a5023fb793537960cff4af91fed70281d83",
    ),
    "encode --l 2 --m 7 --union [[1,7],[3,5]]": (
        "948e18438d68582176f87be67fc34adea24c5808a8118e2aedf19bc2d24aacad",
        "6bbf44b52ed6ffa4bd99b6fe7a9654fbd75260f8575c0c6b7ddb21a78ae828df",
        "6f15e1e271037aac5b0be5872912c77ed291e7aa0bbff60dfdbe206d27764c1b",
    ),
    "bounds --l 2 --m 6": (
        "ffabb7f00e2c23643a2619953d9ec83b68b77422b838edc41efcf8c112c3fd90",
        "207c6a8c03f5b493fc4e4beb64c158bfcc4522a4b4f3ce0b719d0d484f8fbdad",
        "8380b3f0d180ac4774fd8257bbf2449171f34c4ab4d7a62c2e9204c27d4cdff6",
    ),
    "bounds --l 3 --m 6": (
        "fe5cc5e419bb5a93dc27d62328bda0a2a7b2a6a1f7748e26aeb28182e3364046",
        "37322693f26f334e57c426838606fb622f34c30723e26513cbbf53820eb99a17",
        "3f2d935e063883178f9fd4db4c45b68de764f5f1c9a500a17c4ee659b160e7f3",
    ),
    "directions --l 2 --m 10": (
        "47d5efd2eac322a053b4ec7a355cf06c5bfc2ff9b1c07de971897decc0ef388d",
        "28343895e931b846c60e327d70229ee4454233e1312f831b17f48d92a3b0af9b",
        "3de59c5cd4b1880a0559ae1af0bbf74ae3ca2941a320c6e1ec11ef1e5545eecb",
    ),
    "krull --l 2 --m 8": (
        "fceb6b4829926a083ac8613e372f022ccc4e5ce3e517a4d0925273a59a185d45",
        "ccc292eb3236fdf3a905d24e7e68175e242406d80d92cfdc863390bb003ae423",
        "74b638c30fc62d5ff58476cbd05ae7c4ec6dbb4ec9238da7300ab77ae9904a4b",
    ),
    "krull --l 2 --m 8 --K 12": (
        "d2e06f97a2f986f96ce7ae5a4c98dde22d9a9c498f597af5114fa7855020c851",
        "30594d5f943062a1e2b32d5c358f080ae4d1451fe0212cef02fa294a1eb983bc",
        "2f085563f4fd8d4b41ec2cf86873cfac5bf77cbca645680baa90672e178bef8a",
    ),
    "weights --l 2 --m 6 --q 3": (
        "76e3d88566a2f80f9261465472137c29b535dfd37bd2edd8aebb8f8b25163237",
        "577ec7cb970cfb329c850c10e9e8367a9d25154ae5df58dd260138a024debfaf",
        "5bbbb1e17e9c887c622ad2865160612a3e6e649be6ea13a27b5a14f98a79475a",
    ),
    "weights --l 2 --m 5 --q 2 --union [[1,5],[2,3]]": (
        "62b25ac2588f084c64ceafd7429f534e4623b63bfcefc4f78aa62c2cf836d5c1",
        "be1af4fcd134ce4d7d6e9a26a1106e3ac7ffc03193124bebd38dc9b540d63b18",
        "62e5c6c6527033398da0a9e52d84a9836fce8608cadc39ff4e8a12c535217291",
    ),
    "weights --l 2 --m 5 --q 2 --union [[1,5],[2,3]] --r-range 2:3": (
        "f86e8146372c9a5c96049640e9188ef81479a2e066fba46dbeab05a5ddbfa1fa",
        "4002af8446cdaa9db336dfa4e15af9618a12bdd204dd155c670146601be29973",
        "9003c420955ef4f655c952a68b87590408096b9738c933c3ce664402306eb59e",
    ),
    "experiment Q3 --l 2 --m 4": (
        "5c4301f9040495049b5050b0f8f5500af476e9efccf2c3405baf3f92c7891fce",
        "5c4301f9040495049b5050b0f8f5500af476e9efccf2c3405baf3f92c7891fce",
        "754385683b1a06b975a390e3d59a25b003a9ba3734ff71dc776954e4783d9af2",
    ),
    "experiment Q8 --l 2 --m 8": (
        "8d999b36a530f5b1924556993d399bc47f88ace7c2919ff63be31be456c0851c",
        "8d999b36a530f5b1924556993d399bc47f88ace7c2919ff63be31be456c0851c",
        "5e22c8c3637fb2914f35dcc8021c78dc4dd1695e7d3babf96d5fa1a9a3c010d3",
    ),
    "experiment Q9 --l 2 --m 10": (
        "4fac0f07f8d99b0e1bb0d4ffceb54a9e7867400303cd83f688931e4a578ccf67",
        "4fac0f07f8d99b0e1bb0d4ffceb54a9e7867400303cd83f688931e4a578ccf67",
        "f952048d677b811b27a7ab2de4ea6d709f833adf10c634ece89582f375318e01",
    ),
    # symbolic weights (no --q), recorded while GF(q) had a fixed prime list
    "weights --l 2 --m 6": (
        "0a11470152de7b2e2a339347c05f3ff369875ef163e3cfcd24b91082cd4f19a5",
        "bf08c5ba2e1a521e959f453cbfba2e6180e877cb3d7e22fd207cfb934e249270",
        "c6f3ee721d227ed2653b5000fd1a68136c30a667ef3967cf7f05eb1186e720db",
    ),
    "weights --l 3 --m 6": (
        "e3d259cbbb3852ee5f48839231644f6fc7a7da2cb89738d387d12882730da707",
        "dd62421e076e5938c6055431d7bbeb49827c75db3b72db0c3e91831fb672aa3f",
        "3c2c0c5948e7b1f65044405fcafbf8c4a84c102815092c76c9150566d758baf8",
    ),
    # exhaustive enumerations past G(3,6), recorded while down_sets was a
    # recursive generator and each union rebuilt its maxima and g_U(q)
    "enumerate --l 3 --m 8 --guard 56": (
        "e1134dedfafb491fd32a258f433bc6bb5f83128b77042e199cccbfa3eb4fed8b",
        "98b547f1aa24a4467b57787ae7b89a960062e1a58e01b0fbc4e87ce7836ed217",
        "d25c64f1e0769518988286b65e45fc87befb0c9904046f4b2f28511ddd3c8aac",
    ),
    "enumerate --l 2 --m 10 --guard 45": (
        "fcecb9cb5b91739b461d3c0ef57116c522ca3e23fef61d3b719c3ca1042a8755",
        "c17c7012b7877120c50c0c2af9e1c1adf2b14159fa041bb1a2ff9ad6044e7cf8",
        "9c54238008920a82f255a9ae96a0122efd3046d38a3f75df09dca8bd32dd9403",
    ),
    "experiment Q8 --l 2 --m 11 --guard 55": (
        "d9c32a7b4924b3d08b289521b1de250dcd6b4e55fa485dc914f8cbc0762d679e",
        "d9c32a7b4924b3d08b289521b1de250dcd6b4e55fa485dc914f8cbc0762d679e",
        "39627419d7626d5a0916f1b878225fd2758f1c101647bf0419ca4563bdcb92b4",
    ),
    "bounds --l 4 --m 8 --guard 70": (
        "83cd2f6ed6e2cf3ac7e3e9a8376afa3f197371ec26980fbfe81ce5b417a97264",
        "b2c783ab0df722d6ea61cc650bd54817bd7c600c984a47fb6730f5b4ae88ffa1",
        "45b53437cf9a2f6918196b76ea2bbd96ca7738046cd952d15e610ef4cd6d7ed9",
    ),
    # recorded while each enumerate row was a union sorted on Poly.lex_key():
    # l = 1, l = 4, and spans with many tied codes
    "enumerate --l 3 --m 7 --guard 35": (
        "f27083d2212b847a53bb2dd523eef5f6c5a45c4de0620f266b8c0f1afd6e821f",
        "5e5c46697948e104fadb71e269fd09644a125660587484b6cfb74e45b00d0a58",
        "9f2a1fccb0a3487b98a2affaeada37afb84135c3176fd86b42f858ea3e00fb5a",
    ),
    "enumerate --l 4 --m 8 --guard 70": (
        "e3ae7b9f7a0ffb7f47a01d670300f4b98a3b1703bea19ce1b6e211a788d06593",
        "dbc6c6967e8d4d901f26b6bc6dc818b5a12a5624b44715cf5ad949c6eacf51c0",
        "546f08632355e54756f5c6910de166bacf661fb36ad4dcb0ce8cc5c9f9d777f5",
    ),
    "enumerate --l 1 --m 6": (
        "a31cb913f116b8f8ba0156322135251d694901a95f7a0a2b6819d064ed88203f",
        "8c638dfeeb6be6bf6c9badca0e66bf4e8761b076764c8c14d0790adaefbc5cd8",
        "6a455e40bb5cbe170dc1a05c1620644b8a288c609e9347fbac3e340ef0d8bd18",
    ),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("flags", list(CLI_GOLDEN))
def test_cli_golden(capsys, flags, fmt):
    code, out, _ = run_cli([*flags.split(), "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        CLI_GOLDEN[flags][FORMATS.index(fmt)]


# sha256 of stdout in markdown, csv and json (in FORMATS order), recorded
# while every polynomial cell was a decoded Poly's str() or to_list(); the
# l=2 tables past the benchmark replay's G(2,28), and the exhaustive tables
TABLE_GOLDEN = {
    "bounds --l 2 --m 100": (
        "023a1bdcfdcaa549a1a73a86232ad03b12afb9f1c4fec4d102f4f58fe47dcb53",
        "b1de7b412207d68cd6486f6218b875b1707fed3a25f252d45e13d770f58f0963",
        "88df5855d8045bd5123e31f233ee8bbaaec2a9fc3472ac53654a6b8c1578ad66",
    ),
    "bounds --l 3 --m 9 --guard 100": (
        "c23602d8b9262c2c8c9e1f3ae71a05419e8d795223c650faeff604fac9266577",
        "bb2b7c9e9f6a06c7240a69d9cc339002eb0f19fbdc300a8e68f9dc9cc803e74c",
        "236891b3d1aa6304c3c640afd535e798e9d7ae102539f9b04a46eae282256742",
    ),
    "bounds --l 4 --m 8 --guard 70": (
        "83cd2f6ed6e2cf3ac7e3e9a8376afa3f197371ec26980fbfe81ce5b417a97264",
        "b2c783ab0df722d6ea61cc650bd54817bd7c600c984a47fb6730f5b4ae88ffa1",
        "45b53437cf9a2f6918196b76ea2bbd96ca7738046cd952d15e610ef4cd6d7ed9",
    ),
    "enumerate --l 4 --m 8 --guard 70": (
        "e3ae7b9f7a0ffb7f47a01d670300f4b98a3b1703bea19ce1b6e211a788d06593",
        "dbc6c6967e8d4d901f26b6bc6dc818b5a12a5624b44715cf5ad949c6eacf51c0",
        "546f08632355e54756f5c6910de166bacf661fb36ad4dcb0ce8cc5c9f9d777f5",
    ),
}
# the same, over the stdout of `bounds --l 2 --m M` for M = 29..60 in turn
L2_BOUNDS_29_60 = (
    "2152c6f16ef994bf838a98be1895f0cc86fcb70109ca6e4d8172800bcf04bfb1",
    "0d70b8133b2f6ebfa110aa47896ca64fe60f3f99206a1f95a38fc44ab3c32587",
    "34b54c0909685f57f7bc9feb609625185e07fb82a2d174faf028532cec54d72e",
)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("flags", list(TABLE_GOLDEN))
def test_table_golden(monkeypatch, flags, fmt):
    code, raw = stdout_bytes(monkeypatch, [*flags.split(), "--format", fmt])
    assert code == 0
    assert hashlib.sha256(raw).hexdigest() == TABLE_GOLDEN[flags][FORMATS.index(fmt)]


@pytest.mark.parametrize("fmt", FORMATS)
def test_l2_bounds_golden_past_replay(monkeypatch, fmt):
    digest = hashlib.sha256()
    for m in range(29, 61):
        code, raw = stdout_bytes(monkeypatch, ["bounds", "--l", "2", "--m", str(m),
                                               "--format", fmt])
        assert code == 0
        digest.update(raw)
    assert digest.hexdigest() == L2_BOUNDS_29_60[FORMATS.index(fmt)]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("flags", [
    "bounds --l 2 --m 12", "bounds --l 3 --m 6", "enumerate --l 2 --m 6",
    "enumerate --l 3 --m 6", "experiment Q8 --l 2 --m 7", "experiment Q9 --l 2 --m 12",
    "experiment Q8 --l 3 --m 6", "experiment Q9 --l 3 --m 6",
])
def test_tables_build_no_poly(capsys, monkeypatch, flags, fmt):
    # the tables are written from codes: a Poly on their path fails here
    argv = [*flags.split(), "--format", fmt]
    want = run_cli(argv, capsys)

    def refuse(self, coeffs=()):
        raise AssertionError("a Poly was built")
    monkeypatch.setattr(grassgrid.Poly, "__init__", refuse)
    assert want[0] == 0 and run_cli(argv, capsys) == want


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("flags", [
    "weights --l 2 --m 12", "weights --l 2 --m 12 --q 3",
    "weights --l 3 --m 6 --guard 20", "weights --l 3 --m 6 --guard 20 --q 3",
])
def test_weights_reads_bound_codes(capsys, monkeypatch, flags, fmt):
    # `weights` reads D from the table's codes: its BoundRows are never built
    argv = [*flags.split(), "--format", fmt]
    want = run_cli(argv, capsys)

    def refuse(self):
        raise AssertionError("a BoundRow was read")
    monkeypatch.setattr(optimizer.BoundTable, "rows", property(refuse))
    assert want[0] == 0 and run_cli(argv, capsys) == want


@pytest.mark.parametrize("argv", [
    ["enumerate", "--l", "2", "--m", "5"],
    ["weights", "--l", "2", "--m", "5", "--q", "2", "--union", "[[1,5],[2,3]]",
     "--format", "csv"],
    ["genmatrix", "--l", "2", "--m", "4", "--q", "3"],
    ["genmatrix", "--l", "2", "--m", "4", "--q", "3", "--union", "[[2,4]]", "--binary"],
])
def test_out_writes_stdout_bytes(monkeypatch, tmp_path, argv):
    code, raw = stdout_bytes(monkeypatch, argv)
    path = tmp_path / "out"
    assert code == 0 and main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() == raw


OLD_OUT = b"an earlier run's output, longer than the new one\n" * 400


@pytest.mark.parametrize("argv,expected", [
    (["enumerate", "--l", "0", "--m", "4"], 2),
    (["genmatrix", "--l", "2", "--m", "4", "--q", "6"], 2),
    (["enumerate", "--l", "3", "--m", "7"], 3),
])
def test_refused_command_keeps_out_file(capsys, monkeypatch, tmp_path, argv, expected):
    monkeypatch.delenv(cli.GUARD_ENV, raising=False)
    path = tmp_path / "out"
    path.write_bytes(OLD_OUT)
    code, out, err = run_cli([*argv, "--out", str(path)], capsys)
    assert (code, out) == (expected, "") and err.startswith("error: ")
    assert path.read_bytes() == OLD_OUT


@pytest.mark.parametrize("argv", [
    ["bounds", "--l", "2", "--m", "5"],
    ["genmatrix", "--l", "2", "--m", "4", "--q", "3", "--union", "[[2,4]]", "--binary"],
    ["genmatrix", "--l", "2", "--m", "4", "--q", "2", "--union", "[]"],
])
def test_out_file_cut_to_new_output(monkeypatch, tmp_path, argv):
    # written over an existing, longer file, which keeps none of its old bytes
    code, raw = stdout_bytes(monkeypatch, argv)
    assert code == 0 and len(raw) < len(OLD_OUT)
    path = tmp_path / "out"
    path.write_bytes(OLD_OUT)
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() == raw


def test_out_to_null_device(capsys):
    # ftruncate fails on a device: only a regular file is cut
    assert run_cli(["bounds", "--l", "2", "--m", "5", "--out", os.devnull], capsys) == \
        (0, "", "")


def test_weights_oracle_ignores_ideal_guard(capsys, monkeypatch):
    # the oracle sweeps the generator matrix; G(3,7) has 35 grid points, over
    # the default ideal guard, but the oracle enumerates no ideals
    def no_table(*args):
        raise AssertionError("weights --oracle built the bound table")
    monkeypatch.setattr(weights, "weight_table", no_table)
    monkeypatch.delenv("SCHUBERT_UNIONS_GUARD", raising=False)
    code, out, err = run_cli(["weights", "--l", "3", "--m", "7", "--q", "2",
                              "--oracle", "--r-range", "35:35", "--format", "json"],
                             capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == [{"r": 35, "source": "Oracle", "value": 11811}]


def test_weights_guard_before_grand_total(capsys, monkeypatch):
    # the ideal guard refuses before the tail formulas need the whole grid's g
    def refuse(params):
        raise AssertionError("grand_total called")
    monkeypatch.setattr(weights, "grand_total", refuse)
    monkeypatch.delenv("SCHUBERT_UNIONS_GUARD", raising=False)
    assert run_cli(["weights", "--l", "3", "--m", "300"], capsys) == \
        (3, "", "error: grid has 4455100 points, guard is 28\n")


def reference_enumerate(params, fmt):
    """The enumerate table from each union's own methods, sorted on Poly keys."""
    # rebuilt from the maxima, so span and g_U count the closed point set
    unions = [SchubertUnion(params, u.maxima) for u in enumerate_ideals(params, params.k)]
    unions.sort(key=lambda u: (u.span(), u.point_count().lex_key(), u.maxima))
    best = {u.span(): u.point_count() for u in unions}
    rows = []
    for u in unions:
        g = u.point_count()
        m_u = (cli._mset_str(twodim.union_to_mset(u).elements),) if params.l == 2 else ()
        # JSON carries a polynomial as its coefficient list
        rows.append((u.label(), u.span(), u.krull(), *m_u, g.to_list() if fmt == "json" else g,
                     "Yes" if g == best[u.span()] else "No"))
    headers = ["U", "Span", "Krull", "M_U", "Points", "Maximal"] if params.l == 2 \
        else ["U", "Span", "Krull", "Points", "Maximal"]
    out = io.StringIO()
    cli._emit_table(headers, rows, fmt, out)
    return out.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
def test_enumerate_matches_reference_table(capsys, fmt):
    grids = [GrassParams(l, m) for m in range(2, 36) for l in range(1, m)
             if GrassParams(l, m).k <= 35]
    for params in grids:
        argv = ["enumerate", "--l", str(params.l), "--m", str(params.m),
                "--guard", "35", "--format", fmt]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out == reference_enumerate(params, fmt), params


def test_dual_json_closes_one_ideal(capsys, monkeypatch):
    # the dual's span is read off U's, as binomial(m, l) - span(U)
    calls = []
    closure = grassgrid.down_closure
    counted = lambda points: calls.append(1) or closure(points)  # noqa: E731
    for module in (grassgrid, duality):
        if hasattr(module, "down_closure"):
            monkeypatch.setattr(module, "down_closure", counted)
    code, out, _ = run_cli(["dual", "--l", "3", "--m", "7", "--union", "[[1,5,6],[2,4,7]]",
                            "--format", "json"], capsys)
    data = json.loads(out)
    assert code == 0 and len(calls) <= 1
    assert (data["span_primal"], data["span_dual"]) == (20, 15)


def test_dual_builds_no_grid(capsys, monkeypatch):
    # H_U's least points come from the upper covers of G_U: G(4,200) has
    # 64,684,950 grid points, and none is listed
    def refuse(params):
        raise AssertionError("full_grid called")
    monkeypatch.setattr(grassgrid, "full_grid", refuse)
    argv = ["dual", "--l", "4", "--m", "200", "--union", "[[1,2,3,4]]"]
    code, out, err = run_cli([*argv, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["dual_maxima"] == [[196, 198, 199, 200]]
    for fmt in ("markdown", "csv"):
        code, out, err = run_cli([*argv, "--format", fmt], capsys)
        row = list(csv.reader(out.splitlines()))[-1] if fmt == "csv" else \
            [cell.strip() for cell in out.splitlines()[-1].split("|")[1:-1]]
        assert (code, err) == (0, "")
        assert row[1] == row[2] == "(196,198,199,200)"


def test_experiment_q8_closes_no_dual(capsys, monkeypatch):
    # the duals' point counts are read off the bound table, so no union's
    # ideal is closed
    calls = []
    closure = grassgrid.down_closure
    monkeypatch.setattr(grassgrid, "down_closure",
                        lambda points: calls.append(1) or closure(points))
    code, out, _ = run_cli(["experiment", "Q8", "--l", "2", "--m", "8"], capsys)
    assert (code, out) == (0, "Q8 for (2,8): affirmative\n")
    assert calls == []


def reference_q8(params):
    """experiment_q8 as it was before it read the bound table: every union of
    largest g_U, dualised and looked up among the maximisers of the dual span."""
    best = reference_optimal_unions(params, guard=params.k)
    witnesses = [K for K in sorted(best)
                 if any(duality.dual_union(u) not in best[params.k - K][1] for u in best[K][1])]
    if not witnesses:
        return "affirmative", []
    return f"negative (witness K={witnesses[0]})", witnesses


def test_experiment_q8_matches_union_reference():
    grids = [GrassParams(l, m) for m in range(2, 46) for l in range(1, m) if comb(m, l) <= 45]
    for params in grids:
        assert cli.experiment_q8(params, 45) == reference_q8(params), params


def encoded_dual(out, fmt):
    """The `dual` field of an `encode` table."""
    if fmt == "json":
        return json.loads(out)[-1]["value"]
    last = out.splitlines()[-1]
    return next(csv.reader([last]))[1] if fmt == "csv" else last.split("|")[2].strip()


@pytest.mark.parametrize("fmt", FORMATS)
def test_encode_closes_no_ideal(capsys, monkeypatch, fmt):
    # the dual comes from the complement M-set, not from H_U
    unions = [*enumerate_ideals(GrassParams(2, 7)),
              SchubertUnion(GrassParams(2, 30), [(1, 30), (5, 20), (12, 14)])]
    duals = [duality.dual_union(u).label() for u in unions]

    def refuse(*args):
        raise AssertionError("down_closure called")

    for module in (grassgrid, duality):
        if hasattr(module, "down_closure"):
            monkeypatch.setattr(module, "down_closure", refuse)
    for u, dual in zip(unions, duals):
        argv = ["encode", "--l", "2", "--m", str(u.params.m),
                "--union", json.dumps([list(a) for a in u.maxima]), "--format", fmt]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and encoded_dual(out, fmt) == dual, u


def test_directions_refuses_l3(capsys):
    # optimizer.directions refuses l != 2, as encode and krull do
    code, out, err = run_cli(["directions", "--l", "3", "--m", "6"], capsys)
    assert (code, out, err) == (2, "", "error: l = 3, need l = 2\n")


def test_weights_oracle_needs_q(capsys):
    code, out, err = run_cli(["weights", "--l", "2", "--m", "4", "--oracle"], capsys)
    assert (code, out, err) == (2, "", "error: --oracle needs --q\n")


def test_dual_json_skips_explicit_dual(capsys, monkeypatch):
    # the fold is the one dual: it runs once in every format, json included,
    # and the text formats print it in both dual columns
    calls = []
    explicit = duality.dual_union_explicit
    monkeypatch.setattr(duality, "dual_union_explicit",
                        lambda u: calls.append(u) or explicit(u))
    argv = ["dual", "--l", "2", "--m", "7", "--union", "[[3,5]]"]
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["dual_maxima"] == [[2, 7], [3, 4]]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and len(calls) == 2
    assert "(2,7) ∪ (3,4)" in out


# sha256 of stdout of `dual` on one maximum whose G_U has 4,455,100 points
# (the whole of G(3,300)) and on one whose G_U has 5,418,435, recorded when
# json walked G_U and the text formats walked it beside the fold
DUAL_FROM_THE_MAXIMA = [
    ("--l 3 --m 300 --union [[298,299,300]]", "json",
     "84b573a9e3f0f8814e40bc65c542cc662ae3a4cfdc7901870cfb96541c5daad6"),
    ("--l 3 --m 300 --union [[298,299,300]]", "markdown",
     "60952d085ca8c3a2917adacb36837667b71b3f37c9967e647776005893c77821"),
    ("--l 3 --m 300 --union [[298,299,300]]", "csv",
     "3a07a5186ea8c5832234a7f3bd198abd74c9ae48c27dfbb21c28d11c88296a0e"),
    ("--l 5 --m 60 --union [[50,52,55,58,60]]", "json",
     "9f9a8d15d0a8a2a88ca840b0293d3bdb8e5a33f4ebfe34d2fe16eb3068594863"),
    ("--l 5 --m 60 --union [[50,52,55,58,60]]", "markdown",
     "4d81214947b3d241e2f25e8433c28a9bd93759e6c205fdd89b3b98b73404c8ff"),
    ("--l 5 --m 60 --union [[50,52,55,58,60]]", "csv",
     "dad7fdea40e4ef93b0ef497d3306613886af05a76744c6899b8f9ddc9ed61bd8"),
]


@pytest.mark.parametrize("flags,fmt,digest", DUAL_FROM_THE_MAXIMA,
                         ids=[f"{flags}-{fmt}" for flags, fmt, _ in DUAL_FROM_THE_MAXIMA])
def test_dual_builds_no_point_set(monkeypatch, flags, fmt, digest):
    def refuse(*args):
        raise AssertionError("G_U built")

    monkeypatch.setattr(grassgrid, "down_closure", refuse)
    monkeypatch.setattr(duality, "dual_union", refuse)
    code, raw = stdout_bytes(monkeypatch, ["dual", *flags.split(), "--format", fmt])
    assert code == 0
    assert hashlib.sha256(raw).hexdigest() == digest


def test_dual_markdown_with_40_maxima_matches_json(capsys):
    # the explicit dual folds in 40 maxima, where 2^40 assignments would not end
    maxima = [[i, 100 - i - i // 3] for i in range(1, 41)]
    argv = ["dual", "--l", "2", "--m", "100", "--union", json.dumps(maxima)]
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0 and len(json.loads(out)["maxima"]) == 40
    label = " ∪ ".join("(" + ",".join(map(str, a)) + ")" for a in json.loads(out)["dual_maxima"])
    code, out, _ = run_cli(argv, capsys)
    row = [cell.strip() for cell in out.splitlines()[-1].split("|")]
    assert code == 0 and row[2] == row[3] == label


def test_parser_built_once(capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        bad = ["krull", "--l", "2", "--m", "6", "--nope"]
        with pytest.raises(SystemExit) as first:
            main(bad)
        err = capsys.readouterr().err
        assert run_cli(["krull", "--l", "2", "--m", "6"], capsys)[0] == 0
        with pytest.raises(SystemExit) as again:
            main(bad)
        # the kept parser prints the usage and error bytes of a fresh one
        assert first.value.code == again.value.code == 2
        assert capsys.readouterr().err == err
        with pytest.raises(SystemExit):
            build().parse_args(bad)
        assert capsys.readouterr().err == err
        assert builds == [1]
    finally:
        cli._parser.cache_clear()


# each subcommand takes only the flags its handler can read
SUBCOMMAND_OPTIONS = {
    "enumerate": ("--l", "--m", "--format", "--out", "--guard", "--config"),
    "dual": ("--l", "--m", "--format", "--out", "--config", "--union"),
    "encode": ("--l", "--m", "--format", "--out", "--config", "--union"),
    "bounds": ("--l", "--m", "--format", "--out", "--guard", "--config"),
    "directions": ("--l", "--m", "--format", "--out", "--config"),
    "krull": ("--l", "--m", "--format", "--out", "--config", "--K"),
    "genmatrix": ("--l", "--m", "--q", "--out", "--config", "--union", "--binary",
                  "--point-guard"),
    "weights": ("--l", "--m", "--q", "--format", "--out", "--guard", "--config",
                "--union", "--r-range", "--oracle", "--oracle-budget", "--point-guard"),
    "experiment": ("--l", "--m", "--q", "--format", "--out", "--guard", "--config",
                   "--oracle-budget", "--point-guard"),
}


def subcommand_options():
    """Each subparser's option strings, in the order it declares them."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: tuple(flag for action in parser._actions for flag in action.option_strings
                        if flag not in ("-h", "--help"))
            for name, parser in sub.choices.items()}


def test_subcommand_options_pinned():
    assert subcommand_options() == SUBCOMMAND_OPTIONS
    # with experiment's question, 65 settable values over the nine subcommands
    assert sum(map(len, SUBCOMMAND_OPTIONS.values())) + 1 == 65


REMOVED_FLAGS = [
    ["dual", "--l", "2", "--m", "5", "--union", "[[2,5]]", "--guard", "3"],
    ["encode", "--l", "2", "--m", "5", "--union", "[[2,5]]", "--guard", "3"],
    ["directions", "--l", "2", "--m", "5", "--guard", "3"],
    ["krull", "--l", "2", "--m", "5", "--guard", "3"],
    ["genmatrix", "--l", "2", "--m", "4", "--q", "2", "--guard", "3"],
    ["genmatrix", "--l", "2", "--m", "4", "--q", "2", "--format", "json"],
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS,
                         ids=[f"{argv[0]}{argv[-2]}" for argv in REMOVED_FLAGS])
def test_unread_flag_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


UNGUARDED = [
    ["dual", "--l", "2", "--m", "7", "--union", "[[3,5]]"],
    ["encode", "--l", "2", "--m", "7", "--union", "[[1,7],[3,5]]"],
    ["directions", "--l", "2", "--m", "10"],
    ["krull", "--l", "2", "--m", "8", "--K", "12"],
    ["genmatrix", "--l", "2", "--m", "4", "--q", "2"],
]


@pytest.mark.parametrize("argv", UNGUARDED, ids=[argv[0] for argv in UNGUARDED])
def test_settings_without_their_flag_unread(monkeypatch, tmp_path, argv):
    # neither the variable nor a config key is read for a flag the command lacks
    monkeypatch.delenv(cli.GUARD_ENV, raising=False)
    expected = stdout_bytes(monkeypatch, argv)
    assert expected[0] == 0 and expected[1]
    monkeypatch.setenv(cli.GUARD_ENV, "abc")
    assert stdout_bytes(monkeypatch, argv) == expected
    monkeypatch.delenv(cli.GUARD_ENV)
    keys = [{"guard": True}] + ([{"format": "xml"}] if argv[0] == "genmatrix" else [])
    for i, key in enumerate(keys):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(key))
        assert stdout_bytes(monkeypatch, [*argv, "--config", str(cfg)]) == expected


@pytest.mark.parametrize("fmt", FORMATS)
def test_boolean_coordinates_rejected(capsys, fmt):
    code, out, err = run_cli(["dual", "--l", "2", "--m", "5", "--union",
                              "[[true,2]]", "--format", fmt], capsys)
    assert (code, out) == (2, "")
    assert "non-integer entries" in err


@pytest.mark.parametrize("command", ["dual", "encode", "genmatrix", "weights"])
@pytest.mark.parametrize("union", ["{}", "[1]", "[[1,5],3]", "null"])
def test_union_must_be_a_list_of_points(capsys, command, union):
    q = [] if command in ("dual", "encode") else ["--q", "2"]
    code, out, err = run_cli([command, "--l", "2", "--m", "5", *q,
                              "--union", union], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: --union must be a JSON list of points")


def test_empty_union_is_valid(capsys):
    code, out, err = run_cli(["genmatrix", "--l", "2", "--m", "5", "--q", "2",
                              "--union", "[]"], capsys)
    assert (code, out, err) == (0, "", "")


# stderr of refusals, recorded while GF(q) had a fixed prime list
REFUSALS = [
    (["weights", "--l", "2", "--m", "4", "--q", "6"], 2,
     "error: q=6 is not a prime power\n"),
    (["dual", "--l", "2", "--m", "5", "--union", "{}"], 2,
     "error: --union must be a JSON list of points such as [[3,5]], got {}\n"),
    (["enumerate", "--l", "3", "--m", "7"], 3,
     "error: grid has 35 points, guard is 28\n"),
    (["weights", "--l", "2", "--m", "5", "--q", "2", "--oracle", "--r-range", "1:4"], 3,
     "error: r=4 sweep needs 53743987 subspaces, budget is 20000000\n"),
    # refused before looking for a prime factor
    (["weights", "--l", "2", "--m", "4", "--q", "257"], 2,
     "error: q=257 is above 256, the largest supported field\n"),
    (["weights", "--l", "2", "--m", "4", "--q", "1000000000039"], 2,
     "error: q=1000000000039 is above 256, the largest supported field\n"),
    # no silent F_2
    (["weights", "--l", "2", "--m", "5", "--union", "[[1,5],[2,3]]"], 2,
     "error: --union needs --q\n"),
    (["experiment", "Q4", "--l", "2", "--m", "4"], 2, "error: Q4 needs --q\n"),
    # the guard reads binomial(m, l) before any grid point is built
    (["enumerate", "--l", "2", "--m", "100000"], 3,
     "error: grid has 4999950000 points, guard is 28\n"),
    # counts past str()'s 4300-digit limit print as the largest power of 2 not above
    (["weights", "--l", "2", "--m", "200", "--q", "2", "--oracle", "--r-range", "1:1"], 3,
     "error: r=1 sweep needs at least 2^19899 subspaces, budget is 20000000\n"),
    (["experiment", "Q4", "--l", "2", "--m", "200", "--q", "2"], 3,
     "error: r=1 sweep needs at least 2^19899 subspaces, budget is 20000000\n"),
    (["genmatrix", "--l", "2", "--m", "1000", "--q", "256"], 3,
     "error: enumeration of at least 2^15968 points exceeds guard 10000000\n"),
    (["genmatrix", "--l", "2", "--m", "4"], 2, "error: genmatrix needs --q\n"),
]


@pytest.mark.parametrize("argv,code,err", REFUSALS)
def test_refusal_stderr(capsys, monkeypatch, argv, code, err):
    monkeypatch.delenv("SCHUBERT_UNIONS_GUARD", raising=False)
    assert run_cli(argv, capsys) == (code, "", err)


@pytest.mark.parametrize("union,count", [
    ([], "at least 2^15968"),
    (["--union", "[[1,5]]"], "16843009"),   # 1 + 256 + 256^2 + 256^3
])
def test_genmatrix_guard_builds_no_grid(capsys, monkeypatch, union, count):
    def no_grid(params):
        raise AssertionError("full_grid called before the point guard")

    monkeypatch.delenv("SCHUBERT_UNIONS_GUARD", raising=False)
    monkeypatch.setattr(pluecker, "full_grid", no_grid)
    argv = ["genmatrix", "--l", "2", "--m", "1000", "--q", "256", *union]
    assert run_cli(argv, capsys) == \
        (3, "", f"error: enumeration of {count} points exceeds guard 10000000\n")


# the number of 3-planes of F_2^300, the points of the top cycle [[298,299,300]]
G_3_300_OVER_F2 = (
    "503137648700633567954609318968111053827473643843925259169486389549213240530214151880397384"
    "830708691913561881565789226965713660944340437077318471647964626511664553991287324794568475"
    "60545237688823026126224199359934491462174756602117385710818742962711510456429748117319875"
)
WEIGHTS_3000 = ["weights", "--l", "2", "--m", "3000", "--q", "2", "--union", "[[2999,3000]]"]


# stderr recorded when G_U was built before these guards
@pytest.mark.parametrize("argv,code,err", [
    (WEIGHTS_3000, 3, "error: union has 4498500 points, guard is 28\n"),
    ([*WEIGHTS_3000, "--r-range", "1:2"], 3, "error: union has 4498500 points, guard is 28\n"),
    ([*WEIGHTS_3000, "--r-range", "1:5000000"], 2,
     "error: --r-range 1:5000000 is not a range inside 1..4498500\n"),
    (["genmatrix", "--l", "3", "--m", "300", "--q", "2", "--union", "[[298,299,300]]"], 3,
     f"error: enumeration of {G_3_300_OVER_F2} points exceeds guard 10000000\n"),
], ids=["weights", "weights-r-range", "weights-r-range-outside", "genmatrix"])
def test_union_guard_counts_from_the_maxima(capsys, monkeypatch, argv, code, err):
    # G_U has 4,498,500 and 4,455,100 points; the guards count them unbuilt
    def refuse(points):
        raise AssertionError("down_closure called before the guard")

    monkeypatch.delenv("SCHUBERT_UNIONS_GUARD", raising=False)
    monkeypatch.setattr(grassgrid, "down_closure", refuse)
    assert run_cli(argv, capsys) == (code, "", err)


@pytest.mark.parametrize("text", ["x", "1:2:3", ":3", "2:"])
def test_r_range_form_named(capsys, text):
    code, out, err = run_cli(["weights", "--l", "2", "--m", "4", "--q", "2",
                              "--r-range", text], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --r-range {text} is not of the form a or a:b" \
                  f" with integers a, b\n"


@pytest.mark.parametrize("q", [16, 25, 27])
def test_weights_over_default_modulus_fields(capsys, q):
    code, out, _ = run_cli(["weights", "--l", "2", "--m", "4", "--q", str(q),
                            "--format", "json"], capsys)
    assert code == 0
    code, symbolic, _ = run_cli(["weights", "--l", "2", "--m", "4",
                                 "--format", "json"], capsys)

    def at_q(v):
        return sum(c * q ** i for i, c in enumerate(v)) if isinstance(v, list) else v

    assert json.loads(out) == [{key: at_q(v) for key, v in rec.items()}
                               for rec in json.loads(symbolic)]


def test_genmatrix_over_gf27(monkeypatch):
    code, raw = stdout_bytes(monkeypatch, ["genmatrix", "--l", "2", "--m", "3",
                                           "--q", "27"])
    columns = [list(map(int, line.split())) for line in raw.decode().splitlines()]
    # G(2,3) is the projective plane: 27^2 + 27 + 1 points
    assert code == 0 and len(columns) == 757
    assert gf.rank(gf.Field(27), list(zip(*columns))) == 3


@pytest.mark.parametrize("flag_first", [True, False])
def test_format_flag_beats_config(capsys, tmp_path, flag_first):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "csv"}))
    base = ["krull", "--l", "2", "--m", "4", "--K", "2"]
    flag, config = ["--format", "markdown"], ["--config", str(cfg)]
    argv = base + (flag + config if flag_first else config + flag)
    assert run_cli(argv, capsys)[:2] == run_cli(base, capsys)[:2]
    code, out, _ = run_cli(base + config, capsys)
    assert (code, out) == run_cli(base + ["--format", "csv"], capsys)[:2]
    assert out.startswith("K,")


@pytest.mark.parametrize("text,named", [
    ("[1]", "does not hold a JSON object"),
    ('"csv"', "does not hold a JSON object"),
    ('{"guard": 1.7}', "guard must be an integer, got 1.7"),
    ('{"guard": true}', "guard must be an integer, got true"),
    ('{"guard": "x"}', 'guard must be an integer, got "x"'),
    ('{"guard": null}', "guard must be an integer, got null"),
    ('{"oracle_budget": 2.5}', "oracle_budget must be an integer, got 2.5"),
    ('{"point_guard": false}', "point_guard must be an integer, got false"),
    ('{"guard": ', "is not valid JSON: Expecting value: line 1 column 11 (char 10)"),
], ids=["array", "string", "fraction", "boolean", "text", "null",
        "budget-fraction", "point-guard-boolean", "truncated"])
def test_malformed_config_named(capsys, tmp_path, text, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run_cli(["weights", "--l", "2", "--m", "4", "--q", "2", "--oracle",
                              "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config {cfg}") and named in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("union", ["[[3,5]", "[[3,5]]]", "three-five"])
def test_union_malformed_json_named(capsys, union):
    code, out, err = run_cli(["dual", "--l", "2", "--m", "7", "--union", union], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --union {union} is not valid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["abc", "1.5", "1e3", ""])
def test_guard_variable_malformed_named(capsys, monkeypatch, value):
    monkeypatch.setenv("SCHUBERT_UNIONS_GUARD", value)
    assert run_cli(["enumerate", "--l", "2", "--m", "4"], capsys) == \
        (2, "", f"error: SCHUBERT_UNIONS_GUARD must be an integer, got {json.dumps(value)}\n")
    # a --guard flag leaves the variable unread
    assert run_cli(["enumerate", "--l", "2", "--m", "4", "--guard", "28"], capsys)[0] == 0


@pytest.mark.parametrize("value", ["1e12", "30", "30.0"])
def test_integral_config_limits_accepted(capsys, tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"guard": {value}, "oracle_budget": {value}}}')
    code, out, err = run_cli(["enumerate", "--l", "2", "--m", "5",
                              "--config", str(cfg)], capsys)
    assert (code, err) == (0, "")
    assert out == run_cli(["enumerate", "--l", "2", "--m", "5"], capsys)[1]


@pytest.mark.parametrize("extra", [
    [],
    ["--q", "256"],
    ["--q", "2", "--r-range", "2:4"],
    ["--m", "5", "--q", "3", "--union", "[[1,5],[2,3]]"],
])
def test_weights_builds_no_field_without_oracle(capsys, monkeypatch, extra):
    argv = ["weights", "--l", "2", "--m", "4", *extra, "--format", "json"]
    expected = run_cli(argv, capsys)

    def refuse(*args, **kwargs):
        raise AssertionError("Field built")

    monkeypatch.setattr(gf, "Field", refuse)
    assert run_cli(argv, capsys) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("q,err", [
    ("0", "q=0 is not a prime power"),
    ("1", "q=1 is not a prime power"),
    ("-4", "q=-4 is not a prime power"),
    ("12", "q=12 is not a prime power"),
    ("100", "q=100 is not a prime power"),
])
@pytest.mark.parametrize("extra", [[], ["--oracle"], ["--union", "[[2,4]]"]])
def test_bad_q_refused_on_every_weights_path(capsys, q, err, extra):
    assert run_cli(["weights", "--l", "2", "--m", "4", "--q", q, *extra],
                   capsys) == (2, "", f"error: {err}\n")


def cli_env():
    """The environment of a CLI subprocess: this checkout's package, no guard."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop(cli.GUARD_ENV, None)
    return env


def test_refusal_text_ignores_int_digit_limit():
    # the 5,991-digit count is named by a power of 2 whatever str() allows
    argv = ["weights", "--l", "2", "--m", "200", "--q", "2", "--oracle", "--r-range", "1:1"]
    runs = set()
    for limit in (None, "0", "640"):
        env = cli_env()
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        proc = subprocess.run([sys.executable, "-m", "schubert_unions.cli", *argv],
                              capture_output=True, env=env, timeout=60)
        runs.add((proc.returncode, proc.stdout, proc.stderr))
    assert runs == {(3, b"", b"error: r=1 sweep needs at least 2^19899 subspaces,"
                             b" budget is 20000000\n")}


@pytest.mark.parametrize("fmt", FORMATS)
def test_table_ignores_int_digit_limit(fmt):
    # d_r of C(2,140) over F_256 runs past 640 digits; only digests are
    # compared, since this process may not str() such an integer
    argv = ["weights", "--l", "2", "--m", "140", "--q", "256", "--r-range", "1:3",
            "--format", fmt]
    runs = set()
    for limit in (None, "0", "640"):
        env = cli_env()
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        proc = subprocess.run([sys.executable, "-m", "schubert_unions.cli", *argv],
                              capture_output=True, env=env, timeout=60)
        runs.add((proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), proc.stderr))
    assert len(runs) == 1
    assert runs.pop()[::2] == (0, b"")


def test_main_lifts_and_restores_int_digit_limit(capsys, monkeypatch):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit before Python 3.10.7")
    seen = []
    krull_dK = optimizer.krull_dK
    monkeypatch.setattr(optimizer, "krull_dK", lambda params, K: seen.append(
        sys.get_int_max_str_digits()) or krull_dK(params, K))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run_cli(["krull", "--l", "2", "--m", "5", "--K", "3"], capsys)[0] == 0
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    # the handler ran with no limit, and the caller's came back
    assert seen == [0]


@pytest.mark.parametrize("argv", [
    # the 15 points of G(3,12) of cell dimension 14: the fold keeps its
    # vectors in a set
    ["dual", "--l", "3", "--m", "12", "--union",
     json.dumps([a for a in grassgrid.full_grid(GrassParams(3, 12)) if sum(a) == 20])],
    ["enumerate", "--l", "3", "--m", "7", "--guard", "35"],
    ["genmatrix", "--l", "3", "--m", "6", "--q", "2", "--union", "[[1,4,5],[2,3,5]]"],
    ["weights", "--l", "2", "--m", "7", "--q", "3", "--union", "[[3,6]]"],
], ids=["dual", "enumerate", "genmatrix", "weights"])
def test_output_ignores_hash_seed(argv):
    # identical flags give identical bytes in every process, whatever order
    # its str and bytes hashes give to sets and dicts
    runs = set()
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-m", "schubert_unions.cli", *argv],
                              capture_output=True, env={**cli_env(), "PYTHONHASHSEED": seed},
                              timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"") and proc.stdout
        runs.add(proc.stdout)
    assert len(runs) == 1


@pytest.mark.parametrize("argv", [
    ["enumerate", "--l", "3", "--m", "8", "--guard", "56"],
    ["genmatrix", "--l", "2", "--m", "6", "--q", "3", "--binary"],
], ids=["enumerate", "genmatrix-binary"])
def test_closed_stdout_exits_1_quietly(argv):
    # both outputs pass 150 kB, more than a pipe buffers, so the program is
    # still writing when the reader closes its end after one byte
    env = cli_env()
    proc = subprocess.Popen([sys.executable, "-m", "schubert_unions.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv,target", [
    (["bounds", "--l", "2", "--m", "30"], "stdout"),
    (["genmatrix", "--l", "2", "--m", "6", "--q", "3", "--binary"], "stdout"),
    (["genmatrix", "--l", "2", "--m", "4", "--q", "2", "--out", "/dev/full"], "/dev/full"),
    (["genmatrix", "--l", "2", "--m", "4", "--q", "2", "--binary", "--out", "/dev/full"],
     "/dev/full"),
], ids=["stdout-text", "stdout-binary", "out-text", "out-binary"])
def test_failed_write_is_one_error_line(argv, target):
    # /dev/full refuses every write with ENOSPC
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "schubert_unions.cli", *argv],
                              stdout=full if target == "stdout" else subprocess.DEVNULL,
                              stderr=subprocess.PIPE, env=cli_env(), timeout=60)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert "Traceback" not in err
