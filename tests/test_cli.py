import hashlib
import io
import json
import sys

import pytest

from schubert_unions import weights
from schubert_unions.cli import main

from table_fixtures import DIRECTIONS


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
]


@pytest.mark.parametrize("flags,digest", GENMATRIX_GOLDEN)
def test_genmatrix_golden(monkeypatch, flags, digest):
    # a byte stream under a text layer, like the real stdout, so both the
    # text writer and the --binary writer (stdout.buffer) land in `raw`
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["genmatrix", *flags.split()])
    stdout.flush()
    assert code == 0
    assert hashlib.sha256(raw.getvalue()).hexdigest() == digest


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
    monkeypatch.setattr(weights, "_max_annihilated", no_sweep)
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
