"""The README's Library example runs and prints the values its comments give,
every line of its CLI block runs, and its flag table is the parser's."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from schubert_unions import GrassParams, SchubertUnion, cli

from test_cli import subcommand_options

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def library_block():
    section = README.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_values():
    block = library_block()
    lines = block.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(block).body:
        _code, sep, comment = lines[stmt.end_lineno - 1].partition("#")
        if sep:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(comment.strip()), ast.unparse(stmt)
            checked.append(value)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked == [11, "2q^5+3q^4+2q^3+2q^2+q+1", "(2,6) ∪ (3,4)",
                       b"\x01\x00\x00\x00\x00\x00", 28]


def test_json_line_is_to_json_bytes():
    u = SchubertUnion(GrassParams(2, 7), [(1, 7), (3, 5)])
    assert f"`{u.to_json()}`" in README


def cli_lines():
    section = README.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("schubert-unions ")]


def test_cli_block_lists_every_command():
    commands = {shlex.split(line)[1] for line in cli_lines()}
    assert commands == set(subcommand_options())


@pytest.mark.parametrize("line", cli_lines())
def test_cli_block_line_runs(line, capsys, monkeypatch, tmp_path):
    monkeypatch.delenv(cli.GUARD_ENV, raising=False)
    # the bracketed flags are optional: the line runs without them
    argv = shlex.split(re.sub(r"\[--[^]]*\]", "", line), comments=True)[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().err == ""


def flag_table():
    """Subcommand -> the flags the README's CLI table gives it, with the
    four that every subcommand takes."""
    section = README.split("\n## CLI\n", 1)[1].split("\n```sh\n", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| `")]
    return {name.strip().strip("`"): {"--l", "--m", "--out", "--config",
                                      *re.findall(r"`(--[\w-]+)`", flags)}
            for name, flags in rows}


def test_flag_table_matches_parser():
    assert flag_table() == {name: set(flags) for name, flags in subcommand_options().items()}
