"""The package's export list: every name resolves, once, and a star import
binds exactly those names; the README's library example runs, and every
command of its CLI block exits 0."""

import pathlib
import re
import shlex

import nearreg
from nearreg.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in nearreg.__all__
               if not hasattr(nearreg, name)]
    assert not missing, f"__all__ names what nearreg lacks: {missing}"


def test_export_list_has_no_duplicates():
    assert len(nearreg.__all__) == len(set(nearreg.__all__))


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from nearreg import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(nearreg.__all__)


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 1, "one python block under Library example"
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # each command in turn, in one directory: later lines read the graphs
    # that earlier ones write
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```sh\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 1, "one sh block under CLI"
    lines = [line for line in blocks[0].splitlines()
             if line and not line.startswith("#")]
    assert lines and all(line.startswith("nearreg ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
