"""README's fenced ``$ gippsim ...`` examples, run through ``cli.main``.

Each example must exit 0 and print the lines README quotes under it, in
order: a quoted ``...`` stands for any run of lines, and the host-bound
fields of ``bench`` are skipped by name, in the quote and the output.
An example that quotes no output only has to exit 0.  Outputs named by
``--out`` land in a temporary directory.  README's CLI table lists each
subcommand's long flags as the parser defines them, and its Layout block
and the package docstring each name every module of the package.
"""

import argparse
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

import gippsim
from gippsim.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"
HOST_BOUND = {"bench": {"host", "host_ns_per_op", "modeled_ratio"}}


def readme_examples():
    """(argv, quoted lines) for each ``$ gippsim`` line in a fenced block,
    named by its subcommand, with a count from its second example on
    (``sweep``, ``sweep-2``)."""
    examples = []
    seen = Counter()
    for block in README.read_text(encoding="utf-8").split("```")[1::2]:
        quoted = None
        for line in block.splitlines():
            if line.startswith("$ gippsim "):
                quoted = []
                argv = shlex.split(line)[2:]
                seen[argv[0]] += 1
                name = argv[0] if seen[argv[0]] == 1 else f"{argv[0]}-{seen[argv[0]]}"
                examples.append(pytest.param(argv, quoted, id=name))
            elif quoted is not None:
                quoted.append(line)
    return examples


def test_readme_has_an_example_per_subcommand():
    assert {ex.values[0][0] for ex in readme_examples()} == {
        "bench", "sim", "sqrt", "step", "sweep"}


@pytest.mark.parametrize("argv, quoted", readme_examples())
def test_readme_example(capsys, monkeypatch, tmp_path, argv, quoted):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    if not quoted:
        return
    skip = HOST_BOUND.get(argv[0], set())
    quoted, printed = ([line for line in lines if line.partition(": ")[0] not in skip]
                       for lines in (quoted, printed))
    pattern = "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + "\n"
                      for line in quoted)
    assert re.fullmatch(pattern, "".join(line + "\n" for line in printed)), \
        f"README quotes {quoted}, gippsim printed {printed}"


def test_readme_flag_table_matches_the_parser():
    rows = re.findall(r"^\| `([a-z]+)` \|(.*)\|$", README.read_text(encoding="utf-8"), re.M)
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    table = {cmd: sorted(re.findall(r"`(--[a-z-]+)`", flags)) for cmd, flags in rows}
    assert table == {
        cmd: sorted(opt for action in p._actions for opt in action.option_strings
                    if opt.startswith("--") and opt != "--help")
        for cmd, p in subparsers.items()}


def test_layout_and_package_docstring_name_every_module():
    modules = {p.stem for p in (README.parent / "src" / "gippsim").glob("*.py")} - {"__init__"}
    layout = README.read_text(encoding="utf-8").split("## Layout", 1)[1].split("```")[1]
    assert set(re.findall(r"^  (\w+)\.py ", layout, re.M)) == modules
    listed = gippsim.__doc__.split("Import from the submodules:", 1)[1]
    assert set(re.findall(r"``(\w+)``", listed)) == modules
