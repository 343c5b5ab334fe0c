"""README's library quick start runs as written, and its command table is the parser's."""

import argparse
import re
from pathlib import Path

from stackgame import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_the_command_table_lists_each_command_with_exactly_its_flags():
    rows = re.findall(r"^\| `([a-z-]+)([^`]*)` \|", README.read_text(), re.M)
    table = {command: sorted(re.findall(r"--[a-z-]+", usage)) for command, usage in rows}
    assert len(table) == len(rows), rows
    commands = next(action.choices for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    common = {"--config", "--output", "-h", "--help"}
    assert table == {command: sorted({flag for action in parser._actions
                                      for flag in action.option_strings} - common)
                     for command, parser in commands.items()}
