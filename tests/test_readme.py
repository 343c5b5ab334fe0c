"""README's library quick start runs as written and its command table is the parser's, and
the config format's key table lists the keys the config rules accept."""

import argparse
import re
from pathlib import Path

from stackgame import cli

README = Path(__file__).resolve().parents[1] / "README.md"
CONFIG_DOC = README.parent / "docs" / "formats" / "config.md"


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


def _rule_rows(rules=cli._RULES, prefix=""):
    """The dotted name of each key the rules accept; a grid, a utility role or a choice's
    params is one row."""
    for key, rule in rules.items():
        name = prefix + key
        if rule is cli._GRID or prefix == "utility." or key == "params":
            yield name
        elif isinstance(rule, dict) or callable(rule):
            yield from _rule_rows(rule({}) if callable(rule) else rule, name + ".")
        else:
            yield name


def test_the_config_key_table_lists_exactly_the_accepted_keys():
    keys = CONFIG_DOC.read_text().split("\n## Keys\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z_.]+)` \|", keys, re.M)
    assert len(rows) == len(set(rows)), rows
    assert sorted(rows) == sorted(_rule_rows())
