"""README's library example imports only names the package exports, its
command examples parse, its Defaults table gives the defaults the code
has, and its config section names the config keys the CLI ignores."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

import relfrec
from relfrec.cli import _IGNORED_CONFIG_KEYS, build_parser

CONFIGS = (relfrec.TrainConfig, relfrec.PredictionConfig, relfrec.HybridPolicy)

README = Path(__file__).resolve().parents[1] / "README.md"


def library_usage_imports():
    """Names of the ``from relfrec import (...)`` block under "Library usage"."""
    section = README.read_text(encoding="utf-8").split("\n## Library usage\n", 1)[1]
    block = re.search(r"from relfrec import \(([^)]*)\)", section)
    return [name.strip() for name in block.group(1).split(",") if name.strip()]


def test_library_usage_imports_are_exported():
    names = library_usage_imports()
    assert len(names) > 5
    assert [name for name in names if name not in relfrec.__all__] == []


def test_every_export_resolves():
    assert [name for name in relfrec.__all__ if not hasattr(relfrec, name)] == []


def cli_examples():
    """Each ``relfrec ...`` command of README's bash blocks, its ``\\``
    continuations joined, as the argument list after ``relfrec``."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("relfrec ")]


def test_cli_examples_parse():
    examples = cli_examples()
    assert len(examples) >= 9
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: relfrec {shlex.join(argv)}")


def defaults_table():
    """(flag, README default) for each flag of the "Defaults" table; a
    row such as `--a` / `--b` | 1 / 2 gives one pair per flag."""
    section = README.read_text(encoding="utf-8").split("\n### Defaults\n", 1)[1].split("\n#", 1)[0]
    pairs = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        flags = re.findall(r"`(--[a-z-]+)`", cells[0])
        if flags:
            values = [value.strip() for value in cells[1].split("/")]
            assert len(values) == len(flags), line
            pairs.extend(zip(flags, values))
    return pairs


def test_defaults_table_matches_configs_and_parser():
    table = defaults_table()
    assert len(table) >= 10
    config_defaults = {f.name: f.default for cls in CONFIGS for f in fields(cls)}
    subcommands = build_parser().subcommands.values()
    for flag, text in table:
        dest = flag[2:].replace("-", "_")
        if dest in config_defaults:
            assert config_defaults[dest] == float(text), flag
        options = [sub._option_string_actions[flag] for sub in subcommands if flag in sub._option_string_actions]
        assert options, f"{flag} is no option of any subcommand"
        assert [option.default for option in options] == [float(text)] * len(options), flag


def test_defaults_table_lists_every_numeric_config_field():
    listed = {flag[2:].replace("-", "_") for flag, _text in defaults_table()}
    numeric = {f.name for cls in CONFIGS for f in fields(cls) if f.type in ("int", "float")}
    assert numeric - listed == set()


def test_config_section_lists_the_ignored_keys():
    section = README.read_text(encoding="utf-8").split("\n### Config files and reproducible runs\n", 1)[1]
    sentence = re.search(r"Only ((?:`\w+`(?:, | and )?)+) are ignored", section.split("\n#", 1)[0].replace("\n", " "))
    assert sentence, "no 'Only ... are ignored' sentence"
    names = re.findall(r"`(\w+)`", sentence.group(1))
    assert sorted(names) == sorted(_IGNORED_CONFIG_KEYS)
