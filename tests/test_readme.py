"""README's library example imports only names the package exports."""

import re
from pathlib import Path

import relfrec

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
