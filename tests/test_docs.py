"""Every ``module.name`` that the prose quotes names a live attribute."""

import importlib
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rfree"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
# sieve._d_terms or rfree.cli.entry, but not a file name such as cli.py
QUOTED = re.compile(rf"\b(?:rfree\.)?({'|'.join(MODULES)})\.(?!py\b)([A-Za-z_]\w*)")


def _prose(path: Path) -> str:
    """The text of a Markdown file, or the comments and strings of a
    Python file, where a local variable cannot pass for a module."""
    text = path.read_text()
    if path.suffix != ".py":
        return text
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return "\n".join(tok.string for tok in tokens if tok.type in (tokenize.COMMENT, tokenize.STRING))


def test_quoted_module_names_are_live():
    paths = [ROOT / "README.md", *sorted(SRC.glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]
    quoted, stale = 0, []
    for path in paths:
        for module, name in QUOTED.findall(_prose(path)):
            quoted += 1
            if not hasattr(importlib.import_module(f"rfree.{module}"), name):
                stale.append(f"{path.relative_to(ROOT)}: {module}.{name}")
    assert quoted > 10  # the scan sees the names it is meant to check
    assert stale == []


def test_flag_count_modules_name_the_one_strided_count():
    # the one strided flag count lives in sieve, and both of its modules say so
    for module in ("sieve", "progressions"):
        doc = importlib.import_module(f"rfree.{module}").__doc__
        assert "sieve._class_counts" in doc, module
    assert importlib.import_module("rfree.progressions")._class_counts.__module__ == "rfree.sieve"
