"""Docs, Makefile and CI may only name benchmark files and make targets that exist."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [path for path in (
    ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")), ROOT / "Makefile",
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md") if path.exists()]

BENCH_FILE = re.compile(r"\bbenchmarks/[\w*-]+(?:\.[\w*-]+)+")
ROOT_JSON = re.compile(r"(?<![\w/])BENCH[\w*]*\.json")
#: a target counts as named when it sits in a code span or a Makefile header line
MAKE_IN_CODE = re.compile(r"`[^`\n]*\bmake ([a-z][\w-]*)[^`\n]*`")
MAKE_IN_HEADER = re.compile(r"^#\s+make ([a-z][\w-]*)", re.MULTILINE)
TARGETS = set(re.findall(r"^([a-z][\w-]*):", (ROOT / "Makefile").read_text(), re.MULTILINE))


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_named_files_and_targets_exist(source):
    text = source.read_text()
    named_files = set(BENCH_FILE.findall(text)) | set(ROOT_JSON.findall(text))
    named_targets = set(MAKE_IN_CODE.findall(text)) | set(MAKE_IN_HEADER.findall(text))
    # a name may be a family (benchmarks/bench_*.py): at least one file must match
    dangling = sorted(name for name in named_files if not any(ROOT.glob(name)))
    dangling += sorted(f"make {name}" for name in named_targets - TARGETS)
    assert not dangling, f"{source.relative_to(ROOT)} names what does not exist: {dangling}"
