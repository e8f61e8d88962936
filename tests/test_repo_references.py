"""Docs, Makefile and CI may only name files, tests, make targets and code that exist."""

import ast
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
#: a test file, optionally with a node id: tests/test_x.py::TestClass::test_name
TEST_NODE = re.compile(r"\btests/(\w+\.py)((?:::\w+)*)")
#: a target counts as named when it sits in a code span or a Makefile header line
MAKE_IN_CODE = re.compile(r"`[^`\n]*\bmake ([a-z][\w-]*)[^`\n]*`")
MAKE_IN_HEADER = re.compile(r"^#\s+make ([a-z][\w-]*)", re.MULTILINE)
TARGETS = set(re.findall(r"^([a-z][\w-]*):", (ROOT / "Makefile").read_text(), re.MULTILINE))

#: the prose docs, where code is named in backticks
DOCS = [path for path in (ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")))
        if path.exists()]
#: a backticked module path: `repro/queues/fifo.py` (optionally under src/)
MODULE_PATH = re.compile(r"`(?:src/)?(repro/[\w/]+\.py)`")
#: a backticked attribute of a class: `Handler.drain_batch` or `Handler.abandons()`
CLASS_ATTR = re.compile(r"`([A-Z]\w*)\.(\w+)(?:\(\))?`")


def _class_index() -> dict:
    """Every class defined under ``src/repro``, by name (a name may repeat)."""
    classes: dict = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(node)
    return classes


CLASSES = _class_index()


def _members(cls: ast.ClassDef) -> set:
    """Names the class body defines, plus every ``self.<name>`` it assigns."""
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return names


def _resolves(name: str, attr: str, seen: frozenset = frozenset()) -> bool:
    """``attr`` is defined on class ``name`` or one of its bases."""
    for cls in CLASSES.get(name, ()):
        if attr in _members(cls):
            return True
        for base in cls.bases:
            base_name = getattr(base, "id", None) or getattr(base, "attr", None)
            if base_name and base_name not in seen and _resolves(base_name, attr, seen | {name}):
                return True
    return False


def _defines(body, name: str):
    """The ``class`` or ``def`` called ``name`` among ``body``'s statements."""
    for node in body:
        if (isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == name):
            return node
    return None


def _missing_test_nodes(text: str) -> list:
    missing = []
    for file_name, node_id in sorted(set(TEST_NODE.findall(text))):
        path = ROOT / "tests" / file_name
        if not path.exists():
            missing.append(f"tests/{file_name}")
            continue
        scope = ast.parse(path.read_text())
        for name in node_id.split("::")[1:]:
            scope = _defines(scope.body, name)
            if scope is None:
                missing.append(f"tests/{file_name}{node_id}")
                break
    return missing


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_named_files_and_targets_exist(source):
    text = source.read_text()
    named_files = set(BENCH_FILE.findall(text)) | set(ROOT_JSON.findall(text))
    named_targets = set(MAKE_IN_CODE.findall(text)) | set(MAKE_IN_HEADER.findall(text))
    # a name may be a family (benchmarks/bench_*.py): at least one file must match
    dangling = sorted(name for name in named_files if not any(ROOT.glob(name)))
    dangling += _missing_test_nodes(text)
    dangling += sorted(f"make {name}" for name in named_targets - TARGETS)
    assert not dangling, f"{source.relative_to(ROOT)} names what does not exist: {dangling}"


@pytest.mark.parametrize("source", DOCS, ids=lambda path: path.name)
def test_named_code_exists(source):
    text = source.read_text()
    dangling = sorted(f"src/{path}" for path in set(MODULE_PATH.findall(text))
                      if not (ROOT / "src" / path).exists())
    dangling += sorted(f"{name}.{attr}" for name, attr in set(CLASS_ATTR.findall(text))
                       if name in CLASSES and not _resolves(name, attr))
    assert not dangling, f"{source.relative_to(ROOT)} names code that does not exist: {dangling}"
