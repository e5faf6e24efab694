"""The package's dependencies: what `src/msis` imports is what
`pyproject.toml` declares, what the suite imports installs with the `test`
extra, and the CLI loads no SciPy."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "msis"


def declared_dependencies(*extras: str) -> set[str]:
    """The importable names of `[project].dependencies` and of the named
    optional extras."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = list(project["dependencies"])
    for extra in extras:
        requirements += project["optional-dependencies"][extra]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def third_party_imports(path: Path) -> set[str]:
    """The top-level modules that a source file imports, wherever the
    import statement sits, less the standard library's."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__"}


def test_numpy_is_the_only_runtime_dependency():
    assert declared_dependencies() == {"numpy"}


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    undeclared = {f"{path.name}: {name}" for path in sources
                  for name in third_party_imports(path) - declared}
    assert not undeclared, f"imports not in [project].dependencies: {sorted(undeclared)}"


def test_the_suite_imports_only_what_the_test_extra_declares():
    """The suite collects `tests/` and `bench/` (the smoke test runs the
    benchmark), so what they import must install with `.[test]`."""
    declared = declared_dependencies("test")
    sources = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    local = {"msis"} | {path.stem for path in sources}
    undeclared = {f"{path.parent.name}/{path.name}: {name}" for path in sources
                  for name in third_party_imports(path) - declared - local}
    assert not undeclared, f"imports not in the test extra: {sorted(undeclared)}"


def test_the_cli_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, msis.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
