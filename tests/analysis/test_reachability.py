"""Tier-1 gate: every ``src/`` module is reached from an entry point.

A module that only its own tests import is dead weight: it drifts from
the cost model, carries its own knobs, and reads as a second
implementation of something the system already does.  This test walks
the import graph (:meth:`ProjectContext.file_dependencies`, lazy
function-level imports included) from every way the repository is
run, and asserts the unreached set equals :data:`ALLOWLIST`.  The
check is two-sided: a stale allowlist entry fails too.
"""

import ast
import os
import re
from typing import Dict, List, Set

from repro.analysis import ModuleContext, ProjectContext

from tests.analysis.conftest import REPO_ROOT

#: directories whose files are all entry points (scripts and their tests).
ROOT_DIRS = ("examples", "perfbench", "benchmarks")

#: documents whose ``python -m repro...`` commands are entry points.
COMMAND_DOCS = (os.path.join(".github", "workflows", "ci.yml"), "README.md")

#: unreached modules kept on purpose -> why.
ALLOWLIST = {
    "repro.transfer.stream": (
        "reference oracle: tests compare its chunked-transfer simulation "
        "against plan.overlap.pipeline_makespan"
    ),
}


def _python_files(directory: str) -> List[str]:
    out = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(REPO_ROOT, directory)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                out.append(os.path.relpath(path, REPO_ROOT).replace(os.sep, "/"))
    return out


def _context(path: str, source: str) -> ModuleContext:
    return ModuleContext(path, source, ast.parse(source, filename=path))


def repo_contexts() -> List[ModuleContext]:
    contexts = []
    for directory in ("src",) + ROOT_DIRS:
        for path in _python_files(directory):
            with open(os.path.join(REPO_ROOT, path), encoding="utf-8") as handle:
                contexts.append(_context(path, handle.read()))
    return contexts


def command_targets() -> Set[str]:
    """Module names run as ``python -m repro...`` in CI and the README."""
    targets: Set[str] = set()
    for doc in COMMAND_DOCS:
        with open(os.path.join(REPO_ROOT, doc), encoding="utf-8") as handle:
            targets.update(re.findall(r"python -m\s+(repro[\w.]*)", handle.read()))
    return targets


def unreached_modules(
    contexts: List[ModuleContext], entry_modules: Set[str]
) -> Set[str]:
    """``src/`` modules no entry point imports, directly or transitively.

    Entries are the named modules, every ``__main__`` module, and every
    file outside ``src/``.  Importing a module imports its parent
    packages, so those count as reached too.
    """
    project = ProjectContext.build(contexts, roots=("src",))
    deps = project.file_dependencies()
    name_of: Dict[str, str] = {info.path: name for name, info in project.modules.items()}
    stack = [
        name
        for name, info in project.modules.items()
        if name in entry_modules
        or name.endswith("__main__")
        or not info.path.startswith("src/")
    ]
    seen: Set[str] = set()
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(name_of[path] for path in deps[project.modules[name].path])
        parent = name.rpartition(".")[0]
        if parent in project.modules:
            stack.append(parent)
    return {
        name
        for name, info in project.modules.items()
        if info.path.startswith("src/") and name not in seen
    }


def test_every_src_module_is_reached_or_allowlisted():
    entry_modules = {"repro", "repro.api"} | command_targets()
    unreached = unreached_modules(repo_contexts(), entry_modules)
    assert sorted(unreached - set(ALLOWLIST)) == [], (
        "src/ modules no entry point imports — wire them in or delete them"
    )
    assert sorted(set(ALLOWLIST) - unreached) == [], (
        "allowlisted modules are now reached — drop them from ALLOWLIST"
    )


def test_synthetic_orphan_is_flagged():
    contexts = [
        _context("src/repro/__init__.py", ""),
        _context("src/repro/orphan_probe.py", "VALUE = 1\n"),
        _context("src/repro/pkg/__init__.py", ""),
        _context("src/repro/pkg/lazy_probe.py", "VALUE = 2\n"),
        _context(
            "examples/lazy_importer.py",
            "def main():\n    from repro.pkg.lazy_probe import VALUE\n    return VALUE\n",
        ),
    ]
    # A function-level import reaches its module and its parent package.
    assert unreached_modules(contexts, {"repro"}) == {"repro.orphan_probe"}
