"""File discovery and pass orchestration.

Orchestration has three layers:

* **discovery** — walk the given paths for ``.py`` files, pruning
  cache/VCS directories, ``*scratch*`` output directories, and
  ``BENCH_*`` artifacts, plus any ``--exclude`` globs (all matched
  relative to the scan root);
* **per-module passes** — parse each file once into a
  :class:`~repro.analysis.base.ModuleContext` and run the classic
  single-file passes;
* **project passes** — build one
  :class:`~repro.analysis.project.ProjectContext` over every parsed
  module and run the interprocedural passes exactly once per run.

With a cache path (``--cache``), the run is incremental: only changed
files and their import-graph dependents are re-analyzed, dependencies
of those are re-parsed for context, and every other file replays its
cached findings (see :mod:`repro.analysis.cache`).
"""

from __future__ import annotations

import ast
import fnmatch
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.analysis.base import AnalysisPass, ModuleContext, ProjectPass
from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.cache import (
    AnalysisCache,
    CacheEntry,
    file_hash,
    import_targets,
    resolve_import_path,
)
from repro.analysis.finding import Finding, Severity
from repro.analysis.passes import ALL_PASSES
from repro.analysis.project import ProjectContext, module_name_for

#: Directory names never worth scanning (caches, VCS, environments).
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    ".mypy_cache",
    ".ruff_cache",
    ".venv",
    "venv",
    "node_modules",
}

#: Default glob excludes: bench-output scratch artifacts.  ``BENCH_*``
#: files are committed bench baselines (JSON, plus any scratch helper
#: dumped next to them) and ``*scratch*`` directories hold run output —
#: neither is source code this tool should parse.
_DEFAULT_EXCLUDES = ("BENCH_*", "*scratch*")


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Files actually parsed this run (≤ files_scanned on a warm cache).
    files_parsed: int = 0
    #: Files whose findings were replayed from the incremental cache.
    files_from_cache: int = 0
    unused_baseline_entries: List[BaselineEntry] = field(default_factory=list)

    @property
    def unbaselined(self) -> List[Finding]:
        return [f for f in self.findings if not f.baselined]

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.unbaselined if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.unbaselined if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when the run should exit 0."""
        return not self.unbaselined and not self.unused_baseline_entries


def _posix(path: str) -> str:
    return path.replace(os.sep, "/")


def _excluded(posix_path: str, patterns: Sequence[str]) -> bool:
    """True if a path (or its basename) matches an exclude glob."""
    name = posix_path.rsplit("/", 1)[-1]
    for pattern in patterns:
        if (
            fnmatch.fnmatch(posix_path, pattern)
            or fnmatch.fnmatch(name, pattern)
            or fnmatch.fnmatch(posix_path, f"*/{pattern}")
        ):
            return True
    return False


def iter_python_files(
    paths: Sequence[str], exclude: Sequence[str] = ()
) -> Iterator[str]:
    """Yield .py files under the given files/directories, sorted.

    Under a directory, ``exclude`` globs match the path *relative to
    that scan root* — its full posix form, its basename, or any suffix
    (``--exclude 'fixtures/*'`` prunes every fixtures directory) — so
    where the tree itself lives (say, under a ``scratch`` directory)
    never excludes it.  Explicitly named files bypass the default
    scratch excludes but still honor user globs.
    """
    patterns = list(exclude)
    default_patterns = patterns + list(_DEFAULT_EXCLUDES)
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py") and not _excluded(_posix(path), patterns):
                yield path
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path}")
        for root, dirs, files in os.walk(path):
            rel_root = os.path.relpath(root, path)
            rel_root = "" if rel_root == "." else _posix(rel_root) + "/"
            dirs[:] = sorted(
                d
                for d in dirs
                if d not in _SKIP_DIRS
                and not d.startswith(".")
                and not _excluded(rel_root + d, default_patterns)
            )
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                if _excluded(rel_root + name, default_patterns):
                    continue
                yield os.path.join(root, name)


def _syntax_error_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule="syntax-error",
        severity=Severity.ERROR,
        path=path,
        line=exc.lineno or 1,
        column=(exc.offset or 0) + 1,
        message=f"file does not parse: {exc.msg}",
    )


def analyze_source(
    source: str,
    path: str = "<string>",
    passes: Optional[Sequence[AnalysisPass]] = None,
) -> List[Finding]:
    """Run passes over one in-memory module (test/fixture entry point).

    Project passes see a single-module project — cross-module
    resolution degrades to name-based matching, which is exactly what
    single-file fixtures exercise.
    """
    active = list(ALL_PASSES) if passes is None else list(passes)
    posix = path.replace(os.sep, "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [_syntax_error_finding(posix, exc)]
    ctx = ModuleContext(posix, source, tree)
    findings: List[Finding] = []
    project: Optional[ProjectContext] = None
    for analysis_pass in active:
        if isinstance(analysis_pass, ProjectPass):
            if project is None:
                project = ProjectContext.build([ctx])
            findings.extend(analysis_pass.run_project(project))
        else:
            findings.extend(analysis_pass.run(ctx))
    return findings


def analyze_paths(
    paths: Sequence[str],
    passes: Optional[Sequence[AnalysisPass]] = None,
    baseline: Optional[Baseline] = None,
    exclude: Sequence[str] = (),
    cache_path: Optional[str] = None,
) -> AnalysisReport:
    """Analyze files/trees, apply the baseline, and build a report."""
    active = list(ALL_PASSES) if passes is None else list(passes)
    module_passes = [p for p in active if not isinstance(p, ProjectPass)]
    project_passes = [p for p in active if isinstance(p, ProjectPass)]

    files = [_posix(f) for f in iter_python_files(paths, exclude)]
    roots = sorted(
        (_posix(p).rstrip("/") for p in paths if os.path.isdir(p)),
        key=len,
        reverse=True,
    )
    sources: Dict[str, str] = {}
    hashes: Dict[str, str] = {}
    for file_path in files:
        with open(file_path, "r", encoding="utf-8") as handle:
            sources[file_path] = handle.read()
        hashes[file_path] = file_hash(sources[file_path])

    report = AnalysisReport(files_scanned=len(files))
    file_set = set(files)

    cache = AnalysisCache.load(cache_path) if cache_path else None
    if cache is None:
        dirty = set(files)
    else:
        changed = cache.changed_files(hashes)
        dirty = cache.with_dependents(changed) & file_set
        # A change to a global-contract module (e.g. the manifest
        # schema) invalidates the whole project, not just importers.
        for project_pass in project_passes:
            if any(
                fragment in path
                for fragment in project_pass.invalidates_on
                for path in changed
            ):
                dirty = set(files)
                break

    # -- parse worklist: dirty files plus (for project passes) their
    # transitive dependencies, for cross-module resolution context.
    name_table = {
        module_name_for(file_path, roots): file_path for file_path in files
    }
    contexts: Dict[str, ModuleContext] = {}
    deps_map: Dict[str, Set[str]] = {}
    fresh: Dict[str, List[Finding]] = {path: [] for path in dirty}
    queue = sorted(dirty)
    scheduled: Set[str] = set(queue)
    while queue:
        file_path = queue.pop()
        try:
            tree = ast.parse(sources[file_path], filename=file_path)
        except SyntaxError as exc:
            deps_map[file_path] = set()
            if file_path in dirty:
                fresh[file_path].append(
                    _syntax_error_finding(file_path, exc)
                )
            continue
        contexts[file_path] = ModuleContext(
            file_path, sources[file_path], tree
        )
        module_name = module_name_for(file_path, roots)
        deps: Set[str] = set()
        for dotted in import_targets(tree, module_name):
            target = resolve_import_path(dotted, name_table)
            if target is not None and target != file_path:
                deps.add(target)
        deps_map[file_path] = deps
        if project_passes:
            for dep in deps:
                if dep not in scheduled:
                    scheduled.add(dep)
                    queue.append(dep)
    report.files_parsed = len(scheduled)
    report.files_from_cache = len(files) - len(dirty)

    # -- per-module passes on dirty files only.
    for file_path in dirty:
        ctx = contexts.get(file_path)
        if ctx is None:
            continue  # syntax error already recorded
        for analysis_pass in module_passes:
            fresh[file_path].extend(analysis_pass.run(ctx))

    # -- project passes over everything parsed; only dirty files take
    # fresh findings (clean parsed files are context and keep cached
    # results — a partial project is unreliable for them).
    if project_passes and contexts:
        project = ProjectContext.build(list(contexts.values()), roots)
        for project_pass in project_passes:
            for finding in project_pass.run_project(project):
                if finding.path in fresh:
                    fresh[finding.path].append(finding)

    # -- merge fresh + cached findings in file order.
    for file_path in files:
        if file_path in dirty:
            report.findings.extend(fresh[file_path])
        elif cache is not None:
            entry = cache.entries.get(file_path)
            if entry is not None:
                report.findings.extend(
                    Finding.from_dict(payload) for payload in entry.findings
                )
    report.findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))

    if cache is not None:
        for file_path in dirty:
            cache.entries[file_path] = CacheEntry(
                hash=hashes[file_path],
                deps=sorted(deps_map.get(file_path, set())),
                findings=[f.to_dict() for f in fresh[file_path]],
            )
        cache.entries = {
            path: entry
            for path, entry in cache.entries.items()
            if path in file_set
        }
        cache.save()

    if baseline is not None:
        baseline.apply(report.findings)
        report.unused_baseline_entries = baseline.unused_entries()
    return report
