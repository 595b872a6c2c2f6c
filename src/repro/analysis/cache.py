"""Incremental analysis cache: re-analyze only what changed.

The cache stores, per analyzed file, a content hash, the set of
scanned files it imports (the file-dependency graph), and the
findings the last run produced for it.  A warm run then:

* re-parses only *dirty* files — content changed, file is new, or a
  transitive *dependent* of a changed file (an importer, since
  cross-module findings in an importer can change when its dependency
  changes);
* additionally parses the transitive *dependencies* of dirty files so
  interprocedural passes see the symbols they resolve against — these
  dependency parses keep their **cached** findings (they are context,
  not analysis targets);
* replays cached findings verbatim for every clean file.

Two safety valves force a full re-analysis: the *tool fingerprint* (a
digest of the analysis package's own sources — a pass edit invalidates
everything) and :attr:`~repro.analysis.base.ProjectPass.invalidates_on`
(a change to a global-contract module, e.g. the manifest schema,
invalidates the whole project, not just its import-graph dependents).

The cache file is JSON and safe to delete at any time; a missing,
corrupt, or version-mismatched cache simply means a cold run.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

CACHE_VERSION = 1


def file_hash(source: str) -> str:
    """Content hash used for dirty-file detection."""
    return hashlib.blake2b(source.encode("utf-8"), digest_size=16).hexdigest()


def tool_fingerprint() -> str:
    """Digest of the analysis package's own sources.

    Any edit to a pass, the project builder, or the cache itself must
    invalidate every cached finding — stale findings from an older
    tool version are worse than a cold run.
    """
    package_dir = Path(__file__).resolve().parent
    digest = hashlib.blake2b(digest_size=16)
    for source in sorted(package_dir.rglob("*.py")):
        digest.update(source.relative_to(package_dir).as_posix().encode())
        digest.update(source.read_bytes())
    return digest.hexdigest()


@dataclass
class CacheEntry:
    """One file's cached state."""

    hash: str
    deps: List[str] = field(default_factory=list)
    findings: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "hash": self.hash,
            "deps": sorted(self.deps),
            "findings": self.findings,
        }


class AnalysisCache:
    """Load/query/save the per-file incremental state."""

    def __init__(
        self,
        path: str,
        entries: Optional[Dict[str, CacheEntry]] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.path = path
        self.entries: Dict[str, CacheEntry] = entries or {}
        self.fingerprint = fingerprint or tool_fingerprint()

    @classmethod
    def load(cls, path: str) -> "AnalysisCache":
        """Load a cache; any mismatch degrades to an empty (cold) cache."""
        current = tool_fingerprint()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return cls(path, fingerprint=current)
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_VERSION
            or payload.get("tool_fingerprint") != current
        ):
            return cls(path, fingerprint=current)
        entries: Dict[str, CacheEntry] = {}
        raw_files = payload.get("files", {})
        if isinstance(raw_files, dict):
            for file_path, raw in raw_files.items():
                if not isinstance(raw, dict):
                    continue
                entries[str(file_path)] = CacheEntry(
                    hash=str(raw.get("hash", "")),
                    deps=[str(d) for d in raw.get("deps", [])],
                    findings=[
                        f for f in raw.get("findings", []) if isinstance(f, dict)
                    ],
                )
        return cls(path, entries=entries, fingerprint=current)

    def save(self) -> None:
        payload = {
            "version": CACHE_VERSION,
            "tool_fingerprint": self.fingerprint,
            "files": {
                path: entry.to_dict()
                for path, entry in sorted(self.entries.items())
            },
        }
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=False)
            handle.write("\n")
        os.replace(tmp, self.path)

    # -- dirty-set computation -------------------------------------------
    def changed_files(self, hashes: Dict[str, str]) -> Set[str]:
        """Files whose content differs from the cache (or are new)."""
        return {
            path
            for path, digest in hashes.items()
            if path not in self.entries or self.entries[path].hash != digest
        }

    def with_dependents(self, changed: Set[str]) -> Set[str]:
        """``changed`` plus every transitive importer (reverse closure)."""
        reverse: Dict[str, Set[str]] = {}
        for path, entry in self.entries.items():
            for dep in entry.deps:
                reverse.setdefault(dep, set()).add(path)
        dirty = set(changed)
        stack = list(changed)
        while stack:
            current = stack.pop()
            for importer in reverse.get(current, ()):
                if importer not in dirty:
                    dirty.add(importer)
                    stack.append(importer)
        return dirty


# -- lightweight import extraction -------------------------------------------
#
# The parse worklist needs the dependencies of a freshly parsed dirty
# file *before* the whole project is built, so import targets are
# resolved purely against the path-derived module-name table of the
# scanned file set (same suffix-insensitive rule as
# ``ProjectContext.resolve_module``).


def import_targets(tree: ast.Module, module_name: str) -> List[str]:
    """Dotted import targets of a module (relative imports resolved)."""
    targets: List[str] = []

    def visit(stmts: Sequence[ast.stmt]) -> None:
        for node in stmts:
            if isinstance(node, (ast.If, ast.Try)):
                visit([s for s in ast.iter_child_nodes(node)
                       if isinstance(s, ast.stmt)])
            else:
                targets.extend(_statement_targets(node, module_name))

    visit(tree.body)
    return targets


def _statement_targets(node: ast.AST, module_name: str) -> List[str]:
    """Dotted targets of one ``import`` statement (else empty)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = _import_base(node, module_name)
    targets: List[str] = []
    for alias in node.names:
        if alias.name == "*":
            if base:
                targets.append(base)
            continue
        targets.append(f"{base}.{alias.name}" if base else alias.name)
    return targets


def _import_base(node: ast.ImportFrom, module_name: str) -> str:
    if not node.level:
        return node.module or ""
    parts = module_name.split(".")
    # level 1 = current package (module name minus the leaf).
    keep = len(parts) - node.level
    base = ".".join(parts[:keep]) if keep > 0 else ""
    if node.module:
        base = f"{base}.{node.module}" if base else node.module
    return base


def resolve_import_path(
    dotted: str, name_table: Dict[str, str]
) -> Optional[str]:
    """Map a dotted import target onto a scanned file path, or None.

    Tries the full dotted name with leading components progressively
    stripped (suffix-insensitive, matching ``resolve_module``), then
    the same with the last component dropped (``from mod import sym``
    records ``mod.sym``).
    """
    for candidate in (dotted, dotted.rpartition(".")[0]):
        if not candidate:
            continue
        parts = candidate.split(".")
        for start in range(len(parts)):
            name = ".".join(parts[start:])
            if name in name_table:
                return name_table[name]
    return None
