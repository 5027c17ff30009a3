"""Static code fingerprints for cache invalidation.

The result cache keys every entry on a *code fingerprint*: a digest over the
source of the experiment driver plus every in-package module it (transitively)
imports.  Editing any model an experiment depends on therefore invalidates
exactly the experiments that import it, while leaving unrelated cache entries
valid.

The import closure is resolved statically (``ast`` walk over ``import`` /
``from ... import`` statements) so computing a fingerprint never executes
experiment code; only modules inside the root package (``repro`` by default)
participate.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import importlib.util
import threading
from pathlib import Path

# CPython's ``ast.parse`` keeps its AST-to-object recursion depth in shared
# interpreter state on some versions (3.11 raises ``SystemError: AST
# constructor recursion depth mismatch`` under concurrent parses), so parsing
# is serialised.  Cheap: ``_imported_modules`` is memoised per source text,
# so repeat fingerprints never reach the parser at all.
_PARSE_LOCK = threading.Lock()


def _parse_source(source: str) -> ast.AST:
    with _PARSE_LOCK:
        return ast.parse(source)


@functools.lru_cache(maxsize=None)
def _module_path(module_name: str) -> Path | None:
    """Source file of ``module_name``, or ``None`` if it has no .py origin."""
    try:
        spec = importlib.util.find_spec(module_name)
    except (ImportError, ValueError):
        return None
    if spec is None or spec.origin is None or not spec.origin.endswith(".py"):
        return None
    return Path(spec.origin)


@functools.lru_cache(maxsize=None)
def _is_package(module_name: str) -> bool:
    try:
        spec = importlib.util.find_spec(module_name)
    except (ImportError, ValueError):
        return False
    return spec is not None and spec.submodule_search_locations is not None


def _resolve_import_base(node: ast.ImportFrom, module_name: str) -> str | None:
    """Absolute module named by a ``from ... import`` statement."""
    if node.level == 0:
        return node.module
    # Relative import: resolve against the importing module's package.
    package = module_name if _is_package(module_name) else module_name.rpartition(".")[0]
    parts = package.split(".")
    if node.level - 1 >= len(parts):
        return None
    if node.level > 1:
        parts = parts[: len(parts) - (node.level - 1)]
    base = ".".join(parts)
    return f"{base}.{node.module}" if node.module else base


@functools.lru_cache(maxsize=None)
def _imported_modules(module_name: str, source: str, root: str) -> frozenset[str]:
    """Root-package modules imported directly by ``source``.

    Keyed on the source text itself, so edits re-parse while repeat
    fingerprints of unchanged modules skip the AST walk.  Module specs are
    memoised per process -- module files are assumed not to *move* while a
    process runs (edits to their contents are picked up, as the source is
    re-read on every fingerprint).
    """
    found: set[str] = set()

    def keep(candidate: str | None) -> None:
        if candidate and (candidate == root or candidate.startswith(root + ".")):
            if _module_path(candidate) is not None:
                found.add(candidate)

    for node in _walk_importable(_parse_source(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                keep(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_import_base(node, module_name)
            keep(base)
            if base and (base == root or base.startswith(root + ".")):
                # ``from pkg import name`` may name a submodule.
                for alias in node.names:
                    keep(f"{base}.{alias.name}")
    return frozenset(found)


def _is_main_guard(node: ast.AST) -> bool:
    """Exactly ``if __name__ == "__main__":`` -- dead code for an imported module.

    The operator and comparator are both checked: ``if __name__ != ...`` or a
    comparison against anything but ``"__main__"`` *does* run on import and
    must keep contributing to the fingerprint.
    """
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        and len(node.test.ops) == 1
        and isinstance(node.test.ops[0], ast.Eq)
        and len(node.test.comparators) == 1
        and isinstance(node.test.comparators[0], ast.Constant)
        and node.test.comparators[0].value == "__main__"
    )


def _is_type_checking_guard(node: ast.AST) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` -- never runs.

    ``typing.TYPE_CHECKING`` is ``False`` at runtime, so imports under the
    guard exist only for annotations and cannot influence computed results;
    counting them would couple consumers of a *type* to the implementation
    module's whole closure.
    """
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


#: The fields that hold nested statements (``handlers`` holds ``except``
#: clauses, ``cases`` holds ``match`` arms).  Imports are statements, so the
#: walk never needs to descend into expressions.
_STATEMENT_FIELDS = ("body", "orelse", "finalbody", "handlers", "cases")


def _walk_importable(tree: ast.AST):
    """Every statement of ``tree``, skipping ``__main__``-guard and
    ``TYPE_CHECKING`` bodies.

    Imports under those guards (the drivers' CLI shims, annotation-only type
    imports) never execute when the module is imported by the runner, so they
    must not contribute to the fingerprint -- otherwise editing the CLI would
    invalidate every cached experiment result.
    """
    pending = [tree]
    while pending:
        node = pending.pop()
        yield node
        if _is_main_guard(node) or _is_type_checking_guard(node):
            pending.extend(node.orelse)  # the else branch *does* run on import
            continue
        for field in _STATEMENT_FIELDS:
            pending.extend(getattr(node, field, ()))


def module_closure(module_name: str, *, root: str = "repro") -> list[str]:
    """Transitive in-package import closure of ``module_name``, sorted.

    Includes ``module_name`` itself.  Resolution is purely static; modules
    whose source cannot be located are skipped.
    """
    closure: set[str] = set()
    pending = [module_name]
    while pending:
        current = pending.pop()
        if current in closure:
            continue
        path = _module_path(current)
        if path is None:
            continue
        closure.add(current)
        source = path.read_text()
        for imported in _imported_modules(current, source, root):
            if imported not in closure:
                pending.append(imported)
    return sorted(closure)


def code_fingerprint(module_name: str, *, root: str = "repro") -> str:
    """Hex digest over the sources of ``module_name``'s import closure.

    Deterministic across processes and machines for identical sources: the
    closure is sorted and each module contributes ``name:sha256(source)``.
    """
    digest = hashlib.sha256()
    for name in module_closure(module_name, root=root):
        path = _module_path(name)
        if path is None:  # pragma: no cover - raced module removal
            continue
        source_hash = hashlib.sha256(path.read_bytes()).hexdigest()
        digest.update(f"{name}:{source_hash}\n".encode())
    return digest.hexdigest()
