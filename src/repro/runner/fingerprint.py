"""Static code fingerprints for cache invalidation.

The result cache keys every entry on a *code fingerprint*: a digest over the
source of the experiment driver plus every in-package module it (transitively)
imports.  Editing any model an experiment depends on therefore invalidates
exactly the experiments that import it, while leaving unrelated cache entries
valid.

The import closure is resolved statically (``ast`` walk over ``import`` /
``from ... import`` statements) so computing a fingerprint never executes
experiment code; only modules inside ``repro`` and inside the fingerprinted
module's own top-level package participate, so a driver registered from
outside ``repro`` is keyed on both its own package and the science it
imports.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import importlib.machinery
import importlib.util
import threading
from pathlib import Path

# CPython's ``ast.parse`` keeps its AST-to-object recursion depth in shared
# interpreter state on some versions (3.11 raises ``SystemError: AST
# constructor recursion depth mismatch`` under concurrent parses), so parsing
# is serialised.  Cheap: each source is parsed at most once per process (see
# ``_IMPORTS``), so repeat fingerprints never reach the parser at all.
_PARSE_LOCK = threading.Lock()


def _parse_source(source: str | bytes) -> ast.Module:
    with _PARSE_LOCK:
        return ast.parse(source)


@functools.lru_cache(maxsize=None)
def _find_spec(module_name: str) -> importlib.machinery.ModuleSpec | None:
    """``module_name``'s spec, located without importing any parent package.

    ``importlib.util.find_spec`` imports a submodule's parents, which would
    run every science package ``__init__`` just to locate a source file.
    Only the top-level package is looked up the standard way; each further
    component is searched for in its parent's ``submodule_search_locations``.
    """
    parent, _, _ = module_name.rpartition(".")
    if not parent:
        try:
            return importlib.util.find_spec(module_name)
        except (ImportError, ValueError):
            return None
    parent_spec = _find_spec(parent)
    if parent_spec is None or parent_spec.submodule_search_locations is None:
        return None
    return importlib.machinery.PathFinder.find_spec(module_name, list(parent_spec.submodule_search_locations))


def module_path(module_name: str) -> Path | None:
    """Source file of ``module_name``, or ``None`` if it has no .py origin."""
    spec = _find_spec(module_name)
    if spec is None or spec.origin is None or not spec.origin.endswith(".py"):
        return None
    return Path(spec.origin)


def _is_package(module_name: str) -> bool:
    spec = _find_spec(module_name)
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


#: The package every closure follows, besides the fingerprinted module's own.
_PACKAGE = __name__.partition(".")[0]


def _imports_in(tree: ast.Module, module_name: str) -> frozenset[str]:
    """Modules of ``repro`` or of ``module_name``'s top-level package imported directly by ``tree`` (its AST)."""
    roots = {_PACKAGE, module_name.partition(".")[0]}
    found: set[str] = set()

    def keep(candidate: str | None) -> None:
        if candidate and candidate.partition(".")[0] in roots:
            if module_path(candidate) is not None:
                found.add(candidate)

    for node in _walk_importable(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                keep(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_import_base(node, module_name)
            keep(base)
            if base and base.partition(".")[0] in roots:
                # ``from pkg import name`` may name a submodule.
                for alias in node.names:
                    keep(f"{base}.{alias.name}")
    return frozenset(found)


#: ``(module, source sha256) -> imports``: keyed on the digest of the
#: source, so edits re-parse while repeat fingerprints of unchanged modules
#: skip the AST walk.  Module specs are memoised per process -- module files
#: are assumed not to *move* while a process runs (edits to their contents
#: are picked up, as the source is re-read on every fingerprint).
_IMPORTS: dict[tuple[str, str], frozenset[str]] = {}


def read_source(module_name: str) -> tuple[bytes, str] | None:
    """``(source bytes, sha256 hex)`` of ``module_name``, or ``None`` without a .py origin."""
    path = module_path(module_name)
    if path is None:
        return None
    source = path.read_bytes()
    return source, hashlib.sha256(source).hexdigest()


def parse_module(module_name: str, source: bytes, digest: str) -> ast.Module:
    """``source``'s AST (``digest`` is its sha256), for a reader that needs more than its imports.

    The imports are recorded on the way, so fingerprinting the same source
    later never parses it a second time.
    """
    tree = _parse_source(source)
    if (module_name, digest) not in _IMPORTS:
        _IMPORTS[module_name, digest] = _imports_in(tree, module_name)
    return tree


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


def _closure_digests(module_name: str) -> dict[str, str]:
    """``module -> sha256(source)`` over ``module_name``'s import closure; each file is read once."""
    digests: dict[str, str] = {}
    pending = [module_name]
    while pending:
        current = pending.pop()
        if current in digests:
            continue
        read = read_source(current)
        if read is None:
            continue
        source, digest = read
        digests[current] = digest
        if (current, digest) not in _IMPORTS:
            parse_module(current, source, digest)
        pending.extend(imported for imported in _IMPORTS[current, digest] if imported not in digests)
    return digests


def module_closure(module_name: str) -> list[str]:
    """Transitive in-package import closure of ``module_name``, sorted.

    Includes ``module_name`` itself.  Resolution is purely static; modules
    whose source cannot be located are skipped.
    """
    return sorted(_closure_digests(module_name))


def code_fingerprint(module_name: str) -> str:
    """Hex digest over the sources of ``module_name``'s import closure.

    Deterministic across processes and machines for identical sources: the
    closure is sorted and each module contributes ``name:sha256(source)``.
    """
    digest = hashlib.sha256()
    for name, source_hash in sorted(_closure_digests(module_name).items()):
        digest.update(f"{name}:{source_hash}\n".encode())
    return digest.hexdigest()
