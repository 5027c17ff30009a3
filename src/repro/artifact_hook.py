"""The one slot through which the science reaches the artifact store.

Producer modules resolve shared intermediates through :func:`resolve`.
With no store installed the producer runs inline (direct driver calls,
tests); the runner installs its :class:`~repro.runner.artifacts.ArtifactStore`
around executions, which then loads or computes the entry instead.

Standard library only and importing nothing from ``repro``, so the
science's static import closures -- its cache and artifact keys -- end
here and orchestration edits never invalidate them.  Import it as
``from ..artifact_hook import resolve``: ``from .. import artifact_hook``
would pull the ``repro`` package itself into the closure.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Mapping, Protocol


class Resolver(Protocol):
    def resolve(self, artifact: str, params: Mapping[str, object], *, producer: Callable[..., object]) -> object: ...


_STORE: Resolver | None = None


def current() -> Resolver | None:
    """The installed store, or ``None`` when producers run inline."""
    return _STORE


@contextlib.contextmanager
def installed(store: Resolver | None) -> Iterator[Resolver | None]:
    """Install ``store`` for the block (``None`` turns reuse off), then restore the previous one."""
    global _STORE
    previous, _STORE = _STORE, store
    try:
        yield store
    finally:
        _STORE = previous


def resolve(artifact: str, params: Mapping[str, object], *, producer: Callable[..., object]) -> object:
    """Load-or-compute one artifact through the installed store.

    With none installed the producer runs inline and nothing is persisted;
    producers are deterministic, so rows are bit-identical either way.
    """
    store = _STORE
    if store is None:
        return producer(**dict(params))
    return store.resolve(artifact, params, producer=producer)
