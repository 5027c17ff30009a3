"""Result records and sweep grids for the runner and the API.

:class:`SweepResult` holds one experiment's records, each cell coerced to
a JSON scalar by :func:`sanitize_value`.  It round-trips through JSON
(``to_json``/``from_json``), which is what the content-addressed result
cache stores on disk.  :func:`sweep_grid` spells the Cartesian grid of
``repro sweep`` and :func:`repro.api.sweep` in row-major order; each cell
then runs as one cached request through the runner's batch scheduler.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping


def sanitize_value(value: object) -> object:
    """Coerce one cell to a JSON-serialisable python scalar.

    Numpy scalars are unwrapped via ``.item()`` (no numpy import needed);
    tuples become lists, matching what a JSON round-trip would produce, so
    sanitised records compare equal to reloaded ones.
    """
    if value is None or type(value) in (bool, int, float, str):
        return value
    if isinstance(value, (list, tuple)):
        return [sanitize_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): sanitize_value(item) for key, item in value.items()}
    tolist = getattr(value, "tolist", None)
    if callable(tolist):  # numpy scalar -> python scalar; ndarray -> (nested) list
        return sanitize_value(tolist())
    for base in (bool, int, float, str):  # builtin subclass without numpy protocol
        if isinstance(value, base):
            return base(value)
    raise TypeError(f"cannot serialise sweep value of type {type(value).__name__}: {value!r}")


@dataclass
class SweepResult:
    """One experiment's records (rows), JSON-serialisable through :meth:`to_jsonable`."""

    records: list[dict[str, object]] = field(default_factory=list)

    def to_jsonable(self) -> list[dict[str, object]]:
        """Records with every value coerced to a JSON-serialisable scalar."""
        return [
            {str(key): sanitize_value(value) for key, value in record.items()}
            for record in self.records
        ]

    @classmethod
    def from_jsonable(cls, records: Iterable[Mapping[str, object]]) -> "SweepResult":
        """Rebuild a result from :meth:`to_jsonable` output."""
        return cls(records=[dict(record) for record in records])

    def to_json(self, *, indent: int | None = None) -> str:
        """Serialise as a JSON document (used by the result cache on disk)."""
        return json.dumps({"records": self.to_jsonable()}, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Inverse of :meth:`to_json`; bit-identical records guaranteed."""
        return cls.from_jsonable(json.loads(text)["records"])

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def sweep_grid(parameters: Mapping[str, Iterable[object]]) -> list[dict[str, object]]:
    """The Cartesian parameter grid, in deterministic row-major order."""
    names = list(parameters)
    return [
        dict(zip(names, combination))
        for combination in itertools.product(*(parameters[name] for name in names))
    ]
