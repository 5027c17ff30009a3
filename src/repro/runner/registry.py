"""Typed experiment registry with deterministic config canonicalization.

Wraps :data:`repro.experiments.EXPERIMENTS` with one :class:`ExperimentSpec`
per driver.  Every driver module declares its cacheable parameters in a
``PARAMS`` mapping (name -> default) and, optionally, the object-valued
injection parameters its ``run()`` also accepts in ``OBJECT_PARAMS``
(pre-built characterizations, chip models, ...).  Only ``PARAMS`` values
participate in cache keys; passing an object parameter bypasses the cache.

Drivers additionally declare the sub-experiment intermediates they consume
in an ``ARTIFACTS`` mapping (see :class:`ArtifactBinding`): artifact name ->
``(producer, params-subset)`` with optional scheduling options.  The runner
service resolves those declarations into a producer/consumer DAG and fills
the artifact store in topological waves before cold experiments execute.

Canonicalization turns arbitrary override mixes into one normal form --
defaults merged in, values type-coerced (lists become tuples where the
default is a tuple), keys sorted -- so that semantically identical configs
always hash to the same cache key.
"""

from __future__ import annotations

import inspect
import types
from dataclasses import dataclass
from typing import Mapping

from .artifacts import canonical_params_json, load_producer
from .errors import ParamTypeError, ParamValueError, UnknownParamError
from ..experiments import EXPERIMENTS


@dataclass(frozen=True)
class ParamSpec:
    """One declared experiment parameter: its type is fixed by its default."""

    name: str
    type: type
    default: object

    def describe(self) -> str:
        """Human/HTTP-facing name of the accepted type (``"tuple[int]"`` etc.)."""
        if self.type is tuple:
            item_type = type(self.default[0]) if self.default else int
            return f"tuple[{item_type.__name__}]"
        return self.type.__name__

    def _reject(self, value: object) -> ParamTypeError:
        return ParamTypeError(
            f"parameter {self.name!r} expects {self.describe()}, got {value!r}",
            param=self.name,
            expected=self.describe(),
        )

    def coerce(self, value: object) -> object:
        """Validate/coerce one override to the declared type.

        Accepted coercions: ``int -> float`` and ``list -> tuple`` (with
        per-item coercion to the default tuple's item type).  Anything else
        that does not already match raises :class:`ParamTypeError` --
        silently accepting a mistyped value would poison the cache key space.
        """
        if self.type is bool:
            if isinstance(value, bool):
                return value
            raise self._reject(value)
        if self.type is int:
            if isinstance(value, int) and not isinstance(value, bool):
                return value
            raise self._reject(value)
        if self.type is float:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
            raise self._reject(value)
        if self.type is str:
            if isinstance(value, str):
                return value
            raise self._reject(value)
        if self.type is tuple:
            if not isinstance(value, (list, tuple)):
                raise self._reject(value)
            item_type = type(self.default[0]) if self.default else int
            item_spec = ParamSpec(f"{self.name}[]", item_type, None)
            return tuple(item_spec.coerce(item) for item in value)
        raise ParamTypeError(
            f"unsupported parameter type {self.type.__name__} for {self.name!r}",
            param=self.name,
            expected=self.describe(),
        )

    def parse(self, text: str) -> object:
        """Parse a CLI-style string value to the declared type.

        Unparsable text raises :class:`ParamValueError` with the parameter
        name and expected type attached, so every front end reports the same
        diagnosis.
        """
        if self.type is bool:
            lowered = text.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ParamValueError(
                f"parameter {self.name!r}: cannot parse bool from {text!r}",
                param=self.name,
                expected="bool",
            )
        try:
            if self.type is int:
                return int(text)
            if self.type is float:
                return float(text)
        except ValueError:
            raise ParamValueError(
                f"parameter {self.name!r}: cannot parse {self.describe()} from {text!r}",
                param=self.name,
                expected=self.describe(),
            ) from None
        if self.type is tuple:
            item_type = type(self.default[0]) if self.default else int
            item_spec = ParamSpec(f"{self.name}[]", item_type, None)
            return tuple(item_spec.parse(part) for part in text.split(",") if part.strip())
        return text


@dataclass(frozen=True)
class ArtifactBinding:
    """One declared sub-experiment artifact a driver consumes.

    Attributes
    ----------
    name:
        Global artifact name (drivers sharing a name with identical producer
        and parameters share the stored entries).
    producer:
        ``"package.module:function"`` path of the module-level producer; its
        module's import-closure fingerprint is part of the artifact key.
    params:
        Subset of the driver's ``PARAMS`` forwarded to the producer.
    when:
        Optional name of a bool parameter gating the artifact: it is only
        produced for configs where that parameter is true.
    after:
        Artifact names (of the same driver) that must be produced first;
        this is what gives the schedule its topological waves.
    level:
        Dependency depth derived from ``after`` (0 = no prerequisites).
    """

    name: str
    producer: str
    params: tuple[str, ...]
    when: str | None = None
    after: tuple[str, ...] = ()
    level: int = 0


def _parse_artifacts(
    experiment: str, module: types.ModuleType, params: Mapping[str, ParamSpec]
) -> dict[str, ArtifactBinding]:
    """Validate and normalise a driver's ``ARTIFACTS`` declaration."""
    declared = getattr(module, "ARTIFACTS", {})
    bindings: dict[str, ArtifactBinding] = {}
    for name, declaration in declared.items():
        if not (isinstance(declaration, tuple) and len(declaration) in (2, 3)):
            raise TypeError(
                f"{experiment}: ARTIFACTS[{name!r}] must be (producer, params[, options])"
            )
        producer, subset = declaration[0], tuple(declaration[1])
        options = dict(declaration[2]) if len(declaration) == 3 else {}
        unknown_options = set(options) - {"when", "after"}
        if unknown_options:
            raise TypeError(
                f"{experiment}: ARTIFACTS[{name!r}] has unknown option(s) {sorted(unknown_options)}"
            )
        missing = [pname for pname in subset if pname not in params]
        if missing:
            raise TypeError(
                f"{experiment}: ARTIFACTS[{name!r}] names undeclared parameter(s) {missing}"
            )
        when = options.get("when")
        if when is not None and (when not in params or params[when].type is not bool):
            raise TypeError(
                f"{experiment}: ARTIFACTS[{name!r}] 'when' must name a bool parameter"
            )
        load_producer(producer)  # fails fast on unimportable producers
        bindings[name] = ArtifactBinding(
            name=name,
            producer=producer,
            params=subset,
            when=when,
            after=tuple(options.get("after", ())),
        )
    # Resolve `after` references into dependency levels (topological depth).
    levels: dict[str, int] = {}

    def level_of(name: str, trail: tuple[str, ...] = ()) -> int:
        if name in trail:
            raise TypeError(f"{experiment}: ARTIFACTS dependency cycle through {name!r}")
        if name not in bindings:
            raise TypeError(f"{experiment}: ARTIFACTS 'after' names unknown artifact {name!r}")
        if name not in levels:
            binding = bindings[name]
            levels[name] = (
                1 + max(level_of(dep, trail + (name,)) for dep in binding.after)
                if binding.after
                else 0
            )
        return levels[name]

    for name in bindings:
        level_of(name)
    return {
        name: ArtifactBinding(
            name=binding.name,
            producer=binding.producer,
            params=binding.params,
            when=binding.when,
            after=binding.after,
            level=levels[name],
        )
        for name, binding in bindings.items()
    }


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: driver module + declared parameter schema."""

    name: str
    module: types.ModuleType
    params: Mapping[str, ParamSpec]
    object_params: frozenset[str]
    artifacts: Mapping[str, ArtifactBinding]

    @classmethod
    def from_module(cls, name: str, module: types.ModuleType) -> "ExperimentSpec":
        declared = getattr(module, "PARAMS", {})
        params = {
            pname: ParamSpec(pname, tuple if isinstance(default, (list, tuple)) else type(default), default)
            for pname, default in declared.items()
        }
        object_params = frozenset(getattr(module, "OBJECT_PARAMS", ()))
        spec = cls(
            name=name,
            module=module,
            params=params,
            object_params=object_params,
            artifacts=_parse_artifacts(name, module, params),
        )
        spec._check_against_signature()
        return spec

    def _check_against_signature(self) -> None:
        """Declared defaults must agree with ``run()``'s actual signature."""
        signature = inspect.signature(self.module.run)
        accepts_kwargs = any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in signature.parameters.values()
        )
        for pname, spec in self.params.items():
            parameter = signature.parameters.get(pname)
            if parameter is None:
                if accepts_kwargs:
                    continue
                raise TypeError(f"{self.name}: declared parameter {pname!r} not accepted by run()")
            if (
                parameter.default is not inspect.Parameter.empty
                and parameter.default != spec.default
            ):
                raise TypeError(
                    f"{self.name}: declared default for {pname!r} ({spec.default!r}) "
                    f"disagrees with run() ({parameter.default!r})"
                )

    def canonical_config(self, overrides: Mapping[str, object] | None = None) -> dict[str, object]:
        """Full config in canonical form: defaults + coerced overrides, sorted keys.

        Rejects unknown parameter names (including object parameters -- a
        config containing those is not cacheable and must bypass this path).
        """
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise UnknownParamError(
                f"{self.name}: unknown/uncacheable parameter(s) {sorted(unknown)}; "
                f"cacheable parameters are {sorted(self.params)}",
                param=sorted(unknown)[0],
                expected=f"one of: {', '.join(sorted(self.params)) or '(none)'}",
            )
        config: dict[str, object] = {}
        for pname in sorted(self.params):
            spec = self.params[pname]
            config[pname] = spec.coerce(overrides.get(pname, spec.default))
        return config

    def canonical_json(self, config: Mapping[str, object]) -> str:
        """Deterministic JSON form of a canonical config (tuples as arrays)."""
        return canonical_params_json(config)

    def schema(self) -> dict[str, object]:
        """JSON-ready description of the experiment's public parameter surface.

        This is the document ``GET /v1/experiments`` serves and what
        ``repro.api.list_experiments`` returns; tuple defaults appear as
        lists (their JSON canonical form).
        """
        return {
            "name": self.name,
            "params": {
                pname: {
                    "type": spec.describe(),
                    "default": list(spec.default) if isinstance(spec.default, tuple) else spec.default,
                }
                for pname, spec in sorted(self.params.items())
            },
            "object_params": sorted(self.object_params),
            "artifacts": [
                {
                    "name": binding.name,
                    "producer": binding.producer,
                    "params": list(binding.params),
                    "when": binding.when,
                    "after": list(binding.after),
                    "level": binding.level,
                }
                for binding in self.artifacts.values()
            ],
        }

    def execute(self, config: Mapping[str, object]) -> list[dict[str, object]]:
        """Run the driver with a canonical config."""
        return self.module.run(**dict(config))

    def render(self, rows: list[dict[str, object]]) -> str:
        """Format rows (live or cached) with the driver's renderer."""
        return self.module.render(rows)


def build_registry() -> dict[str, ExperimentSpec]:
    """One :class:`ExperimentSpec` per entry of ``EXPERIMENTS``."""
    return {name: ExperimentSpec.from_module(name, module) for name, module in EXPERIMENTS.items()}
