"""Typed experiment registry with deterministic config canonicalization.

Builds one :class:`ExperimentSpec` per driver named in
:data:`repro.experiments.DRIVERS`.  Every driver module declares its
cacheable parameters in a ``PARAMS`` mapping (name -> default) and,
optionally, the object-valued injection parameters its ``run()`` also
accepts in ``OBJECT_PARAMS`` (pre-built characterizations, chip models,
...).  Only ``PARAMS`` values participate in cache keys; passing an object
parameter bypasses the cache.

The declarations are literals, so :func:`build_registry` reads them from
each driver's source (one parse per source text, shared with the code
fingerprint) instead of importing the driver: listing experiments or
replaying a cached result never runs driver or science code.  A driver
module is imported only when it executes or renders.

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

import ast
import functools
import importlib
import inspect
import json
import types
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import ParamTypeError, ParamValueError, UnknownParamError
from .fingerprint import module_path, parse_module
from ..experiments import DRIVERS


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


def canonical_params_json(params: Mapping[str, object]) -> str:
    """Deterministic JSON form of a config or artifact parameters (tuples serialise as arrays)."""
    return json.dumps(dict(params), sort_keys=True, separators=(",", ":"))


def _param_specs(declared: Mapping[str, object]) -> dict[str, ParamSpec]:
    return {
        pname: ParamSpec(pname, tuple if isinstance(default, (list, tuple)) else type(default), default)
        for pname, default in declared.items()
    }


def _parse_artifacts(
    experiment: str,
    declared: Mapping[str, object],
    params: Mapping[str, ParamSpec],
    check_producer: Callable[[str], object],
) -> dict[str, ArtifactBinding]:
    """Validate and normalise a driver's ``ARTIFACTS`` declaration."""
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
        check_producer(producer)  # fails fast on producers that cannot run
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


def _check_run_defaults(
    experiment: str,
    params: Mapping[str, ParamSpec],
    defaults: Mapping[str, object],
    accepts_kwargs: bool,
) -> None:
    """Declared defaults must agree with ``run()``'s (``defaults``: parameter -> default)."""
    for pname, spec in params.items():
        if pname not in defaults:
            if accepts_kwargs:
                continue
            raise TypeError(f"{experiment}: declared parameter {pname!r} not accepted by run()")
        default = defaults[pname]
        if default is _NOT_LITERAL:
            raise TypeError(f"{experiment}: run()'s default for declared parameter {pname!r} is not a literal")
        if default is not inspect.Parameter.empty and default != spec.default:
            raise TypeError(
                f"{experiment}: declared default for {pname!r} ({spec.default!r}) "
                f"disagrees with run() ({default!r})"
            )


# -- declarations read from source ----------------------------------------------------

#: The module-level names the registry reads from a driver's source.
_DECLARED_NAMES = ("PARAMS", "OBJECT_PARAMS", "ARTIFACTS")
#: Stands for a ``run()`` default that is not a literal.
_NOT_LITERAL = object()


@dataclass(frozen=True)
class _Declarations:
    """What the registry needs from one module's source."""

    values: Mapping[str, object]  # the literal PARAMS / OBJECT_PARAMS / ARTIFACTS present
    functions: frozenset[str]  # names of the top-level ``def``s
    run: tuple[dict[str, object], bool] | None  # run()'s (parameter -> default, accepts **kwargs)


def _literal(node: ast.expr | None) -> object:
    if node is None:
        return inspect.Parameter.empty
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _NOT_LITERAL


def _signature(function: ast.FunctionDef) -> tuple[dict[str, object], bool]:
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    defaults = [None] * (len(positional) - len(arguments.defaults)) + list(arguments.defaults)
    pairs = [*zip(positional, defaults), *zip(arguments.kwonlyargs, arguments.kw_defaults)]
    return {argument.arg: _literal(default) for argument, default in pairs}, arguments.kwarg is not None


@functools.lru_cache(maxsize=None)
def _read_declarations(module_name: str, source: str) -> _Declarations:
    """The declarations of one source text (parsed once; keyed on the text, so edits re-read)."""
    values: dict[str, object] = {}
    functions: set[str] = set()
    run = None
    for node in parse_module(module_name, source).body:
        if isinstance(node, ast.FunctionDef):
            functions.add(node.name)
            if node.name == "run":
                run = _signature(node)
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id in _DECLARED_NAMES:
                literal = _NOT_LITERAL if isinstance(node, ast.AugAssign) else _literal(node.value)
                if literal is _NOT_LITERAL or literal is inspect.Parameter.empty:
                    raise TypeError(
                        f"{module_name}: {target.id} (line {node.lineno}) must be assigned a literal"
                    )
                values[target.id] = literal
    return _Declarations(values=values, functions=frozenset(functions), run=run)


def _declarations(module_name: str) -> _Declarations:
    path = module_path(module_name)
    if path is None:
        raise TypeError(f"no Python source found for module {module_name!r}")
    return _read_declarations(module_name, path.read_text())


def _check_top_level_def(producer: str) -> None:
    module_name, _, function_name = producer.partition(":")
    if not (module_name and function_name and function_name in _declarations(module_name).functions):
        raise TypeError(f"producer {producer!r} does not name a top-level def of its module")


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: its driver module's name + declared parameter schema.

    :attr:`module` imports the driver on first use (execution, rendering);
    the schema, the cache addresses and the artifact plan never need it.
    """

    name: str
    module_name: str
    params: Mapping[str, ParamSpec]
    object_params: frozenset[str]
    artifacts: Mapping[str, ArtifactBinding]
    _module: types.ModuleType | None = field(default=None, repr=False, compare=False)

    @property
    def module(self) -> types.ModuleType:
        if self._module is None:
            object.__setattr__(self, "_module", importlib.import_module(self.module_name))
        return self._module

    @classmethod
    def from_module(cls, name: str, module: types.ModuleType) -> "ExperimentSpec":
        """The spec of an imported (or in-memory) driver module."""
        from .artifacts import load_producer

        params = _param_specs(getattr(module, "PARAMS", {}))
        artifacts = _parse_artifacts(name, getattr(module, "ARTIFACTS", {}), params, load_producer)
        signature = inspect.signature(module.run).parameters.values()
        _check_run_defaults(
            name,
            params,
            {parameter.name: parameter.default for parameter in signature},
            any(parameter.kind is inspect.Parameter.VAR_KEYWORD for parameter in signature),
        )
        return cls(
            name=name,
            module_name=module.__name__,
            params=params,
            object_params=frozenset(getattr(module, "OBJECT_PARAMS", ())),
            artifacts=artifacts,
            _module=module,
        )

    @classmethod
    def from_source(cls, name: str, module_name: str) -> "ExperimentSpec":
        """The spec declared in ``module_name``'s source, read without importing it.

        Runs the same checks as :meth:`from_module`, statically: ``PARAMS``
        must agree with ``run()``'s keyword defaults and every producer must
        be a top-level ``def``.  A declaration that is not a literal raises
        :class:`TypeError`.
        """
        declarations = _declarations(module_name)
        if declarations.run is None:
            raise TypeError(f"{name}: {module_name} has no top-level def run()")
        params = _param_specs(declarations.values.get("PARAMS", {}))
        artifacts = _parse_artifacts(
            name, declarations.values.get("ARTIFACTS", {}), params, _check_top_level_def
        )
        _check_run_defaults(name, params, *declarations.run)
        return cls(
            name=name,
            module_name=module_name,
            params=params,
            object_params=frozenset(declarations.values.get("OBJECT_PARAMS", ())),
            artifacts=artifacts,
        )

    def param(self, name: str) -> ParamSpec:
        """The declared parameter ``name``; every front end rejects unknown names here.

        Object parameters are not declared in ``PARAMS``, so they are
        rejected too: a config containing those is not cacheable.
        """
        if name not in self.params:
            known = ", ".join(sorted(self.params)) or "(none)"
            raise UnknownParamError(
                f"{self.name} has no parameter {name!r} (unknown/uncacheable); cacheable parameters: {known}",
                param=name,
                expected=f"one of: {known}",
            )
        return self.params[name]

    def canonical_config(self, overrides: Mapping[str, object] | None = None) -> dict[str, object]:
        """Full config in canonical form: defaults + coerced overrides, sorted keys."""
        overrides = dict(overrides or {})
        for name in sorted(overrides):
            self.param(name)
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
    """One :class:`ExperimentSpec` per entry of ``DRIVERS``, read from the drivers' sources."""
    return {name: ExperimentSpec.from_source(name, module_name) for name, module_name in DRIVERS.items()}
