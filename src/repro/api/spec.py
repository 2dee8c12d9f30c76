"""Declarative experiment plans: :class:`ExperimentSpec`.

A spec describes a grid of evaluation cells —
``workloads x organisations x scales x warmups`` at one (size, seed) — plus
the prefetcher models to evaluate on each cell's miss traces and the
analyses (figures, tables, ablations) to render from the grid.  It is plain
data: loadable from a dict or a TOML file, hashable into cache keys by the
stores, and resolvable into an explicit stage DAG by
:meth:`repro.api.session.Session.plan`.

TOML example::

    name = "paper-grid"
    size = "small"
    seed = 42
    workloads = ["Apache", "OLTP", "Qry1"]
    organisations = ["multi-chip", "single-chip"]
    scales = [64]
    warmups = [0.25]
    prefetchers = ["temporal", "stride"]
    analyses = ["figure2", "table1"]

Validation is collected, not fail-fast: :meth:`ExperimentSpec.validate`
returns *every* problem (unknown workload, unregistered analysis, bad
warm-up fraction, ...) so a spec file can be fixed in one pass;
:meth:`ensure_valid` raises :class:`SpecError` with the full list.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, NamedTuple, Tuple

from .registry import ANALYSES, PREFETCHERS, SYSTEMS, WORKLOADS

#: Work-volume presets accepted by every workload generator.
SIZE_NAMES = ("tiny", "small", "default", "large")


class SpecError(ValueError):
    """A spec failed validation; ``errors`` holds every problem found."""

    def __init__(self, errors: List[str]) -> None:
        self.errors = list(errors)
        super().__init__("invalid experiment spec:\n  - "
                         + "\n  - ".join(self.errors))


class Cell(NamedTuple):
    """One grid cell: a single simulation configuration."""

    workload: str
    organisation: str
    scale: int
    warmup: float


def _str_tuple(value: Any) -> Tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    return tuple(str(v) for v in value)


def _num_tuple(value: Any, cast) -> Tuple:
    if isinstance(value, (int, float)):
        return (cast(value),)
    return tuple(cast(v) for v in value)


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative description of one experiment grid."""

    name: str = "experiment"
    workloads: Tuple[str, ...] = ()
    organisations: Tuple[str, ...] = ()
    size: str = "small"
    seed: int = 42
    scales: Tuple[int, ...] = ()
    warmups: Tuple[float, ...] = ()
    prefetchers: Tuple[str, ...] = ()
    analyses: Tuple[str, ...] = ()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Build a spec from plain data (e.g. parsed TOML/JSON).

        Scalar values are accepted where a list is expected (``workloads =
        "Apache"``); unknown keys are an error so typos cannot silently
        drop an axis of the grid.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                [f"unknown key {key!r} (known keys: "
                 f"{', '.join(sorted(known))})" for key in unknown])
        kwargs: Dict[str, Any] = {}
        errors: List[str] = []
        converters = {
            "name": str, "size": str, "seed": int,
            "workloads": _str_tuple, "organisations": _str_tuple,
            "prefetchers": _str_tuple, "analyses": _str_tuple,
            "scales": lambda v: _num_tuple(v, int),
            "warmups": lambda v: _num_tuple(v, float),
        }
        for key, value in data.items():
            try:
                kwargs[key] = converters[key](value)
            except (TypeError, ValueError) as exc:
                errors.append(f"bad value for {key!r}: {exc}")
        if errors:
            raise SpecError(errors)
        return cls(**kwargs)

    @classmethod
    def from_toml(cls, path) -> "ExperimentSpec":
        """Load a spec from a TOML file (requires Python 3.11+ ``tomllib``)."""
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11; no third-party fallback
            raise SpecError(
                [f"TOML specs need the stdlib tomllib (Python 3.11+): {exc}; "
                 f"build the spec with ExperimentSpec.from_dict instead"])
        try:
            with open(path, "rb") as fh:
                data = tomllib.load(fh)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError([f"TOML parse error in {path}: {exc}"])
        spec = cls.from_dict(data)
        if "name" not in data:
            spec = replace(spec, name=Path(path).stem)
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (inverse of :meth:`from_dict`)."""
        return {f.name: (list(value) if isinstance(
                    value := getattr(self, f.name), tuple) else value)
                for f in fields(self)}

    # ------------------------------------------------------------------ #
    # defaults and the grid
    # ------------------------------------------------------------------ #
    def resolved(self) -> "ExperimentSpec":
        """A copy with empty axes filled with registry defaults and every
        registry name canonicalised.

        Aliases (``db2`` -> ``OLTP``, ``multichip`` -> ``multi-chip``, ...)
        are resolved here so plans, suite sweeps, and result keys all use
        one spelling per entry; unknown names are left as-is for
        :meth:`validate` to report.
        """
        from ..experiments.runner import DEFAULT_WARMUP_FRACTION
        from ..mem.config import DEFAULT_SCALE
        from ..workloads import WORKLOAD_NAMES  # populates WORKLOADS
        import repro.experiments  # noqa: F401  (populates ANALYSES)
        import repro.prefetch  # noqa: F401  (populates PREFETCHERS)

        def canonical(names, registry):
            return tuple(registry.canonical(name) or name for name in names)

        return replace(
            self,
            workloads=canonical(self.workloads, WORKLOADS) or WORKLOAD_NAMES,
            organisations=(canonical(self.organisations, SYSTEMS)
                           or SYSTEMS.names()),
            prefetchers=canonical(self.prefetchers, PREFETCHERS),
            analyses=canonical(self.analyses, ANALYSES),
            scales=self.scales or (DEFAULT_SCALE,),
            warmups=self.warmups or (DEFAULT_WARMUP_FRACTION,))

    def cells(self) -> List[Cell]:
        """Every (workload, organisation, scale, warmup) cell of the grid."""
        spec = self.resolved()
        return [Cell(workload, organisation, scale, warmup)
                for scale in spec.scales
                for warmup in spec.warmups
                for workload in spec.workloads
                for organisation in spec.organisations]

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> List[str]:
        """Every problem with this spec (empty list when valid)."""
        # Importing the feature packages populates their registries.
        import repro.experiments  # noqa: F401
        import repro.prefetch  # noqa: F401
        import repro.workloads  # noqa: F401

        errors: List[str] = []

        def check(names: Iterable[str], registry, axis: str) -> None:
            for name in names:
                if name not in registry:
                    errors.append(
                        f"{axis}: unknown {registry.kind} {name!r} "
                        f"(available: {', '.join(registry.names())})")

        check(self.workloads, WORKLOADS, "workloads")
        check(self.organisations, SYSTEMS, "organisations")
        check(self.prefetchers, PREFETCHERS, "prefetchers")
        check(self.analyses, ANALYSES, "analyses")
        if self.size not in SIZE_NAMES:
            errors.append(f"size: unknown preset {self.size!r} "
                          f"(one of {', '.join(SIZE_NAMES)})")
        if not isinstance(self.seed, int):
            errors.append(f"seed: expected an integer, got {self.seed!r}")
        for scale in self.scales:
            if scale < 1:
                errors.append(f"scales: scale must be >= 1, got {scale}")
        # The runner clamps warm-up fractions to [0, 0.9]; a spec value
        # outside that range would silently collapse onto the clamp bound
        # (and onto any other clamped cell), so reject it here instead.
        from ..experiments.runner import clamp_warmup_fraction
        for warmup in self.warmups:
            if clamp_warmup_fraction(warmup) != warmup:
                errors.append(
                    f"warmups: fraction must be in [0, 0.9], got {warmup}")
        registries = {"workloads": WORKLOADS, "organisations": SYSTEMS,
                      "prefetchers": PREFETCHERS, "analyses": ANALYSES}
        for axis, registry in registries.items():
            values = getattr(self, axis)
            # Compare canonicalised names so an alias duplicating its
            # canonical entry ("multi-chip", "multichip") is caught too.
            canonical = [registry.canonical(name) or name for name in values]
            if len(set(canonical)) != len(canonical):
                errors.append(f"{axis}: duplicate entries in {values}")
        return errors

    def ensure_valid(self) -> "ExperimentSpec":
        """Raise :class:`SpecError` listing every problem; returns ``self``."""
        errors = self.validate()
        if errors:
            raise SpecError(errors)
        return self

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        spec = self.resolved()
        n_cells = len(spec.cells())
        return (f"spec {spec.name!r}: {len(spec.workloads)} workload(s) x "
                f"{len(spec.organisations)} organisation(s) x "
                f"{len(spec.scales)} scale(s) x {len(spec.warmups)} "
                f"warmup(s) = {n_cells} cell(s) at size={spec.size} "
                f"seed={spec.seed}; prefetchers="
                f"[{', '.join(spec.prefetchers) or '-'}], analyses="
                f"[{', '.join(spec.analyses) or '-'}]")


def spec_contexts(spec: ExperimentSpec) -> Tuple[str, ...]:
    """The contexts ``spec``'s grid covers, in organisation order."""
    return tuple(context
                 for organisation in spec.resolved().organisations
                 for context in SYSTEMS.get(organisation).contexts)
