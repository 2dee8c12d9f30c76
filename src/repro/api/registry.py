"""Plugin registries for workloads, systems, prefetchers, and analyses.

The paper's evaluation is a grid of (workload x memory-system context x
analysis) cells.  Historically each axis was hard-coded at its call sites —
``create_workload`` was an if/elif chain, ``_build_system`` knew both
organisations by name, and the figure modules were reachable only through
their own functions.  The registries here make every axis *pluggable*: a new
workload, system organisation, prefetcher, or analysis registers itself with
a decorator and is immediately usable from :class:`~repro.api.spec.ExperimentSpec`,
:meth:`~repro.api.session.Session.plan`, and the CLI, without edits to core.

This module is deliberately dependency-free (no imports from the rest of the
package) so any layer may register entries without risking import cycles.

Usage::

    from repro.api.registry import register_workload

    @register_workload("MyBench", aliases=("mybench",))
    def _my_bench(n_cpus, seed=42, size="default"):
        return MyBenchWorkload(n_cpus=n_cpus, seed=seed, size=size)

Lookups are case-insensitive over canonical names and aliases; registering a
name (or alias) twice raises ``ValueError``, and looking up an unknown name
raises ``KeyError`` listing the available entries.

Beyond fixed names, a registry can host whole *families* of entries through
:meth:`Registry.register_prefix`: a handler owns every name starting with a
prefix (``fuzz:``, ``import:``) and derives an entry from the suffix at
lookup time.  The trace-ingest subsystem uses this so ``workload =
"fuzz:Apache+OLTP,drift=0.3"`` or ``"import:memcached"`` resolve through the
same :data:`WORKLOADS` registry as the six paper workloads — specs, plans,
and the CLI need no special cases.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def _normalize(name: str) -> str:
    return name.strip().lower()


class Registry:
    """A named mapping of plugin entries with alias and decorator support."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        #: canonical name -> registered object, in registration order.
        self._entries: Dict[str, Any] = {}
        #: normalized name/alias -> canonical name.
        self._lookup: Dict[str, str] = {}
        #: normalized prefix -> (canonical prefix, handler, placeholder).
        self._prefixes: Dict[str, Tuple[str, Callable, str]] = {}

    # ------------------------------------------------------------------ #
    def register(self, name: str, obj: Any,
                 aliases: Tuple[str, ...] = ()) -> Any:
        """Register ``obj`` under ``name`` (plus ``aliases``); returns ``obj``.

        Raises ``ValueError`` when the name or any alias — compared
        case-insensitively — is already taken, so two plugins can never
        silently shadow each other.
        """
        for candidate in (name, *aliases):
            taken = self._lookup.get(_normalize(candidate))
            if taken is not None:
                raise ValueError(
                    f"duplicate {self.kind} name {candidate!r}: already "
                    f"registered as {taken!r}")
        self._entries[name] = obj
        for candidate in (name, *aliases):
            self._lookup[_normalize(candidate)] = name
        return obj

    def decorator(self, name: str,
                  aliases: Tuple[str, ...] = ()) -> Callable[[Any], Any]:
        """``@registry.decorator("name")`` — register and return unchanged."""
        def _register(obj: Any) -> Any:
            return self.register(name, obj, aliases=tuple(aliases))
        return _register

    def register_prefix(self, prefix: str, handler: Callable,
                        placeholder: Optional[str] = None) -> Callable:
        """Register a ``handler`` owning every name starting with ``prefix``.

        ``handler(suffix)`` is called with the part after the prefix and
        must return ``(canonical_suffix, entry)`` when the suffix is valid,
        or ``None`` to reject it (the name then resolves like any unknown
        name).  The canonical name of a prefixed entry is
        ``prefix + canonical_suffix``, so aliases inside the suffix (e.g.
        fuzz-recipe base-workload aliases) normalise to one spelling.

        ``placeholder`` is the human-readable form shown in "available:"
        listings (default ``<prefix>...``).  Prefixes are matched
        case-insensitively; registering the same prefix twice raises
        ``ValueError``.  Returns ``handler`` so it can be used as a
        decorator.
        """
        key = _normalize(prefix)
        if key in self._prefixes:
            raise ValueError(
                f"duplicate {self.kind} prefix {prefix!r}")
        self._prefixes[key] = (prefix, handler,
                               placeholder or f"{prefix}...")
        return handler

    def _resolve_prefixed(self, name: str) -> Optional[Tuple[str, Any]]:
        """(canonical name, entry) via a prefix handler, or ``None``."""
        normalized = _normalize(name)
        for key, (prefix, handler, _) in self._prefixes.items():
            if not normalized.startswith(key):
                continue
            resolved = handler(name.strip()[len(prefix):])
            if resolved is not None:
                canonical_suffix, entry = resolved
                return prefix + canonical_suffix, entry
        return None

    # ------------------------------------------------------------------ #
    def canonical(self, name: str) -> Optional[str]:
        """The canonical name ``name`` resolves to, or ``None``."""
        exact = self._lookup.get(_normalize(name))
        if exact is not None:
            return exact
        prefixed = self._resolve_prefixed(name)
        return prefixed[0] if prefixed is not None else None

    def get(self, name: str) -> Any:
        """The registered entry for ``name`` (canonical or alias).

        Raises ``KeyError`` whose message lists the available entries, so a
        typo in a spec or on the command line is self-diagnosing.
        """
        canonical = self._lookup.get(_normalize(name))
        if canonical is not None:
            return self._entries[canonical]
        prefixed = self._resolve_prefixed(name)
        if prefixed is not None:
            return prefixed[1]
        available = self.names() + tuple(
            placeholder for _, _, placeholder in self._prefixes.values())
        raise KeyError(
            f"unknown {self.kind} {name!r}; available: "
            f"{', '.join(available) or '(none registered)'}")

    def names(self) -> Tuple[str, ...]:
        """Canonical names in registration order (prefix families excluded)."""
        return tuple(self._entries)

    def prefixes(self) -> Tuple[str, ...]:
        """Registered name prefixes in registration order."""
        return tuple(prefix for prefix, _, _ in self._prefixes.values())

    def items(self) -> List[Tuple[str, Any]]:
        return list(self._entries.items())

    def __contains__(self, name: str) -> bool:
        return self.canonical(name) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {list(self._entries)})"


#: Workload factories: ``factory(n_cpus, seed, size) -> Workload``.
WORKLOADS = Registry("workload")

#: System-organisation factories: ``factory(scale) -> system model``, with
#: ``.n_cpus`` and ``.contexts`` attributes describing the organisation.
SYSTEMS = Registry("system")

#: Prefetcher classes/factories: ``factory(**kwargs) -> Prefetcher``.
PREFETCHERS = Registry("prefetcher")

#: Analysis adapters: ``fn(session, spec, scale, warmup_fraction) -> artifact``
#: where the artifact renders via ``.render()`` (or ``str``).
ANALYSES = Registry("analysis")

#: Execution backends: ``factory(max_workers=None) -> Executor`` (see
#: :mod:`repro.api.executor` for the protocol and the built-in three).
EXECUTORS = Registry("executor")


def register_workload(name: str, aliases: Tuple[str, ...] = ()):
    """Class/function decorator adding a workload factory to :data:`WORKLOADS`."""
    return WORKLOADS.decorator(name, aliases=aliases)


def register_system(name: str, aliases: Tuple[str, ...] = ()):
    """Decorator adding a system-organisation factory to :data:`SYSTEMS`."""
    return SYSTEMS.decorator(name, aliases=aliases)


def register_prefetcher(name: str, aliases: Tuple[str, ...] = ()):
    """Decorator adding a prefetcher model to :data:`PREFETCHERS`."""
    return PREFETCHERS.decorator(name, aliases=aliases)


def register_analysis(name: str, aliases: Tuple[str, ...] = ()):
    """Decorator adding an analysis adapter to :data:`ANALYSES`."""
    return ANALYSES.decorator(name, aliases=aliases)


def register_executor(name: str, aliases: Tuple[str, ...] = ()):
    """Decorator adding an execution backend to :data:`EXECUTORS`."""
    return EXECUTORS.decorator(name, aliases=aliases)
