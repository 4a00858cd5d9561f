"""Generic named-builder registry with decorator registration and spec strings.

A :class:`Registry` maps short names to builder callables and is the single
dispatch mechanism behind ``repro.api.codes``, ``.decoders``, ``.noise``,
``.schedulers`` and ``.samplers``.

Builders are registered with a decorator::

    @codes.register("surface", aliases=("rotated_surface",))
    def _surface(d: int = 3) -> StabilizerCode:
        return rotated_surface_code(d)

and looked up with *spec strings* that may carry arguments::

    codes.build("surface")          # -> rotated_surface_code(3)
    codes.build("surface:d=5")      # -> rotated_surface_code(5)
    codes.build("surface:5")        # positional form, same thing
    codes.available()               # sorted canonical names

Argument values are coerced ``int`` → ``float`` → ``bool`` → ``str`` in that
order, so ``"lookup:max_order=3"`` builds ``LookupDecoder(max_order=3)``
without any per-registry parsing code.  Arguments the builder does not
declare fail at build time with a one-line ``ValueError`` naming the entry
and the arguments it accepts (``"mwpm:foo=2"``).
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

__all__ = ["Registry", "RegistryEntry", "builder_signature", "parse_spec"]

#: Contextual parameters the pipeline injects into builders (see
#: :meth:`Registry.build`); hidden from rendered signatures because users
#: never spell them inside a spec string.
_CONTEXT_PARAMS = frozenset({"code", "noise", "decoder_factory", "budget", "workers"})

#: Keywords :meth:`Registry.build` drops for builders that do not take them.
#: ``seed`` is offered as context too, but stays visible in rendered
#: signatures because it is also a spec argument (``random:seed=3``).
_CONTEXT_EXTRAS = _CONTEXT_PARAMS | {"seed"}

_VARIADIC = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)


def _coerce(token: str):
    """Coerce a spec-string argument token to int/float/bool, else keep str."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    return token


def parse_spec(spec: str) -> tuple[str, list, dict]:
    """Split ``"name:a,k=v"`` into ``("name", [a], {"k": v})``.

    The name may itself contain no ``:``; everything after the first ``:``
    is a comma-separated argument list where ``key=value`` tokens become
    keyword arguments and bare tokens positional ones.
    """
    name, _, argument_part = spec.partition(":")
    name = name.strip()
    positional: list = []
    keyword: dict = {}
    if argument_part.strip():
        for token in argument_part.split(","):
            token = token.strip()
            if not token:
                continue
            key, separator, value = token.partition("=")
            if separator:
                keyword[key.strip()] = _coerce(value.strip())
            else:
                positional.append(_coerce(token))
    return name, positional, keyword


def _format_default(value) -> str:
    """Render a builder default the way a spec string would spell it."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def builder_signature(builder: Callable) -> str:
    """Spec-string-style parameter signature of a registered builder.

    Renders the builder's user-facing parameters as the argument part of a
    spec string (``"p=0.001,eta=10.0"``), so ``repro list`` can show what
    each entry accepts without the user reading source.  Contextual
    parameters the pipeline injects (``code``, ``noise``, ...) are hidden;
    parameters without defaults render as ``name=<required>``; a
    ``**kwargs`` catch-all renders as ``...``.  Returns ``""`` for
    builders taking no user-facing arguments (or with unreadable
    signatures).
    """
    try:
        parameters = inspect.signature(builder).parameters
    except (TypeError, ValueError):
        return ""
    tokens: list[str] = []
    for name, parameter in parameters.items():
        if name in _CONTEXT_PARAMS:
            continue
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            tokens.append("...")
            continue
        if parameter.kind not in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            continue
        if parameter.default is inspect.Parameter.empty:
            tokens.append(f"{name}=<required>")
        else:
            tokens.append(f"{name}={_format_default(parameter.default)}")
    return ",".join(tokens)


@dataclass
class RegistryEntry:
    """One registered builder plus its discovery metadata."""

    name: str
    builder: Callable
    aliases: tuple[str, ...] = ()
    help: str = ""

    @property
    def signature(self) -> str:
        """Spec-string-style parameter signature (see :func:`builder_signature`)."""
        return builder_signature(self.builder)

    @property
    def spec_syntax(self) -> str:
        """The full spec-string syntax of this entry (``"name:args"`` or ``"name"``)."""
        signature = self.signature
        return f"{self.name}:{signature}" if signature else self.name


@dataclass
class Registry:
    """Name -> builder mapping with aliases, spec parsing and discovery."""

    kind: str
    _entries: dict[str, RegistryEntry] = field(default_factory=dict, repr=False)
    _aliases: dict[str, str] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str | None = None,
        *,
        aliases: tuple[str, ...] | list[str] = (),
        help: str = "",
    ) -> Callable:
        """Decorator registering a builder under ``name`` (default: its ``__name__``)."""

        def decorator(builder: Callable) -> Callable:
            self.add(name or builder.__name__.lstrip("_"), builder, aliases=aliases, help=help)
            return builder

        return decorator

    def add(
        self,
        name: str,
        builder: Callable,
        *,
        aliases: tuple[str, ...] | list[str] = (),
        help: str = "",
    ) -> None:
        """Imperatively register ``builder`` under ``name`` (used for bulk tables)."""
        if name in self._entries or name in self._aliases:
            raise ValueError(f"duplicate {self.kind} name {name!r}")
        entry = RegistryEntry(
            name=name,
            builder=builder,
            aliases=tuple(aliases),
            help=help or (inspect.getdoc(builder) or "").split("\n", 1)[0],
        )
        self._entries[name] = entry
        for alias in entry.aliases:
            if alias in self._entries or alias in self._aliases:
                raise ValueError(f"duplicate {self.kind} alias {alias!r}")
            self._aliases[alias] = name

    # ------------------------------------------------------------------
    # Lookup / construction
    # ------------------------------------------------------------------
    def entry(self, name: str) -> RegistryEntry:
        """Resolve ``name`` (canonical or alias) to its entry; KeyError otherwise."""
        canonical = self._aliases.get(name, name)
        try:
            return self._entries[canonical]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self.available())}"
            ) from None

    def build(self, spec: str, **extra):
        """Parse ``spec`` and call the builder with its arguments plus ``extra``.

        ``extra`` keyword arguments named in ``_CONTEXT_EXTRAS`` are
        *contextual* (e.g. the code object a noise model is being built for)
        and are silently dropped when the builder does not accept them, so
        callers can offer context unconditionally.  Every other argument,
        from the spec or from ``extra``, is bound against the builder's
        signature first: one that does not bind raises a one-line
        ``ValueError`` naming the kind, the entry, the argument and the
        accepted names, before anything is built.
        """
        name, positional, keyword = parse_spec(spec)
        entry = self.entry(name)
        signature = inspect.signature(entry.builder)
        parameters = signature.parameters
        takes_any = any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values())
        merged = {
            key: value
            for key, value in extra.items()
            if takes_any or key in parameters or key not in _CONTEXT_EXTRAS
        }
        merged.update(keyword)  # explicit spec arguments beat contextual extras
        try:
            signature.bind(*positional, **merged)
        except TypeError as error:
            accepted = [
                p.name
                for p in parameters.values()
                if p.kind not in _VARIADIC and p.name not in _CONTEXT_PARAMS
            ]
            raise ValueError(
                f"{self.kind} {entry.name!r}: {error}; accepted: {', '.join(accepted) or 'none'}"
            ) from None
        return entry.builder(*positional, **merged)

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def available(self) -> list[str]:
        """Sorted canonical names (aliases excluded)."""
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries or name in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self.available())

    def __len__(self) -> int:
        return len(self._entries)
