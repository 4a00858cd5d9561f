"""``repro.api`` — the single front door to the library.

Three pillars:

* **Registries** (:data:`codes`, :data:`decoders`, :data:`noise`,
  :data:`schedulers`) — extensible name -> builder tables with decorator
  registration and spec-string parsing (``"surface:d=5"``,
  ``"lookup:max_order=3"``).
* **Declarative runs** (:class:`RunSpec`, :class:`Budget`,
  :class:`Pipeline`) — a frozen JSON-round-trippable config executed as a
  lazily staged pipeline with cached artifacts
  (``.schedule``/``.circuit``/``.dem``/``.syndromes``/``.rates``) and
  optional process-pool shot sharding.
* **CLI** — the ``repro`` console script (:mod:`repro.api.cli`) with
  ``run`` (every scheduler, synthesis included), ``sweep``, ``list``,
  ``experiments`` and the serve and stim-interop subcommands.

Quickstart::

    from repro.api import Pipeline, RunSpec

    spec = RunSpec(code="surface:d=3", decoder="mwpm", scheduler="lowest_depth")
    rates = Pipeline(spec).rates
    print(rates)
"""

from repro.api.pipeline import Pipeline, RunResult
from repro.api.registries import (
    codes,
    decoders,
    noise,
    register_code,
    register_decoder,
    register_noise,
    register_scheduler,
    schedulers,
)
from repro.api.registry import Registry, parse_spec
from repro.api.spec import Budget, RunSpec

__all__ = [
    "Registry",
    "parse_spec",
    "codes",
    "decoders",
    "noise",
    "schedulers",
    "register_code",
    "register_decoder",
    "register_noise",
    "register_scheduler",
    "Budget",
    "RunSpec",
    "Pipeline",
    "RunResult",
]
