"""AlphaSyndrome reproduction: syndrome-measurement circuit scheduling for QEC codes.

The package layers:

``repro.api``        The front door: registries, RunSpec/Pipeline, the CLI.
``repro.pauli``      Pauli algebra and GF(2) linear algebra.
``repro.codes``      Stabilizer / CSS code library (surface, colour, BB, HGP, ...).
``repro.circuits``   Tick-based Clifford circuit IR and experiment builders.
``repro.noise``      Circuit-level noise models (IBM-Brisbane-derived).
``repro.sim``        Frame propagation, detector error models, sampling, tableau sim.
``repro.decoders``   MWPM, union-find, BP-OSD, lookup decoders.
``repro.scheduling`` Schedule representation, partitioning, baselines, hand-crafted orders.
``repro.core``       The AlphaSyndrome MCTS synthesiser and evaluation function.
``repro.analysis``   Space-time volume model and statistics helpers.
``repro.seeding``    SeedSequence-based derivation of per-stage random streams.
``repro.experiments``Drivers regenerating every table and figure of the paper.

Quickstart::

    from repro.api import Pipeline, RunSpec

    spec = RunSpec(code="surface:d=3", decoder="mwpm", scheduler="alphasyndrome")
    result = Pipeline(spec).result
    print(result.rates, result.depth)

The same run from the shell::

    repro run --code surface:d=3 --decoder mwpm --scheduler alphasyndrome

Codes, decoders, noise models, schedulers and samplers are built by name
through the ``repro.api`` registries (``repro.api.codes.build("steane")``,
``repro.api.decoders.build("mwpm")``).
"""

from repro.api import Budget, Pipeline, RunResult, RunSpec
from repro.core import AlphaSyndrome, MCTSConfig, SynthesisResult
from repro.noise import NoiseModel, brisbane_noise, non_uniform_noise, scaled_noise
from repro.scheduling import (
    Schedule,
    google_surface_schedule,
    lowest_depth_schedule,
    trivial_schedule,
)
from repro.sim import estimate_logical_error_rates

__version__ = "1.10.0"

__all__ = [
    "Budget",
    "Pipeline",
    "RunResult",
    "RunSpec",
    "AlphaSyndrome",
    "MCTSConfig",
    "SynthesisResult",
    "NoiseModel",
    "brisbane_noise",
    "scaled_noise",
    "non_uniform_noise",
    "Schedule",
    "trivial_schedule",
    "lowest_depth_schedule",
    "google_surface_schedule",
    "estimate_logical_error_rates",
    "__version__",
]
