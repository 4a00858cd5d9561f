"""The five concrete registries behind ``repro.api``.

``codes``, ``decoders``, ``noise``, ``schedulers`` and ``samplers`` are the
single source of truth for everything the library can construct by name.
Every builder declares the spec arguments it takes, so ``repro list`` shows
them and an unknown one fails at build time (see
:meth:`repro.api.registry.Registry.build`).

Registered builders follow per-registry conventions:

* **codes** — builder returns a :class:`~repro.codes.base.StabilizerCode`.
  Parametric families take spec arguments (``"surface:d=5"``); the legacy
  fixed names (``"rotated_surface_d5"``, ...) remain registered for
  backwards compatibility with results files and older scripts.
* **decoders** — builder returns a *decoder factory*
  (``DetectorErrorModel -> Decoder``), so constructor arguments can be bound
  from the spec before the DEM exists (``"lookup:max_order=3"``).
* **noise** — builder returns a :class:`~repro.noise.NoiseModel`.  Builders
  may declare an optional ``code`` parameter to receive the code being run
  (e.g. ``"nonuniform"`` needs its ancilla indices).
* **schedulers** — builder takes the code and returns either a
  :class:`~repro.scheduling.Schedule` or a full
  :class:`~repro.core.SynthesisResult` (the ``"alphasyndrome"`` scheduler).
  Builders may declare optional ``noise``/``decoder_factory``/``budget``/
  ``seed`` parameters to receive the run context.
* **samplers** — builder returns a *sampler factory*
  ``(circuit, dem) -> sampler`` where the sampler exposes
  ``sample(shots, seed=...) -> SampleBatch``.  The factory form lets spec
  arguments bind before the per-basis circuit/DEM exist, mirroring the
  decoder convention, and the factories are picklable ``partial`` objects
  (or plain classes) so the chunked process pool can ship them.
"""

from __future__ import annotations

from functools import partial

from repro.api.registry import Registry
from repro.codes.bivariate_bicycle import bb_code_72_12_6, bivariate_bicycle_code
from repro.codes.color import hexagonal_color_code, square_octagonal_color_code, steane_code
from repro.codes.hypergraph_product import (
    hyperbolic_color_substitute,
    hyperbolic_surface_substitute,
    toric_code,
)
from repro.codes.small import five_qubit_code, repetition_code, shor_code
from repro.codes.surface import (
    defect_surface_code,
    planar_surface_code,
    rectangular_surface_code,
    rotated_surface_code,
)
from repro.codes.xzzx import xzzx_surface_code
from repro.decoders.bposd import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_SCALING_FACTOR,
    BPOSDDecoder,
    check_bposd_parameters,
)
from repro.decoders.lookup import DEFAULT_MAX_ORDER, LookupDecoder, check_lookup_parameters
from repro.decoders.matching import MWPMDecoder
from repro.decoders.union_find import UnionFindDecoder
from repro.noise.models import (
    biased_noise,
    brisbane_noise,
    dephasing_noise,
    depolarizing_noise,
    non_uniform_noise,
    scaled_noise,
)
from repro.scheduling.baselines import (
    lowest_depth_schedule,
    random_order_schedule,
    trivial_schedule,
)
from repro.scheduling.handcrafted import (
    anticlockwise_surface_schedule,
    clockwise_surface_schedule,
    google_surface_schedule,
    ibm_bb_schedule,
)
from repro.sim.frames import FrameSampler, TableauSampler
from repro.sim.sampler import DemSampler

__all__ = [
    "codes",
    "decoders",
    "noise",
    "schedulers",
    "samplers",
    "register_code",
    "register_decoder",
    "register_noise",
    "register_scheduler",
    "register_sampler",
]

codes = Registry("code")
decoders = Registry("decoder")
noise = Registry("noise")
schedulers = Registry("scheduler")
samplers = Registry("sampler")

#: Decorators for third-party / downstream registration.
register_code = codes.register
register_decoder = decoders.register
register_noise = noise.register
register_scheduler = schedulers.register
register_sampler = samplers.register


# ----------------------------------------------------------------------
# Codes: parametric families
# ----------------------------------------------------------------------
@register_code("surface", aliases=("rotated_surface",), help="Rotated surface code of distance d")
def _surface(d: int = 3):
    return rotated_surface_code(int(d))


@register_code("planar_surface", help="Unrotated planar surface code of distance d")
def _planar_surface(d: int = 3):
    return planar_surface_code(int(d))


@register_code("rectangular_surface", help="Rotated surface code with dx != dz")
def _rectangular_surface(rows: int = 5, cols: int = 9):
    return rectangular_surface_code(int(rows), int(cols))


@register_code("defect_surface", help="Surface code with a measurement defect")
def _defect_surface(d: int = 5):
    return defect_surface_code(int(d))


@register_code("color", aliases=("hexagonal_color",), help="Hexagonal (6.6.6) colour code")
def _color(d: int = 3):
    return hexagonal_color_code(int(d))


@register_code("square_octagonal", help="Square-octagonal (4.8.8) colour code")
def _square_octagonal(d: int = 3):
    return square_octagonal_color_code(int(d))


@register_code("xzzx", help="XZZX-twisted rotated surface code")
def _xzzx(d: int = 3):
    return xzzx_surface_code(int(d))


@register_code("toric", help="Toric code on a d x d torus")
def _toric(d: int = 3):
    return toric_code(int(d))


@register_code("repetition", help="Z-type repetition code of length d")
def _repetition(d: int = 3):
    return repetition_code(int(d))


@register_code("bb", aliases=("bivariate_bicycle",), help="Bivariate bicycle code bb:l,m")
def _bb(l: int = 3, m: int = 3):  # noqa: E741 - paper notation
    monomials = [(0, 0), (1, 0), (0, 1)]
    return bivariate_bicycle_code(int(l), int(m), monomials, monomials, name=f"bb_{l}x{m}")


@register_code("hyperbolic_surface", help="Hyperbolic surface-code substitute by variant")
def _hyperbolic_surface(variant: str = "small_k4"):
    return hyperbolic_surface_substitute(variant)


@register_code("hyperbolic_color", help="Hyperbolic colour-code substitute by variant")
def _hyperbolic_color(variant: str = "k4"):
    return hyperbolic_color_substitute(variant)


@register_code("stimfile", help="Circuit imported from a stim text file: stimfile:PATH")
def _stimfile(path: str = ""):
    # Imported lazily: the stim converters are only needed for this spec.
    from repro.io.imported import ImportedCircuit
    from repro.io.stim_text import load_stim_circuit

    # parse_spec coerces bare tokens (a path like "7" or "1.5" would arrive
    # as int/float); the file system wants the literal text back.
    path = str(path)
    if not path:
        raise ValueError("stimfile needs a path: code='stimfile:circuits/memory.stim'")
    return ImportedCircuit(circuit=load_stim_circuit(path), source=path)


# ----------------------------------------------------------------------
# Codes: legacy fixed names (kept verbatim from the original named-code
# table so every name in historical results files still resolves).
# ----------------------------------------------------------------------
_FIXED_CODES = {
    # Surface-code family (Figure 12, Figure 15).
    "rotated_surface_d3": lambda: rotated_surface_code(3),
    "rotated_surface_d5": lambda: rotated_surface_code(5),
    "rotated_surface_d7": lambda: rotated_surface_code(7),
    "rotated_surface_d9": lambda: rotated_surface_code(9),
    "rotated_surface_5x9": lambda: rectangular_surface_code(5, 9),
    "planar_surface_d3": lambda: planar_surface_code(3),
    "planar_surface_d5": lambda: planar_surface_code(5),
    # Defect surface codes (Table 2).
    "defect_surface_d5": lambda: defect_surface_code(5),
    "defect_surface_d7": lambda: defect_surface_code(7),
    # Hexagonal colour codes (Table 2, Table 4).
    "hexagonal_color_d3": lambda: hexagonal_color_code(3),
    "hexagonal_color_d5": lambda: hexagonal_color_code(5),
    "hexagonal_color_d7": lambda: hexagonal_color_code(7),
    "hexagonal_color_d9": lambda: hexagonal_color_code(9),
    # Square-octagonal colour codes (substituted; see DESIGN.md).
    "square_octagonal_d3": lambda: square_octagonal_color_code(3),
    "square_octagonal_d5": lambda: square_octagonal_color_code(5),
    "square_octagonal_d7": lambda: square_octagonal_color_code(7),
    # Hyperbolic substitutes (Table 2).
    "hyperbolic_surface_k4": lambda: hyperbolic_surface_substitute("small_k4"),
    "hyperbolic_surface_toric3": lambda: hyperbolic_surface_substitute("toric_3"),
    "hyperbolic_surface_toric4": lambda: hyperbolic_surface_substitute("toric_4"),
    "hyperbolic_surface_k16": lambda: hyperbolic_surface_substitute("medium_k16"),
    "hyperbolic_color_k4": lambda: hyperbolic_color_substitute("k4"),
    "hyperbolic_color_k8": lambda: hyperbolic_color_substitute("k8"),
    "hyperbolic_color_k16": lambda: hyperbolic_color_substitute("k16"),
    # Bivariate bicycle (Figure 13).  "bb_18" is a small instance of the same
    # construction used where the full [[72,12,6]] code would be too slow.
    "bb_72_12_6": bb_code_72_12_6,
    "bb_18": lambda: bivariate_bicycle_code(
        3, 3, [(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)], name="bb_18"
    ),
    # XZZX code mentioned in Section 5.3.1.
    "xzzx_d3": lambda: xzzx_surface_code(3),
    "xzzx_d5": lambda: xzzx_surface_code(5),
    # Small reference codes.
    "steane": steane_code,
    "five_qubit": five_qubit_code,
    "shor": shor_code,
    "repetition_3": lambda: repetition_code(3),
    "repetition_5": lambda: repetition_code(5),
    "toric_d3": lambda: toric_code(3),
    "toric_d4": lambda: toric_code(4),
}

for _name, _builder in _FIXED_CODES.items():
    codes.add(_name, _builder, help="Fixed-parameter instance (legacy name)")


# ----------------------------------------------------------------------
# Decoders (builders return a DetectorErrorModel -> Decoder factory).
# The factories are decoder classes or ``functools.partial`` objects rather
# than lambdas so they pickle into process-pool workers — the sharded hot path
# (repro.parallel) ships the factory, not the decoder instance.
# ----------------------------------------------------------------------
@register_decoder("mwpm", aliases=("matching",), help="Minimum-weight perfect matching")
def _mwpm():
    return MWPMDecoder


@register_decoder("unionfind", aliases=("union_find", "uf"), help="(Hypergraph) union-find")
def _unionfind():
    return UnionFindDecoder


@register_decoder("bposd", aliases=("bp_osd",), help="Belief propagation + ordered statistics")
def _bposd(
    max_iterations: int = DEFAULT_MAX_ITERATIONS, scaling_factor: float = DEFAULT_SCALING_FACTOR
):
    check_bposd_parameters(max_iterations, scaling_factor)
    return partial(BPOSDDecoder, max_iterations=max_iterations, scaling_factor=scaling_factor)


@register_decoder("lookup", help="Most-likely-error table (exact, small DEMs only)")
def _lookup(max_order: int = DEFAULT_MAX_ORDER):
    check_lookup_parameters(max_order)
    return partial(LookupDecoder, max_order=max_order)


# ----------------------------------------------------------------------
# Noise models
# ----------------------------------------------------------------------
@register_noise("brisbane", aliases=("default",), help="Uniform IBM-Brisbane-derived model")
def _brisbane():
    return brisbane_noise()


@register_noise("scaled", aliases=("uniform",), help="Uniform model at rate p (Figure 14 sweep)")
def _scaled(p: float = 0.001):
    return scaled_noise(float(p))


@register_noise("depolarizing", help="Explicit two-qubit / idle / readout rates")
def _depolarizing(
    two_qubit: float = 0.0074,
    idle: float = 0.0052,
    measurement: float = 0.0,
    reset: float = 0.0,
):
    return depolarizing_noise(float(two_qubit), float(idle), float(measurement), float(reset))


@register_noise("noiseless", help="All error rates zero (debugging)")
def _noiseless():
    return depolarizing_noise(0.0, 0.0)


# The preset functions register directly: parse_spec already coerces spec
# tokens to int/float/bool/None, so one definition carries the signature,
# the defaults and what `repro list` advertises.
register_noise(
    "biased", help="Z-biased Pauli gate+idle channels at rate p, bias eta (eta=1 = depolarizing)"
)(biased_noise)
register_noise(
    "dephasing", help="Pure-Z dephasing at rate p on idles (and gates unless gates=false)"
)(dephasing_noise)


@register_noise("nonuniform", aliases=("non_uniform",), help="Per-ancilla rate variation (Fig. 15)")
def _nonuniform(variance: float = 0.5, seed: "int | None" = 7, code=None):
    if code is None:
        raise ValueError(
            "the 'nonuniform' noise model needs the code it is built for; "
            "construct it through Pipeline/RunSpec or pass code=..."
        )
    ancillas = [code.num_qubits + s for s in range(code.num_stabilizers)]
    # "nonuniform:seed=None" (e.g. a figure15 suite built from an unseeded
    # config) draws a fresh profile, matching the unseeded legacy driver.
    return non_uniform_noise(
        ancillas, variance=float(variance), seed=None if seed is None else int(seed)
    )


# ----------------------------------------------------------------------
# Schedulers
# ----------------------------------------------------------------------
@register_scheduler("trivial", help="Lexical-order baseline")
def _trivial(code):
    return trivial_schedule(code)


@register_scheduler("lowest_depth", aliases=("lowest",), help="Depth-optimal edge colouring")
def _lowest_depth(code):
    return lowest_depth_schedule(code)


@register_scheduler("random", help="Uniformly random per-stabilizer order")
def _random(code, seed=None):
    import random as _random_module

    rng = None if seed is None else _random_module.Random(int(seed))
    return random_order_schedule(code, rng=rng)


@register_scheduler("google", help="Google zig-zag surface-code schedule")
def _google(code):
    return google_surface_schedule(code)


@register_scheduler("clockwise", help="Clockwise hand-crafted surface-code order")
def _clockwise(code):
    return clockwise_surface_schedule(code)


@register_scheduler("anticlockwise", help="Anti-clockwise hand-crafted surface-code order")
def _anticlockwise(code):
    return anticlockwise_surface_schedule(code)


@register_scheduler("ibm_bb", help="Monomial-ordered bivariate-bicycle schedule")
def _ibm_bb(code):
    return ibm_bb_schedule(code)


# ----------------------------------------------------------------------
# Samplers (builders return a (circuit, dem) -> sampler factory; samplers
# expose sample(shots, seed=...) -> SampleBatch).  Like decoders, the
# factories are ``partial`` objects / classes so they pickle into workers.
# ----------------------------------------------------------------------
@register_sampler("dem", help="DEM mechanism sampler, first-order fault decomposition")
def _dem_sampler():
    return DemSampler


@register_sampler(
    "frames", aliases=("frame",), help="Batched Pauli-frame circuit-level propagator"
)
def _frames_sampler():
    return FrameSampler


@register_sampler("tableau", help="Per-shot stabilizer-tableau reference")
def _tableau_sampler():
    return TableauSampler


@register_scheduler(
    "alphasyndrome",
    aliases=("alpha", "mcts"),
    help="AlphaSyndrome MCTS synthesis (returns a SynthesisResult)",
)
def _alphasyndrome(
    code,
    *,
    noise=None,
    decoder_factory=None,
    budget=None,
    seed=0,
    workers=1,
    rollout_batch=1,
    compile_decoder=None,
):
    # Imported lazily: repro.core pulls in the MCTS machinery, which nothing
    # else in the registry layer needs.
    from repro.api.spec import Budget
    from repro.core.alphasyndrome import AlphaSyndrome
    from repro.core.mcts import MCTSConfig
    from repro.seeding import stage_seed

    if noise is None:
        noise = brisbane_noise()
    if compile_decoder is not None:
        # Cross-decoder runs (the paper's Table 4): synthesise the schedule
        # against ``compile_decoder`` while the run's own decoder does the
        # final evaluation, e.g. RunSpec(decoder="unionfind",
        # scheduler="alphasyndrome:compile_decoder=bposd").
        decoder_factory = decoders.build(str(compile_decoder))
    if decoder_factory is None:
        decoder_factory = decoders.build("mwpm")
    # The run's Budget is the one place the search size is set.
    budget = budget or Budget()
    synthesis_seed = stage_seed(seed, "synthesis")
    alpha = AlphaSyndrome(
        code=code,
        noise=noise,
        decoder_factory=decoder_factory,
        shots=budget.synthesis_shots,
        mcts_config=MCTSConfig(
            iterations_per_step=budget.iterations_per_step,
            seed=0 if synthesis_seed is None else synthesis_seed,
            max_total_evaluations=budget.max_evaluations,
            # An explicit search hyper-parameter ("alphasyndrome:rollout_batch=8"),
            # deliberately NOT derived from `workers` — worker count must never
            # change the search trajectory (bit-identical results per seed).
            # MCTSConfig refuses anything but an integer >= 1.
            rollout_batch=rollout_batch,
        ),
        seed=0 if synthesis_seed is None else synthesis_seed,
        workers=int(workers),
    )
    return alpha.synthesize()
