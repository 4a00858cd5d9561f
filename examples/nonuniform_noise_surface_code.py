"""Surface-code scheduling under a non-uniform error model (Figure 15).

Google's zig-zag schedule is designed for a uniform error model; when the
ancilla qubits have unequal error rates the best ordering changes.  This
example uses the registry's ``"nonuniform"`` noise spec (which draws a
per-ancilla profile for the code it is built against), synthesises a
schedule tailored to it with the ``"alphasyndrome"`` scheduler, and sweeps
the scheduler field to compare against Google's schedule and the
lowest-depth baseline under the same profile.

Run with::

    python examples/nonuniform_noise_surface_code.py [--distance 3] [--variance 0.6]
"""

from __future__ import annotations

import argparse

from repro.api import Budget, Pipeline, RunSpec
from repro.seeding import named_stream, stream_to_int


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--distance", type=int, default=3)
    parser.add_argument("--variance", type=float, default=0.6)
    parser.add_argument("--shots", type=int, default=2000)
    parser.add_argument("--synthesis-shots", type=int, default=250)
    parser.add_argument("--iterations", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = RunSpec(
        code=f"surface:d={args.distance}",
        noise=f"nonuniform:variance={args.variance},"
        f"seed={stream_to_int(named_stream(args.seed, 'noise'))}",
        decoder="mwpm",
        scheduler="alphasyndrome",
        seed=args.seed,
        budget=Budget(
            shots=args.shots,
            synthesis_shots=args.synthesis_shots,
            iterations_per_step=args.iterations,
        ),
    )
    pipeline = Pipeline(spec)

    code = pipeline.code
    ancillas = [code.num_qubits + s for s in range(code.num_stabilizers)]
    print(f"code: {code!r}")
    print("per-ancilla two-qubit error rates:")
    for ancilla in ancillas:
        (gate_op,) = pipeline.noise.ops("gate", (ancilla, 0))
        print(f"  ancilla {ancilla}: {gate_op.probability:.5f}")

    print("\nsynthesising noise-aware schedule ...")
    runs = {"alphasyndrome": pipeline}
    for scheduler in ("google", "lowest_depth"):
        runs[scheduler] = Pipeline(spec.replace(scheduler=scheduler))

    print(f"\n{'schedule':<14} {'depth':>5} {'err_X':>10} {'err_Z':>10} {'overall':>10}")
    for label, run in runs.items():
        rates = run.rates
        print(
            f"{label:<14} {run.schedule.depth:>5} {rates.error_x:>10.3e} "
            f"{rates.error_z:>10.3e} {rates.overall:>10.3e}"
        )


if __name__ == "__main__":
    main()
