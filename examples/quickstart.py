"""Quickstart: synthesise a syndrome-measurement schedule for one code.

Reproduces the paper's headline workflow end to end on the distance-3
rotated surface code through the ``repro.api`` pipeline: declare a
:class:`~repro.api.RunSpec`, let the ``"alphasyndrome"`` scheduler
synthesise a schedule, then sweep the scheduler field to compare against
the trivial, lowest-depth and Google hand-crafted baselines — each
comparison is one ``spec.replace(scheduler=...)`` away.

The equivalent shell one-liner is::

    repro run --code surface:d=3 --decoder mwpm --scheduler alphasyndrome --shots 2000

Run with::

    python examples/quickstart.py [--shots 2000] [--iterations 8]
"""

from __future__ import annotations

import argparse

from repro.api import Pipeline, RunSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--code", default="surface:d=3", help="registry spec, e.g. surface:d=5")
    parser.add_argument("--decoder", default="mwpm")
    parser.add_argument("--shots", type=int, default=2000)
    parser.add_argument("--synthesis-shots", type=int, default=300)
    parser.add_argument("--iterations", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = RunSpec(
        code=args.code,
        decoder=args.decoder,
        scheduler="alphasyndrome",
        seed=args.seed,
    )
    spec = spec.replace(
        budget=spec.budget.replace(
            shots=args.shots,
            synthesis_shots=args.synthesis_shots,
            iterations_per_step=args.iterations,
        )
    )

    print("synthesising schedule with AlphaSyndrome ...")
    pipeline = Pipeline(spec)
    synthesis = pipeline.synthesis
    print(f"code: {pipeline.code!r}, decoder: {spec.decoder}")
    print(
        f"  used {synthesis.evaluations} rollout evaluations, depth {pipeline.schedule.depth}"
    )

    schedulers = ["alphasyndrome", "trivial", "lowest_depth"]
    if pipeline.code.metadata.get("family") == "rotated_surface":
        schedulers.append("google")

    print(f"\n{'schedule':<14} {'depth':>5} {'err_X':>10} {'err_Z':>10} {'overall':>10}")
    for scheduler in schedulers:
        run = pipeline if scheduler == "alphasyndrome" else Pipeline(spec.replace(scheduler=scheduler))
        rates = run.rates
        print(
            f"{scheduler:<14} {run.schedule.depth:>5} {rates.error_x:>10.3e} "
            f"{rates.error_z:>10.3e} {rates.overall:>10.3e}"
        )


if __name__ == "__main__":
    main()
