# Fit every formulation of a linear control system and verify each one.
#
# The linear system xdot = A x + B u is the friendliest possible case: with
# identity observables every formulation in the library can represent it
# exactly, so every applicable consistency condition should come back with
# residuals at roundoff level. This script is the "everything works" baseline
# that the obstruction demos contrast against.

import numpy as np

from kooplab import (
    builtin_system,
    generate_dataset,
    default_grid,
    fit_affine,
    fit_separable,
    fit_joint,
    identity,
    build_joint_dictionary,
    summarize,
)
from kooplab.consistency import check_model


def main():
    system = builtin_system("linear")
    grid = default_grid(system)

    # Derivative snapshots: (x, u, xdot) triples on the analytic field.
    data = generate_dataset(system, 400, seed=11, kind="continuous-derivative")
    print(f"system: {system.name} ({system.time_kind}-time, "
          f"{system.state_dim} states, {system.input_dim} inputs)")
    print(f"dataset: {data.n_samples} derivative samples, seed 11")
    print()

    dict_x = identity(2)
    dict_u = identity(1, "u")
    dict_xu = build_joint_dictionary(2, 1, state_degree=1, input_degree=1)

    affine = fit_affine(data, dict_x)
    separable = fit_separable(data, dict_x, dict_u)
    joint = fit_joint(data, dict_x, dict_xu)

    print("training residuals (exact representation => roundoff):")
    for m in (affine, separable, joint):
        print(f"  {m.variant:<10} {m.training_residual:.3e}")
    print()

    # Each formulation gets the condition set that applies to it.
    reports = []
    for m in (affine, separable, joint):
        reports.extend(check_model(system, m, grid, seed=11)[0])

    summary = summarize(reports)
    print(summary.to_text())
    print()
    print(f"overall verdict: {summary.overall_verdict}")
    worst = max(r.max_residual for r in reports)
    print(f"largest residual across all {len(reports)} conditions: {worst:.3e}")


if __name__ == "__main__":
    main()
