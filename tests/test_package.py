"""The package root: its exported names and the objects behind them."""

import kooplab

SUBMODULES = ["cli", "config", "consistency", "dynamics", "formulations", "numerics",
              "observables"]

# each exported name, in `__all__` order, under the submodule that defines it
HOMES = {
    "dynamics": ["ControlledSystem", "EvaluationGrid", "SnapshotDataset", "builtin_system",
                 "default_grid", "discretize", "generate_dataset", "load_dataset",
                 "save_dataset", "simulate"],
    "observables": ["Dictionary", "JointDictionary", "build_dictionary",
                    "build_joint_dictionary", "identity", "monomials", "rbf"],
    "formulations": ["VARIANTS", "fit_affine", "fit_bilinear", "fit_eigen", "fit_joint",
                     "fit_separable", "bilinear_to_joint", "williams_to_joint", "load_model",
                     "predict_step", "rollout", "save_model"],
    "consistency": ["CONDITION_IDS", "ConsistencyReport", "DEFAULT_TOLERANCE",
                    "HypothesisViolationError", "summarize"],
    "config": ["ExperimentConfig", "load_config", "parse_config"],
}


def test_root_exports_the_same_names_and_objects_as_its_submodules():
    names = [name for home in HOMES.values() for name in home]
    assert kooplab.__all__ == ["__version__", *SUBMODULES, *names]
    assert len(kooplab.__all__) == 45
    for module, home in HOMES.items():
        for name in home:
            assert getattr(kooplab, name) is getattr(getattr(kooplab, module), name), name
    assert kooplab.williams_to_joint is kooplab.formulations.bilinear_to_joint

    from kooplab import cli

    assert cli is kooplab.cli and callable(cli.main)
