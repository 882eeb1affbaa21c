"""Lifted linear models of controlled dynamical systems.

The package fits five formulations of a linear operator acting on
dictionary observables (affine, separable, joint, bilinear, eigen) and
evaluates the dynamical-consistency conditions each one must satisfy,
reported as residual fields over an evaluation grid.

Importing the package imports its numerical submodules and re-exports
their main names. The batch front end, `kooplab.cli`, loads on its own:
`from kooplab import cli`, `python -m kooplab` or the `kooplab` command.
"""

from __future__ import annotations

from . import config, consistency, dynamics, formulations, numerics, observables
from .config import ExperimentConfig, load_config, parse_config
from .consistency import (CONDITION_IDS, DEFAULT_TOLERANCE, ConsistencyReport,
                          HypothesisViolationError, summarize)
from .dynamics import (ControlledSystem, EvaluationGrid, SnapshotDataset, builtin_system,
                       default_grid, discretize, generate_dataset, load_dataset, save_dataset,
                       simulate)
from .formulations import (VARIANTS, bilinear_to_joint, fit_affine, fit_bilinear, fit_eigen,
                           fit_joint, fit_separable, load_model, predict_step, rollout,
                           save_model, williams_to_joint)
from .observables import (Dictionary, JointDictionary, build_dictionary, build_joint_dictionary,
                          identity, monomials, rbf)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "cli",
    "config",
    "consistency",
    "dynamics",
    "formulations",
    "numerics",
    "observables",
    "ControlledSystem",
    "EvaluationGrid",
    "SnapshotDataset",
    "builtin_system",
    "default_grid",
    "discretize",
    "generate_dataset",
    "load_dataset",
    "save_dataset",
    "simulate",
    "Dictionary",
    "JointDictionary",
    "build_dictionary",
    "build_joint_dictionary",
    "identity",
    "monomials",
    "rbf",
    "VARIANTS",
    "fit_affine",
    "fit_bilinear",
    "fit_eigen",
    "fit_joint",
    "fit_separable",
    "bilinear_to_joint",
    "williams_to_joint",
    "load_model",
    "predict_step",
    "rollout",
    "save_model",
    "CONDITION_IDS",
    "ConsistencyReport",
    "DEFAULT_TOLERANCE",
    "HypothesisViolationError",
    "summarize",
    "ExperimentConfig",
    "load_config",
    "parse_config",
]
