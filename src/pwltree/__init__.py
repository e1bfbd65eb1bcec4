"""Sequential piecewise-linear regression over binary-tree partitions.

Two collapsed mixture learners — hard fixed boundaries
(:class:`FixedTreeRegressor`) and trained soft boundaries
(:class:`AdaptiveTreeRegressor`) — reproduce, at polynomial cost, the
exact output of an explicit linear mixture over the doubly exponential
family of subtree partitions (:class:`DirectMixtureRegressor`), plus the
stream generators, baselines and benchmark harness used to exercise them.
"""

from .adaptive_tree import AdaptiveTreeRegressor
from .baselines import GaussianKernelRegressor, LinearFilter, VolterraFilter, vf_features
from .datagen import Stream, generate, stream_to_csv
from .fixed_tree import FixedTreeRegressor
from .harness import (
    ExperimentConfig,
    RunMetrics,
    load_csv_dataset,
    run_experiment,
    run_stream,
    verify_equivalence,
)
from .mixture import DirectMixtureRegressor
from .separators import initial_directions
from .trees import (
    beta,
    enumerate_partitions,
    gamma,
    rho,
    rho_table,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveTreeRegressor",
    "DirectMixtureRegressor",
    "ExperimentConfig",
    "FixedTreeRegressor",
    "GaussianKernelRegressor",
    "LinearFilter",
    "RunMetrics",
    "Stream",
    "VolterraFilter",
    "beta",
    "enumerate_partitions",
    "gamma",
    "generate",
    "initial_directions",
    "load_csv_dataset",
    "rho",
    "rho_table",
    "run_experiment",
    "run_stream",
    "stream_to_csv",
    "verify_equivalence",
    "vf_features",
]
