"""Privacy-preserving federated clustering over lattice-partitioned data."""

from .experiment import ExperimentSpec, run_experiment, load_config
from .federation import (SessionConfig, run_dc_clustering,
                         run_in_process_session, run_tcp_session)
from .metrics import ari, nmi, acc, score_all

__version__ = "0.1.0"

__all__ = ["run_dc_clustering", "ExperimentSpec", "run_experiment",
           "load_config", "SessionConfig", "run_in_process_session",
           "run_tcp_session", "ari", "nmi", "acc", "score_all",
           "__version__"]
