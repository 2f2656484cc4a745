"""Sparse knowledge-graph completion with relation reasoning.

A weight-free attention GCN updates entity states over the inverse- and
self-loop-extended training graph while a mixing block refines relation
states; everything trains end to end through a small reverse-mode autodiff
engine with finite-difference verification built in.
"""

from .autodiff import Tensor
from .evaluation import (EvalReport, FilterIndex, build_filter_index, evaluate_split, filtered_rank,
                         oracle_rank)
from .explain import ExplainedPath, enumerate_paths, explain, normalize_attentions, to_dot, to_records
from .kgdata import (
    DegreeReport,
    ExtendedGraph,
    SparsifyReport,
    TripleStore,
    Vocabulary,
    degree_report,
    extend_triples,
    load_dataset,
    sparsify_subset,
)
from .model import HoGRN
from .optim import (
    Adam,
    GradCheckReport,
    ParameterStore,
    embedding_init,
    finite_difference_check,
    xavier_init,
)
from .seeding import substream
from .synthetic import rule_composition_kg
from .training import (
    TrainConfig,
    TrainResult,
    bce_loss,
    build_queries,
    fit,
    infonce_loss,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "DegreeReport",
    "EvalReport",
    "ExplainedPath",
    "ExtendedGraph",
    "FilterIndex",
    "GradCheckReport",
    "HoGRN",
    "ParameterStore",
    "SparsifyReport",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "TripleStore",
    "Vocabulary",
    "bce_loss",
    "build_filter_index",
    "build_queries",
    "degree_report",
    "embedding_init",
    "enumerate_paths",
    "evaluate_split",
    "explain",
    "extend_triples",
    "filtered_rank",
    "finite_difference_check",
    "fit",
    "infonce_loss",
    "load_checkpoint",
    "load_dataset",
    "normalize_attentions",
    "oracle_rank",
    "restore_model",
    "rule_composition_kg",
    "save_checkpoint",
    "sparsify_subset",
    "substream",
    "to_dot",
    "to_records",
    "xavier_init",
    "__version__",
]
