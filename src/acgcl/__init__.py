"""Adversarial curriculum graph contrastive learning on sampled subgraphs."""

from .augment import MirrorSearch, mirror_search, quantile, semantic_assignment
from .config import TrainConfig, parse_config
from .curriculum import (AclThresholds, decay_thresholds, open_window, pacing_difficulty,
                         weight_fields, weights_for_mode)
from .encoder import GcnParams, init_gcn_params
from .graph import (Graph, SbmConfig, Splits, generate_sbm, load_dataset, make_splits,
                    save_dataset)
from .losses import balance_loss, sinkhorn_w1, weighted_total_loss
from .sampler import (Subgraph, SubgraphSet, compute_ppr_scores, sample_all_subgraphs,
                      top_k_indices)
from .trainer import (OptimizerState, adam_step, curriculum_inputs, evaluate_probe, train,
                      write_report)

__version__ = "0.1.0"
