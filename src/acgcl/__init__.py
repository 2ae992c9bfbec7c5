"""Adversarial curriculum graph contrastive learning on sampled subgraphs."""

from .augment import (MirrorGraphs, MirrorSearch, estimate_distance_distribution,
                      mirror_augment, mirror_search, quantile, semantic_assignment)
from .config import TrainConfig, parse_config
from .curriculum import (AclThresholds, SampleWeights, decay_thresholds, hard_acl_weights,
                         open_window, pacing_difficulty, soft_acl_weights, spl_weights)
from .encoder import GcnParams, init_gcn_params
from .graph import (Graph, SbmConfig, Splits, generate_sbm, load_dataset, load_graph,
                    make_splits, save_dataset)
from .losses import balance_loss, sinkhorn_w1, weighted_total_loss
from .sampler import (Subgraph, SubgraphSet, compute_ppr_scores, extract_subgraph,
                      sample_all_subgraphs, top_k_indices)
from .trainer import (OptimizerState, adam_step, curriculum_inputs, evaluate_probe, train,
                      write_report)

__version__ = "0.1.0"
