"""Training loop: per-epoch mirror graphs at the paced difficulty, inner
steps with curriculum reweighting and Adam updates, early stopping on a
validation probe.

``curriculum_inputs`` is the run set-up that train, augment-inspect and
validate-difficulty share. Its distance distribution has a fixed per-run
seed (the subgraph set never changes, so the distance threshold is a
deterministic, non-decreasing function of the paced difficulty). Every
pair's best mirror is searched once per run; each epoch thresholds the
stored mirrors at its distance, then runs ``inner_steps`` mini-batch
updates. Thresholds are initialized from the first step's observed losses
each epoch and widen every step. Patience decrements whenever validation
accuracy fails to improve; it never resets.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .augment import (DistanceDistribution, MirrorSearch, SemanticAssignment,
                      estimate_distance_distribution, mirror_search, quantile,
                      semantic_assignment)
from .config import TrainConfig
from .curriculum import (AclThresholds, SampleWeights, decay_thresholds, init_thresholds,
                         pacing_difficulty, weights_for_mode)
from .encoder import (GcnParams, derangement, gcn_forward_batched, init_gcn_params,
                      sym_normalized_adjacency)
from .errors import ConfigError, ContractError, ShapeError, TrainingDiverged
from .graph import Graph, Splits, load_dataset, make_splits
from .losses import (balance_loss, inter_graph_losses_grouped,
                     intra_graph_losses_batched, per_sample_losses_batched,
                     weighted_total_loss)
from .sampler import Subgraph, sample_all_subgraphs
from .util import ROLE_BALANCE, ROLE_BATCH, ROLE_DISTANCES, ROLE_SHUFFLE, rng_for

CHECKPOINT_VERSION = 1
EMBED_BLOCK = 256


# ---------------------------------------------------------------------------
# Adam

@dataclass
class OptimizerState:
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_optimizer(params: list[np.ndarray]) -> OptimizerState:
    return OptimizerState(
        first_moment=[np.zeros_like(p) for p in params],
        second_moment=[np.zeros_like(p) for p in params],
    )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: OptimizerState, lr: float) -> tuple[list[np.ndarray], OptimizerState]:
    """Bias-corrected Adam update; returns fresh arrays and state."""
    if len(params) != len(grads):
        raise ContractError(f"{len(params)} params vs {len(grads)} grads")
    t = state.step + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise ContractError(f"param shape {p.shape} vs grad shape {g.shape}")
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + state.eps))
        new_m.append(m)
        new_v.append(v)
    return new_params, OptimizerState(new_m, new_v, t, state.beta1, state.beta2, state.eps)


# ---------------------------------------------------------------------------
# Batched encoding helpers

@dataclass
class EncodedViews:
    """Constant per-subgraph inputs for the batched forward pass."""
    a_hat: np.ndarray          # (n, k, k)
    features: np.ndarray       # (n, k, dim)

    def batch(self, ids: np.ndarray):
        k = self.a_hat.shape[1]
        feats = self.features[ids].reshape(len(ids) * k, -1)
        return self.a_hat[ids], feats


def encoded_views(subgraphs: list[Subgraph]) -> EncodedViews:
    a_hat = sym_normalized_adjacency(np.stack([s.adjacency for s in subgraphs]))
    features = np.stack([s.features for s in subgraphs])
    return EncodedViews(a_hat=a_hat, features=features)


def compute_center_embeddings(params: GcnParams, subgraphs: list[Subgraph]) -> np.ndarray:
    """Embedding of every node = center row of its own subgraph embedding.

    Subgraphs are encoded EMBED_BLOCK at a time, so the stacked inputs never
    exceed one block's worth.
    """
    blocks = []
    for start in range(0, len(subgraphs), EMBED_BLOCK):
        views = encoded_views(subgraphs[start:start + EMBED_BLOCK])
        b, k = views.a_hat.shape[:2]
        h = gcn_forward_batched(params, views.a_hat, views.features.reshape(b * k, -1))
        blocks.append(h.value[np.arange(b) * k])
    return np.concatenate(blocks)


# ---------------------------------------------------------------------------
# Probe

def evaluate_probe(embeddings: np.ndarray, labels: np.ndarray | None, splits: Splits,
                   eval_on: str = "test", iters: int = 500, l2: float = 1e-4,
                   lr: float = 0.5) -> float:
    """Multinomial logistic regression on frozen train-split embeddings,
    full-batch gradient descent; returns accuracy on the chosen split."""
    if labels is None:
        raise ContractError("probe requires node labels")
    if eval_on not in ("val", "test"):
        raise ContractError(f"eval_on must be 'val' or 'test', got {eval_on!r}")
    train_idx = np.asarray(splits.train)
    eval_idx = np.asarray(getattr(splits, eval_on))
    if train_idx.size == 0 or eval_idx.size == 0:
        raise ContractError("probe needs non-empty train and eval splits")

    mu = embeddings[train_idx].mean(axis=0)
    sd = embeddings[train_idx].std(axis=0)
    sd = np.where(sd > 1e-8, sd, 1.0)
    z = (embeddings - mu) / sd

    n_classes = int(labels.max()) + 1
    x_train = z[train_idx]
    onehot = np.eye(n_classes)[labels[train_idx]]
    weight = np.zeros((z.shape[1], n_classes))
    bias = np.zeros(n_classes)
    for _ in range(iters):
        logits = x_train @ weight + bias
        logits -= logits.max(axis=1, keepdims=True)
        prob = np.exp(logits)
        prob /= prob.sum(axis=1, keepdims=True)
        delta = (prob - onehot) / len(x_train)
        weight -= lr * (x_train.T @ delta + 2.0 * l2 * weight)
        bias -= lr * delta.sum(axis=0)
    pred = np.argmax(z[eval_idx] @ weight + bias, axis=1)
    return float(np.mean(pred == labels[eval_idx]))


# ---------------------------------------------------------------------------
# Reporting

@dataclass(frozen=True)
class EpochStats:
    epoch: int
    theta: float
    gamma: float
    lambda1: float
    lambda2: float
    mean_loss: float
    active_fraction: float
    val_accuracy: float


@dataclass
class TrainReport:
    rows: list[EpochStats] = field(default_factory=list)

    @property
    def final_val_accuracy(self) -> float:
        return self.rows[-1].val_accuracy if self.rows else float("nan")

    def to_csv(self, path) -> None:
        header = "epoch,theta,gamma,lambda1,lambda2,mean_loss,active_fraction,val_accuracy"
        lines = [header]
        for r in self.rows:
            lines.append(",".join(repr(v) for v in (
                r.epoch, r.theta, r.gamma, r.lambda1, r.lambda2,
                r.mean_loss, r.active_fraction, r.val_accuracy)))
        _write_atomic(path, "\n".join(lines) + "\n")


class MetricsWriter:
    """Append-only JSON-lines sink; one object per inner step and per epoch."""

    def __init__(self, path=None):
        self._fh = Path(path).open("w") if path is not None else None

    def write(self, record: dict) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(record) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ---------------------------------------------------------------------------
# Training

@dataclass
class StepResult:
    sample_losses: np.ndarray
    weights: SampleWeights
    active_fraction: float
    weighted_loss: float
    balance: float
    mean_intra: float
    mean_inter: float
    sinkhorn_iters: int             # max over the step's two balance solves
    sinkhorn_marginal_err: float    # likewise


def run_inner_step(params: GcnParams, opt: OptimizerState, views: EncodedViews,
                   pos_views: EncodedViews, neg_views: EncodedViews, ids: np.ndarray,
                   config: TrainConfig, thresholds: AclThresholds | None,
                   shuffle_rng: np.random.Generator, balance_rng: np.random.Generator,
                   init_thresholds_from_losses: bool = False,
                   ) -> tuple[StepResult, OptimizerState, AclThresholds | None]:
    """One reweighted gradient step on a batch of subgraph ids.

    With ``init_thresholds_from_losses`` the admission window is initialized
    from this step's observed losses before the weights are computed.
    """
    k = views.a_hat.shape[1]
    b = len(ids)
    weights_cfg = config.loss_weights()

    a_o, feats = views.batch(ids)
    a_p, _ = pos_views.batch(ids)
    a_n, _ = neg_views.batch(ids)
    h = gcn_forward_batched(params, a_o, feats)
    h_pos = gcn_forward_batched(params, a_p, feats)
    h_neg = gcn_forward_batched(params, a_n, feats)

    inter_vec = inter_graph_losses_grouped(h, h_pos, h_neg, weights_cfg.xi, k)

    d = h.shape[1]
    summaries = ad.mean_axis(ad.reshape(h, (b, k, d)), 1)
    centers = ad.take_rows(h, np.arange(b) * k)
    perm = derangement(b, shuffle_rng)
    summaries_neg = ad.take_rows(summaries, perm)
    intra_vec = intra_graph_losses_batched(centers, summaries, summaries_neg, weights_cfg.epsilon)

    total_rows = b * k
    cap = min(config.balance_max_points, total_rows)
    rows = np.sort(balance_rng.choice(total_rows, size=cap, replace=False))
    solves: list = []
    l_bal = balance_loss(ad.take_rows(h, rows), ad.take_rows(h_pos, rows),
                         ad.take_rows(h_neg, rows), config.sinkhorn(), solves)

    sample_losses = per_sample_losses_batched(intra_vec, inter_vec, l_bal, weights_cfg, b)
    detached = sample_losses.value.copy()
    if not np.isfinite(detached).all():
        raise TrainingDiverged(f"non-finite sample loss in batch {ids.tolist()}")

    if init_thresholds_from_losses and config.acl_mode != "uniform":
        thresholds = _epoch_thresholds(detached, config)
    mode = config.acl_mode if thresholds is not None else "uniform"
    weights = weights_for_mode(mode, detached, thresholds)
    total = weighted_total_loss(sample_losses, weights.values,
                                normalize=config.normalize_weighted_loss)
    if not np.isfinite(total.value):
        raise TrainingDiverged(f"non-finite weighted loss in batch {ids.tolist()}")

    tensors = params.all_parameters()
    grads = ad.gradients(total, tensors)
    new_values, opt = adam_step([t.value for t in tensors], grads, opt, config.learning_rate)
    for tensor, value in zip(tensors, new_values):
        tensor.value = value

    result = StepResult(
        sample_losses=detached,
        weights=weights,
        active_fraction=weights.active_fraction(),
        weighted_loss=float(total.value),
        balance=float(l_bal.value),
        mean_intra=float(intra_vec.value.mean()),
        mean_inter=float(inter_vec.value.mean()),
        sinkhorn_iters=max(s.iters for s in solves),
        sinkhorn_marginal_err=max(s.marginal_err for s in solves),
    )
    return result, opt, thresholds


def _epoch_thresholds(first_losses: np.ndarray, config: TrainConfig) -> AclThresholds | None:
    """Thresholds from the first step's losses; None when they would be
    degenerate (all-zero losses), which falls back to uniform weighting."""
    if config.acl_mode == "uniform":
        return None
    try:
        thresholds = init_thresholds(first_losses, config.eta1, config.eta2)
    except ConfigError:
        return None
    if config.acl_mode == "soft_acl" and thresholds.lambda2 <= 0:
        return None
    return thresholds


def mirror_views(views: EncodedViews,
                 adjacencies: np.ndarray) -> tuple[EncodedViews, EncodedViews]:
    """Positive and negative views from ``MirrorSearch.adjacencies``; mirror
    graphs keep the features of ``views``."""
    pos, neg = (EncodedViews(a_hat=a_hat, features=views.features)
                for a_hat in sym_normalized_adjacency(adjacencies))
    return pos, neg


def curriculum_inputs(graph: Graph, config: TrainConfig
                      ) -> tuple[list[Subgraph], SemanticAssignment, DistanceDistribution]:
    """The run's subgraphs, node semantics and pair-distance distribution.

    The distribution's seed derives from ``config.seed`` and ROLE_DISTANCES,
    so every command maps a difficulty theta to the same gamma."""
    subgraphs = sample_all_subgraphs(graph, config.subgraph_size, config.teleport)
    semantics = semantic_assignment(graph, config.semantics, config.degree_buckets)
    seed = int(rng_for(config.seed, ROLE_DISTANCES).integers(2 ** 32))
    dist = estimate_distance_distribution(subgraphs, config.distance_metric,
                                          config.dis_sample_budget, seed)
    return subgraphs, semantics, dist


def train(graph: Graph, config: TrainConfig, metrics_path=None,
          inputs: tuple[list[Subgraph], DistanceDistribution, MirrorSearch] | None = None,
          ) -> tuple[GcnParams, TrainReport]:
    """Curriculum training. ``inputs`` is the run's (subgraphs, distance
    distribution, mirror search) for this graph and config, as built from
    ``curriculum_inputs`` and ``mirror_search``; None builds them here."""
    config.validate()
    report = TrainReport()
    if config.patience == 0:
        return init_gcn_params(graph.feature_dim, config.embedding_dim,
                               config.gcn_layers, config.seed), report

    n = graph.n_nodes
    batch_size = min(config.batch_size, n)
    if batch_size < 2:
        raise ConfigError("batch_size: graph too small for a batch of 2 subgraphs")

    if inputs is None:
        subgraphs, semantics, dist = curriculum_inputs(graph, config)
        inputs = subgraphs, dist, mirror_search(subgraphs, semantics, config.distance_metric)
    subgraphs, dist, search = inputs
    splits = graph.splits if graph.splits is not None else make_splits(
        graph, config.seed, config.split_train, config.split_val)
    views = encoded_views(subgraphs)
    pacing = config.pacing()

    params = init_gcn_params(graph.feature_dim, config.embedding_dim,
                             config.gcn_layers, config.seed)
    opt = init_optimizer([t.value for t in params.all_parameters()])

    metrics = MetricsWriter(metrics_path)
    patience_left = config.patience
    best_val = -np.inf
    try:
        for epoch in range(config.epochs):
            theta = pacing_difficulty(epoch, pacing)
            gamma = quantile(dist, theta)
            pos_views, neg_views = mirror_views(views, search.adjacencies(gamma))
            pos_rate, neg_rate = search.match_rates(gamma)

            thresholds: AclThresholds | None = None
            epoch_losses, epoch_active = [], []
            for step in range(config.inner_steps):
                batch_rng = rng_for(config.seed, ROLE_BATCH, epoch, step)
                ids = np.sort(batch_rng.choice(n, size=batch_size, replace=False))
                shuffle_rng = rng_for(config.seed, ROLE_SHUFFLE, epoch, step)
                balance_rng = rng_for(config.seed, ROLE_BALANCE, epoch, step)
                result, opt, thresholds = run_inner_step(
                    params, opt, views, pos_views, neg_views, ids, config,
                    thresholds, shuffle_rng, balance_rng,
                    init_thresholds_from_losses=(step == 0))
                epoch_losses.append(result.sample_losses.mean())
                epoch_active.append(result.active_fraction)
                hist = result.weights.histogram()
                metrics.write({
                    "kind": "step", "epoch": epoch, "step": step,
                    "theta": theta, "gamma": gamma,
                    "lambda1": thresholds.lambda1 if thresholds else None,
                    "lambda2": thresholds.lambda2 if thresholds else None,
                    "mean_sample_loss": float(result.sample_losses.mean()),
                    "weighted_loss": result.weighted_loss,
                    "balance_loss": result.balance,
                    "mean_intra": result.mean_intra,
                    "mean_inter": result.mean_inter,
                    "active_fraction": result.active_fraction,
                    "weight_zero_frac": hist["zero"],
                    "weight_fractional_frac": hist["fractional"],
                    "weight_one_frac": hist["one"],
                    "sinkhorn_iters": result.sinkhorn_iters,
                    "sinkhorn_marginal_err": result.sinkhorn_marginal_err,
                })
                if thresholds is not None:
                    thresholds = decay_thresholds(thresholds)

            if graph.labels is not None:
                embeddings = compute_center_embeddings(params, subgraphs)
                val_acc = evaluate_probe(embeddings, graph.labels, splits, eval_on="val",
                                         iters=config.probe_iters, l2=config.probe_l2,
                                         lr=config.probe_lr)
            else:
                val_acc = float("nan")   # unlabeled graph: no probe, no early stop
            row = EpochStats(
                epoch=epoch, theta=theta, gamma=gamma,
                lambda1=thresholds.lambda1 if thresholds else float("nan"),
                lambda2=thresholds.lambda2 if thresholds else float("nan"),
                mean_loss=float(np.mean(epoch_losses)),
                active_fraction=float(np.mean(epoch_active)),
                val_accuracy=val_acc,
            )
            report.rows.append(row)
            if np.isnan(val_acc):
                pass
            elif val_acc > best_val + config.improvement_tol:
                best_val = val_acc
            else:
                patience_left -= 1
            metrics.write({
                "kind": "epoch", "epoch": epoch, "theta": theta, "gamma": gamma,
                "lambda1": row.lambda1 if np.isfinite(row.lambda1) else None,
                "lambda2": row.lambda2 if np.isfinite(row.lambda2) else None,
                "mean_loss": row.mean_loss, "active_fraction": row.active_fraction,
                "val_accuracy": None if np.isnan(val_acc) else val_acc,
                "patience_left": patience_left,
                "pos_match_rate": pos_rate, "neg_match_rate": neg_rate,
            })
            if patience_left <= 0:
                break
    finally:
        metrics.close()
    return params, report


# ---------------------------------------------------------------------------
# Difficulty curve (frozen encoder, varying difficulty)

def difficulty_curve(params: GcnParams, subgraphs: list[Subgraph], search: MirrorSearch,
                     dist, theta_grid, xi: float) -> list[tuple[float, float, float]]:
    """Mean and std of the per-subgraph inter-graph loss at each difficulty;
    ``search`` is the ``mirror_search`` of ``subgraphs``."""
    views = encoded_views(subgraphs)
    k = views.a_hat.shape[1]
    ids = np.arange(len(subgraphs))
    a_o, feats = views.batch(ids)
    h = gcn_forward_batched(params, a_o, feats)
    rows = []
    for theta in theta_grid:
        gamma = quantile(dist, float(theta))
        pos_views, neg_views = mirror_views(views, search.adjacencies(gamma))
        h_pos = gcn_forward_batched(params, pos_views.batch(ids)[0], feats)
        h_neg = gcn_forward_batched(params, neg_views.batch(ids)[0], feats)
        losses = inter_graph_losses_grouped(h, h_pos, h_neg, xi, k).value
        rows.append((float(theta), float(losses.mean()), float(losses.std())))
    return rows


# ---------------------------------------------------------------------------
# Checkpointing

def _write_atomic(path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then move it into place,
    so a write that fails leaves the previous file whole and no temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(params: GcnParams, config: TrainConfig, path) -> None:
    """JSON of the config and every weight matrix and slope. The params
    object repeats the format version; only the outer one is read."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "params": {
            "format_version": CHECKPOINT_VERSION,
            "n_layers": params.n_layers,
            "weights": [w.value.tolist() for w in params.weights],
            "slopes": [float(s.value) for s in params.slopes],
        },
    }
    _write_atomic(path, json.dumps(payload))


def load_checkpoint(path) -> tuple[GcnParams, TrainConfig]:
    payload = json.loads(Path(path).read_text())
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ConfigError(f"checkpoint: unsupported format version {payload.get('format_version')!r}")
    stored = payload["params"]
    params = GcnParams(
        weights=[ad.parameter(np.asarray(w, dtype=np.float64)) for w in stored["weights"]],
        slopes=[ad.parameter(np.asarray(s, dtype=np.float64)) for s in stored["slopes"]])
    return params, TrainConfig.from_dict(payload["config"])


def check_feature_width(params: GcnParams, graph: Graph, checkpoint_path) -> None:
    """Fail in one line when a checkpoint's encoder does not take the
    graph's node features."""
    width = params.weights[0].shape[0]
    if width != graph.feature_dim:
        raise ShapeError(f"{checkpoint_path}: checkpoint takes {width} features per node, "
                         f"the data has {graph.feature_dim}")


def evaluate_checkpoint(checkpoint_path, data_dir) -> dict[str, float]:
    """Recompute embeddings from a checkpoint and probe them; matches the
    validation accuracy reported at the end of training for the same data."""
    params, config = load_checkpoint(checkpoint_path)
    graph = load_dataset(data_dir)
    check_feature_width(params, graph, checkpoint_path)
    splits = graph.splits if graph.splits is not None else make_splits(
        graph, config.seed, config.split_train, config.split_val)
    subgraphs = sample_all_subgraphs(graph, config.subgraph_size, config.teleport)
    embeddings = compute_center_embeddings(params, subgraphs)
    kwargs = dict(iters=config.probe_iters, l2=config.probe_l2, lr=config.probe_lr)
    return {
        "val_accuracy": evaluate_probe(embeddings, graph.labels, splits, "val", **kwargs),
        "test_accuracy": evaluate_probe(embeddings, graph.labels, splits, "test", **kwargs),
    }
