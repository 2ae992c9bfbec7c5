"""Training loop: per-epoch mirror graphs at the paced difficulty, inner
steps with curriculum reweighting and Adam updates, early stopping on a
validation probe.

``curriculum_inputs`` is the run set-up that train, augment-inspect and
validate-difficulty share: the subgraphs and their mirror search, which
finds every pair's best mirror once per run and keeps every pair distance.
A difficulty's distance threshold is an exact percentile of those, a
non-decreasing function of the paced difficulty. Each epoch thresholds the
stored mirrors at its distance into one bool stack of both views, then runs
``inner_steps`` mini-batch updates, each of which normalizes its batch of
every view; a step is a function of (epoch, step) and the carried params,
Adam state and admission window, which step 0 opens and every step widens.
Patience decrements whenever validation accuracy is not strictly above its
best so far; it never resets.

Each step gathers its batch's feature rows once, by parent id, from the
graph's own matrix: a subgraph's three views differ only in their adjacency.

The probe is L2-regularised multinomial logistic regression on the
standardised centre embeddings, fitted by Newton-CG (``fit_probe``) until
its gradient norm reaches PROBE_TOL; every fit reports that norm and its
step count, which ``train`` writes to each epoch record and ``evaluate``
prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .augment import MirrorSearch, mirror_search, quantile, semantic_assignment
from .config import TrainConfig
from .curriculum import (AclThresholds, decay_thresholds, open_window, pacing_difficulty,
                         weights_for_mode, window_fields)
from .encoder import (GcnParams, derangement, gcn_forward_batched, init_gcn_params,
                      sym_normalized_adjacency)
from .errors import ConfigError, ContractError, ShapeError, TrainingDiverged
from .graph import LABEL_FILE, SPLIT_FILE, Graph, Splits, load_dataset, make_splits
from .losses import (SINKHORN_TOL, balance_loss, inter_graph_losses_grouped,
                     intra_graph_losses_batched, per_sample_losses_batched,
                     weighted_total_loss)
from .sampler import SubgraphSet, sample_all_subgraphs
from .util import ROLE_BALANCE, ROLE_BATCH, ROLE_SHUFFLE, rng_for, write_atomic

CHECKPOINT_VERSION = 1
# Config keys that older checkpoints echo and TrainConfig no longer has: the
# probe's gradient-descent step budget and step size, before it fitted to
# PROBE_TOL, then a patience margin and a loss normalisation that no run set,
# then the Sinkhorn tolerance, now losses.SINKHORN_TOL, and the distance
# sample budget, gone with the sample, then the distance metric, which is
# Euclidean alone.
# The loader drops them; a config file or --set rejects them as unknown keys.
RETIRED_CONFIG_KEYS = ("probe_iters", "probe_lr", "improvement_tol", "normalize_weighted_loss",
                       "sinkhorn_tol", "dis_sample_budget", "distance_metric")
EMBED_BLOCK = 128
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# The probe fit stops at this gradient norm, or after PROBE_MAX_STEPS Newton
# steps; a step backtracks at most PROBE_HALVINGS times.
PROBE_TOL = 1e-8
PROBE_MAX_STEPS = 100
PROBE_HALVINGS = 40
ARMIJO_C = 1e-4
REPORT_COLUMNS = ("epoch", "theta", "gamma", "lambda1", "lambda2", "mean_loss",
                  "active_fraction", "val_accuracy")


# ---------------------------------------------------------------------------
# Adam

@dataclass
class OptimizerState:
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step: int = 0


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
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        new_m.append(m)
        new_v.append(v)
    return new_params, OptimizerState(new_m, new_v, t)


# ---------------------------------------------------------------------------
# Batched encoding helpers

def encoded_views(subgraphs: SubgraphSet, ids=slice(None)) -> np.ndarray:
    """(b, k, k) normalized adjacencies of the subgraphs ``ids``, all of them
    by default: with the feature rows gathered by their parent indices, the
    constant inputs of the forward pass."""
    return sym_normalized_adjacency(subgraphs.adjacency[ids])


def mirror_views(adjacency: np.ndarray, ids=slice(None)) -> np.ndarray:
    """(b, k, k) normalized adjacencies of the subgraphs ``ids`` of one bool
    (n, k, k) mirror view of ``MirrorSearch.adjacencies``; mirror graphs
    keep the subgraph features."""
    return sym_normalized_adjacency(adjacency[ids])


def compute_center_embeddings(params: GcnParams, subgraphs: SubgraphSet) -> np.ndarray:
    """Embedding of every node = center row of its own subgraph embedding.

    Subgraphs are encoded EMBED_BLOCK at a time, so the normalized
    adjacencies and activations never exceed one block's worth.
    """
    blocks = []
    for start in range(0, len(subgraphs), EMBED_BLOCK):
        block = subgraphs[start:start + EMBED_BLOCK]
        ids = block.parent_indices
        h = gcn_forward_batched(params, encoded_views(block), block.node_features[ids.ravel()],
                                centers_only=True)
        blocks.append(h.value)
    return np.concatenate(blocks)


# ---------------------------------------------------------------------------
# Probe

def evaluate_probe(embeddings: np.ndarray, labels: np.ndarray | None, splits: Splits,
                   l2: float) -> dict[str, float]:
    """Multinomial logistic regression on frozen train-split embeddings,
    fitted once by ``fit_probe``; returns its accuracy on the ``"val"`` and
    ``"test"`` splits, with the fit's final ``"grad_norm"`` and Newton
    ``"steps"``."""
    if labels is None:
        raise ContractError("probe requires node labels")
    train_idx = np.asarray(splits.train)
    eval_splits = {"val": np.asarray(splits.val), "test": np.asarray(splits.test)}
    if train_idx.size == 0 or any(idx.size == 0 for idx in eval_splits.values()):
        raise ContractError("probe needs non-empty train, val and test splits")

    mu = embeddings[train_idx].mean(axis=0)
    sd = embeddings[train_idx].std(axis=0)
    sd = np.where(sd > 1e-8, sd, 1.0)
    z = (embeddings - mu) / sd

    n_classes = int(labels.max()) + 1
    weight, bias, grad_norm, steps = fit_probe(z[train_idx], labels[train_idx], n_classes, l2)
    scores = {name: float(np.mean(np.argmax(z[idx] @ weight + bias, axis=1) == labels[idx]))
              for name, idx in eval_splits.items()}
    return {**scores, "grad_norm": grad_norm, "steps": steps}


def fit_probe(x: np.ndarray, labels: np.ndarray, n_classes: int, l2: float
              ) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Minimise mean cross-entropy + ``l2`` * |weight|^2 (the bias is not
    penalised) by Newton-CG: each step solves the Newton system with
    conjugate gradients on Hessian-vector products, preconditioned by the
    Hessian's diagonal, to the forcing tolerance min(0.5, sqrt|g|) |g|
    (Nocedal & Wright, ch. 7), then backtracks from the full step until the
    Armijo condition holds or the trial point's gradient norm is within
    PROBE_TOL (near the optimum the Armijo decrease can drown in the loss's
    rounding). Stops at that tolerance, after PROBE_MAX_STEPS steps, or when
    no step is accepted. Returns the (dim, classes) weight, the bias, the
    final gradient norm and the number of Newton steps; a norm above
    PROBE_TOL means the fit did not converge."""
    n = len(x)
    xb = np.hstack([x, np.ones((n, 1))])        # the bias is the last row of coef
    onehot = np.eye(n_classes)[labels]
    penalty = np.full((xb.shape[1], 1), 2.0 * l2)
    penalty[-1] = 0.0

    def objective(coef):
        logits = xb @ coef
        logits -= logits.max(axis=1, keepdims=True)
        log_prob = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        prob = np.exp(log_prob)
        loss = -np.sum(onehot * log_prob) / n + 0.5 * np.sum(penalty * coef * coef)
        return loss, xb.T @ ((prob - onehot) / n) + penalty * coef, prob

    def hess_vec(prob, v):
        s = xb @ v
        r = prob * (s - np.sum(prob * s, axis=1, keepdims=True))
        return xb.T @ (r / n) + penalty * v

    def newton_direction(prob, grad, grad_norm):
        """Truncated CG on H p = -grad from p = 0, preconditioned by the
        diagonal of H; the preconditioned gradient if the first direction
        shows no positive curvature."""
        diag = (xb * xb).T @ (prob * (1.0 - prob) / n) + penalty
        scale = 1.0 / np.where(diag > 0, diag, 1.0)
        p = np.zeros_like(grad)
        r = grad
        z = scale * r
        d, rz = -z, np.sum(r * z)
        for _ in range(grad.size):
            hd = hess_vec(prob, d)
            curvature = np.sum(d * hd)
            if curvature <= 0:
                break
            alpha = rz / curvature
            p = p + alpha * d
            r = r + alpha * hd
            if np.linalg.norm(r) <= min(0.5, np.sqrt(grad_norm)) * grad_norm:
                break
            z = scale * r
            rz, rz_old = np.sum(r * z), rz
            d = -z + (rz / rz_old) * d
        return p if p.any() else -scale * grad

    coef = np.zeros((xb.shape[1], n_classes))
    loss, grad, prob = objective(coef)
    grad_norm = float(np.linalg.norm(grad))
    steps = 0
    while grad_norm > PROBE_TOL and steps < PROBE_MAX_STEPS:
        p = newton_direction(prob, grad, grad_norm)
        slope = np.sum(grad * p)
        t = 1.0
        for _ in range(PROBE_HALVINGS):
            trial = coef + t * p
            trial_loss, trial_grad, trial_prob = objective(trial)
            trial_norm = float(np.linalg.norm(trial_grad))
            if trial_loss <= loss + ARMIJO_C * t * slope or trial_norm <= PROBE_TOL:
                break
            t *= 0.5
        else:
            break       # no acceptable step: report where the fit stands
        coef, loss, grad, prob, grad_norm = trial, trial_loss, trial_grad, trial_prob, trial_norm
        steps += 1
    return coef[:-1], coef[-1], grad_norm, steps


def probe_splits(graph: Graph, config: TrainConfig) -> Splits:
    """The dataset's splits, else the config's seeded split; an empty part fails."""
    splits = graph.splits if graph.splits is not None else make_splits(
        graph, config.seed, config.split_train, config.split_val)
    for name in ("train", "val", "test"):
        if getattr(splits, name).size == 0:
            source = SPLIT_FILE if graph.splits is not None else "split_train/split_val"
            raise ConfigError(f"split '{name}' from {source} is empty on {graph.n_nodes} nodes; "
                              "the probe needs non-empty train, val and test splits")
    return splits


def probe_accuracy(params: GcnParams, subgraphs: SubgraphSet, graph: Graph,
                   config: TrainConfig) -> dict[str, float]:
    """``evaluate_probe`` of the center embeddings: ``"val"``, ``"test"``,
    ``"grad_norm"`` and ``"steps"``."""
    return evaluate_probe(compute_center_embeddings(params, subgraphs), graph.labels,
                          probe_splits(graph, config), config.probe_l2)


# ---------------------------------------------------------------------------
# Records

def write_report(epochs: list[dict], path) -> None:
    """``report.csv``: the REPORT_COLUMNS of the epoch records, None as nan."""
    rows = [",".join(repr(float("nan") if record[c] is None else record[c])
                     for c in REPORT_COLUMNS) for record in epochs]
    write_atomic(path, "\n".join([",".join(REPORT_COLUMNS), *rows]) + "\n")


def _append_record(sink, path, record: dict):
    """Write ``record`` as one JSON line of ``path``, which is opened at the
    first record; returns the open file, or None without a path."""
    if path is None:
        return None
    if sink is None:
        sink = Path(path).open("w")
    sink.write(json.dumps(record) + "\n")
    sink.flush()
    return sink


# ---------------------------------------------------------------------------
# Training

def run_inner_step(params: GcnParams, opt: OptimizerState, subgraphs: SubgraphSet,
                   mirrors: np.ndarray, epoch: int, step: int,
                   config: TrainConfig, window: AclThresholds | None,
                   ) -> tuple[dict, OptimizerState, AclThresholds | None]:
    """Step ``step`` of epoch ``epoch``: one reweighted Adam update on a
    batch of ``min(batch_size, n)`` subgraphs. The batch, the summary shuffle
    and the transport subsample come from ``rng_for(config.seed, role, epoch,
    step)``; ``mirrors`` is the bool (2, n, k, k) stack of the positive and
    negative mirror adjacencies (``MirrorSearch.adjacencies``). Each view,
    the subgraphs' own first, is normalized for the batch alone just before
    it propagates, so a step holds no float (n, k, k) view. Step 0 opens the
    admission window on its own losses and ignores ``window``. Returns the
    step's ``metrics.jsonl`` fields, from the window it weighed with to the
    larger Sinkhorn figures of its two balance solves and whether both
    converged, with ``weighted_loss`` split into its weighted terms,
    sum(w * l_intra), alpha * balance * mean(w) and beta * sum(w * l_inter);
    the Adam state; and the window widened for the next step."""
    batch_rng, shuffle_rng, balance_rng = (rng_for(config.seed, role, epoch, step)
                                           for role in (ROLE_BATCH, ROLE_SHUFFLE, ROLE_BALANCE))
    n, k = subgraphs.parent_indices.shape
    b = min(config.batch_size, n)
    ids = np.sort(batch_rng.choice(n, size=b, replace=False))

    feats = subgraphs.node_features[subgraphs.parent_indices[ids]].reshape(b * k, -1)
    h = gcn_forward_batched(params, encoded_views(subgraphs, ids), feats, centers_only=False)
    h_pos, h_neg = (gcn_forward_batched(params, mirror_views(view, ids), feats,
                                        centers_only=False) for view in mirrors)

    inter_vec = inter_graph_losses_grouped(h, h_pos, h_neg, config.xi, k)

    d = h.shape[1]
    summaries = ad.mean_axis(ad.reshape(h, (b, k, d)), 1)
    centers = ad.take_rows(h, np.arange(b) * k)
    perm = derangement(b, shuffle_rng)
    summaries_neg = ad.take_rows(summaries, perm)
    intra_vec = intra_graph_losses_batched(centers, summaries, summaries_neg, config.epsilon_margin)

    cap = min(config.balance_max_points, b * k)
    rows = np.sort(balance_rng.choice(b * k, size=cap, replace=False))
    solves: list = []
    l_bal = balance_loss(ad.take_rows(h, rows), ad.take_rows(h_pos, rows),
                         ad.take_rows(h_neg, rows), config.sinkhorn_reg, config.sinkhorn_iters,
                         SINKHORN_TOL, solves)

    sample_losses = per_sample_losses_batched(intra_vec, inter_vec, l_bal, config.alpha,
                                              config.beta, b)
    detached = sample_losses.value.copy()
    if not np.isfinite(detached).all():
        raise TrainingDiverged(f"non-finite sample loss in batch {ids.tolist()}")

    if step == 0:
        window = open_window(detached, config.acl_mode)
    mode = config.acl_mode if window is not None else "uniform"
    weights = weights_for_mode(mode, detached, window)
    total = weighted_total_loss(sample_losses, weights.values)
    if not np.isfinite(total.value):
        raise TrainingDiverged(f"non-finite weighted loss in batch {ids.tolist()}")

    tensors = params.all_parameters()
    grads = ad.gradients(total, tensors)
    new_values, opt = adam_step([t.value for t in tensors], grads, opt, config.learning_rate)
    for tensor, value in zip(tensors, new_values):
        tensor.value = value

    hist = weights.histogram()
    w = weights.values
    return {
        **window_fields(window),
        "mean_sample_loss": float(detached.mean()),
        "weighted_loss": float(total.value),
        "intra_term": float(w @ intra_vec.value),
        "balance_term": float(config.alpha * l_bal.value * w.mean()),
        "inter_term": float(config.beta * (w @ inter_vec.value)),
        "balance_loss": float(l_bal.value),
        "mean_intra": float(intra_vec.value.mean()),
        "mean_inter": float(inter_vec.value.mean()),
        "active_fraction": weights.active_fraction(),
        "weight_zero_frac": hist["zero"],
        "weight_fractional_frac": hist["fractional"],
        "weight_one_frac": hist["one"],
        "sinkhorn_iters": max(s.iters for s in solves),
        "sinkhorn_marginal_err": max(s.marginal_err for s in solves),
        "sinkhorn_converged": all(s.converged for s in solves),
    }, opt, decay_thresholds(window, config.eta1, config.eta2) if window else None


def curriculum_inputs(graph: Graph, config: TrainConfig) -> tuple[SubgraphSet, MirrorSearch]:
    """The run's subgraphs and their mirror search, whose ``distances`` are
    the run's pair distances: every command maps a difficulty theta to the
    same gamma, ``quantile(search.distances, theta)``.

    Semantics come first, so a graph that cannot supply them fails before
    any sampling."""
    semantics = semantic_assignment(graph, config.semantics, config.degree_buckets)
    subgraphs = sample_all_subgraphs(graph, config.subgraph_size, config.teleport)
    return subgraphs, mirror_search(subgraphs, semantics)


def train(graph: Graph, config: TrainConfig, metrics_path=None,
          inputs: tuple[SubgraphSet, MirrorSearch] | None = None,
          ) -> tuple[GcnParams, list[dict]]:
    """Curriculum training; returns the params and the epoch records of
    ``metrics.jsonl``. With ``metrics_path``, every step and epoch record is
    appended there, the file being created at the first one. ``inputs`` is
    the run's ``curriculum_inputs`` for this graph and config; None builds
    them here."""
    params = init_gcn_params(graph.feature_dim, config.embedding_dim, config.gcn_layers,
                             config.seed)
    epochs: list[dict] = []
    if config.patience == 0:
        return params, epochs

    if graph.n_nodes < 2:      # a TrainConfig's batch_size is at least 2
        raise ConfigError("batch_size: graph too small for a batch of 2 subgraphs")

    subgraphs, search = curriculum_inputs(graph, config) if inputs is None else inputs
    opt = init_optimizer([t.value for t in params.all_parameters()])

    sink = None
    patience_left = config.patience
    best_val = -np.inf
    try:
        for epoch in range(config.epochs):
            theta = pacing_difficulty(epoch, config)
            gamma = quantile(search.distances, theta)
            mirrors = search.adjacencies(gamma)
            pos_rate, neg_rate = search.match_rates(gamma)
            pos_rewrite, neg_rewrite = (np.count_nonzero(mirrors != subgraphs.adjacency,
                                                         axis=(1, 2, 3))
                                        / subgraphs.adjacency.size)

            window, steps = None, []
            for step in range(config.inner_steps):
                fields, opt, window = run_inner_step(params, opt, subgraphs, mirrors, epoch,
                                                     step, config, window)
                steps.append(fields)
                sink = _append_record(sink, metrics_path, {
                    "kind": "step", "epoch": epoch, "step": step, "theta": theta,
                    "gamma": gamma, **fields})

            probe = {"val": None, "grad_norm": None, "steps": None}   # unlabeled: no probe
            if graph.labels is not None:
                probe = probe_accuracy(params, subgraphs, graph, config)
                if probe["val"] > best_val:
                    best_val = probe["val"]
                else:
                    patience_left -= 1
            epochs.append({
                "kind": "epoch", "epoch": epoch, "theta": theta, "gamma": gamma,
                **window_fields(window),
                "mean_loss": float(np.mean([f["mean_sample_loss"] for f in steps])),
                "active_fraction": float(np.mean([f["active_fraction"] for f in steps])),
                "val_accuracy": probe["val"], "probe_grad_norm": probe["grad_norm"],
                "probe_steps": probe["steps"], "patience_left": patience_left,
                "pos_match_rate": pos_rate, "neg_match_rate": neg_rate,
                "pos_rewrite_frac": float(pos_rewrite), "neg_rewrite_frac": float(neg_rewrite),
            })
            sink = _append_record(sink, metrics_path, epochs[-1])
            if patience_left <= 0:
                break
    finally:
        if sink is not None:
            sink.close()
    return params, epochs


# ---------------------------------------------------------------------------
# Difficulty curve (frozen encoder, varying difficulty)

def difficulty_curve(params: GcnParams, subgraphs: SubgraphSet, search: MirrorSearch,
                     theta_grid, xi: float) -> list[tuple[float, float, float]]:
    """Mean and std of the per-subgraph inter-graph loss at each difficulty;
    ``search`` is the ``mirror_search`` of ``subgraphs`` and gives the gammas.

    Subgraphs are encoded EMBED_BLOCK at a time, as in
    ``compute_center_embeddings``: a block's own view is encoded once for
    the whole grid, and only its per-subgraph losses outlive the block.
    """
    gammas = [quantile(search.distances, float(theta)) for theta in theta_grid]
    losses = np.empty((len(gammas), len(subgraphs)))
    k = subgraphs.adjacency.shape[-1]
    for start in range(0, len(subgraphs), EMBED_BLOCK):
        rows = slice(start, start + EMBED_BLOCK)
        block = subgraphs[rows]
        feats = block.node_features[block.parent_indices.ravel()]
        h = gcn_forward_batched(params, encoded_views(block), feats, centers_only=False)
        mirrors = search[rows]
        for out, gamma in zip(losses, gammas):
            h_pos, h_neg = (gcn_forward_batched(params, mirror_views(view), feats,
                                                centers_only=False)
                            for view in mirrors.adjacencies(gamma))
            out[rows] = inter_graph_losses_grouped(h, h_pos, h_neg, xi, k).value
    return [(float(theta), float(out.mean()), float(out.std()))
            for theta, out in zip(theta_grid, losses)]


# ---------------------------------------------------------------------------
# Checkpointing

def save_checkpoint(params: GcnParams, config: TrainConfig, path) -> None:
    """JSON of the config and every weight matrix and slope. The params
    object repeats the format version; only the outer one is read."""
    stored = {"format_version": CHECKPOINT_VERSION, "n_layers": params.n_layers,
              "weights": [w.value.tolist() for w in params.weights],
              "slopes": [float(s.value) for s in params.slopes]}
    write_atomic(path, json.dumps({"format_version": CHECKPOINT_VERSION,
                                    "config": config.to_dict(), "params": stored}))


def load_checkpoint(path) -> tuple[GcnParams, TrainConfig]:
    """The params and config of a checkpoint; a bad file, or params unlike the
    config, fail in one line. RETIRED_CONFIG_KEYS in the echo are dropped."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        version = payload.get("format_version") if isinstance(payload, dict) else None
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported format version {version!r}")
        stored = payload["params"]
        params = GcnParams(
            weights=[ad.parameter(np.asarray(w, dtype=np.float64)) for w in stored["weights"]],
            slopes=[ad.parameter(np.asarray(s, dtype=np.float64)) for s in stored["slopes"]])
        if not params.weights or len(params.slopes) != params.n_layers:
            raise ConfigError(f"{params.n_layers} weight matrices and {len(params.slopes)} slopes")
        for i, (w, slope) in enumerate(zip(params.weights, params.slopes)):
            if w.value.ndim != 2:
                raise ConfigError(f"weight {i} has shape {w.shape}, not a matrix")
            if i and params.weights[i - 1].shape[1] != w.shape[0]:
                raise ConfigError(f"weight {i - 1} gives {params.weights[i - 1].shape[1]} "
                                  f"columns, weight {i} takes {w.shape[0]} rows")
            if slope.value.ndim != 0:
                raise ConfigError(f"slope {i} has shape {slope.shape}, not a scalar")
            if not np.isfinite(w.value).all():
                raise ConfigError(f"weight {i} has a non-finite entry")
            if not np.isfinite(slope.value):
                raise ConfigError(f"slope {i} is not finite")
        config = payload["config"]
        if isinstance(config, dict):
            config = {key: value for key, value in config.items()
                      if key not in RETIRED_CONFIG_KEYS}
        config = TrainConfig.from_dict(config)
        if (params.n_layers, params.out_dim) != (config.gcn_layers, config.embedding_dim):
            raise ConfigError(f"{params.n_layers} weight matrices with {params.out_dim} output "
                              f"columns, but the config has gcn_layers = {config.gcn_layers} "
                              f"and embedding_dim = {config.embedding_dim}")
        return params, config
    except KeyError as exc:
        raise ConfigError(f"{path}: checkpoint has no {exc} entry") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        # not UTF-8 JSON, nested too deep, or a bad entry or config
        raise ConfigError(f"{path}: bad checkpoint: {exc}") from None


def check_feature_width(params: GcnParams, graph: Graph, checkpoint_path) -> None:
    """Fail in one line when a checkpoint's encoder does not take the
    graph's node features."""
    width = params.weights[0].shape[0]
    if width != graph.feature_dim:
        raise ShapeError(f"{checkpoint_path}: checkpoint takes {width} features per node, "
                         f"the data has {graph.feature_dim}")


def evaluate_checkpoint(checkpoint_path, data_dir) -> dict[str, float]:
    """Recompute embeddings from a checkpoint and probe them; matches the
    validation accuracy reported at the end of training for the same data.
    Data without labels, or with an empty split, fails before sampling."""
    params, config = load_checkpoint(checkpoint_path)
    graph = load_dataset(data_dir)
    if graph.labels is None:
        raise ContractError(f"{data_dir}: no {LABEL_FILE}; evaluate probes node labels")
    check_feature_width(params, graph, checkpoint_path)
    probe_splits(graph, config)
    subgraphs = sample_all_subgraphs(graph, config.subgraph_size, config.teleport)
    probe = probe_accuracy(params, subgraphs, graph, config)
    return {"val_accuracy": probe["val"], "test_accuracy": probe["test"],
            "probe_grad_norm": probe["grad_norm"], "probe_steps": probe["steps"]}
