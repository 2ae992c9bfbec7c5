"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 7-9 share one
module-scoped fixture that trains ten encoders (five seeds, each with
``soft_acl`` and ``uniform`` on one shared set-up and mirror search), so the
first of them pays the training cost once. In three runs on a shared 2-core
machine the whole tier-1 suite took 80-114 s, 47-62 s of it in this fixture.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from acgcl import autodiff as ad
from acgcl import trainer
from acgcl.augment import mirror_search, quantile, semantic_assignment
from acgcl.config import TrainConfig
from acgcl.curriculum import AclThresholds, open_window, weights_for_mode
from acgcl.encoder import gcn_forward_batched, init_gcn_params
from acgcl.graph import INPUTS_FILE, SbmConfig, generate_sbm, make_splits, with_splits
from acgcl.losses import (balance_loss, inter_graph_losses_grouped, intra_graph_losses_batched,
                          per_sample_losses_batched, sinkhorn_w1, weighted_total_loss)
from acgcl.sampler import compute_ppr_scores, sample_all_subgraphs
from acgcl.trainer import (curriculum_inputs, difficulty_curve, evaluate_probe, probe_accuracy,
                           run_inner_step, train)
from acgcl.util import ROLE_BALANCE, ROLE_BATCH, ROLE_SHUFFLE, rng_for
from conftest import random_graph, run_python
from oracles import (acl_oracle_weights, directional_grad_check, exact_w1_1d,
                     power_iteration_ppr, probe_baselines, spearman)


def report(name: str, passed: bool, detail: str = ""):
    print(f"\nACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Shared desk-scale experiment: 3-block SBM, n=300, 16-dim features/embeddings,
# K=10, feature noise calibrated so the raw-feature probe lands in [0.65, 0.80].

SBM = SbmConfig(block_sizes=(100, 100, 100), p_intra=0.10, p_inter=0.002,
                feature_dim=16, feature_noise=0.55)
THETA_GRID = [10.0, 20.0, 30.0, 40.0, 50.0]
N_SEEDS = 5


def experiment_graph(seed: int):
    g = generate_sbm(SBM, seed=seed)
    return with_splits(g, make_splits(g, seed, TrainConfig.split_train, TrainConfig.split_val))


def experiment_config(seed: int, mode: str = "soft_acl", theta0: float = 15.0) -> TrainConfig:
    return TrainConfig(seed=seed, subgraph_size=10, embedding_dim=16, epochs=30,
                       patience=30, inner_steps=10, batch_size=500, acl_mode=mode,
                       theta0=theta0, balance_max_points=128, sinkhorn_iters=60)


@pytest.fixture(scope="module")
def sbm_runs():
    runs = []
    for seed in range(N_SEEDS):
        graph = experiment_graph(seed)
        config = experiment_config(seed)
        raw_acc = evaluate_probe(graph.features, graph.labels, graph.splits,
                                 config.probe_l2)["test"]

        subgraphs, search = curriculum_inputs(graph, config)
        params, _ = train(graph, config, inputs=(subgraphs, search))
        soft_acc = probe_accuracy(params, subgraphs, graph, config)["test"]

        curve = difficulty_curve(params, subgraphs, search, THETA_GRID, config.xi)
        rho = spearman(THETA_GRID, [row[1] for row in curve])

        uniform_cfg = experiment_config(seed, mode="uniform", theta0=50.0)
        # mode and theta0 do not enter the set-up, so the uniform run shares it
        uniform_params, _ = train(graph, uniform_cfg, inputs=(subgraphs, search))
        uniform_acc = probe_accuracy(uniform_params, subgraphs, graph, uniform_cfg)["test"]
        runs.append({"raw": raw_acc, "soft": soft_acc, "uniform": uniform_acc,
                     "rho": rho, "curve": [row[1] for row in curve],
                     **probe_baselines(graph, subgraphs, config)})
    return runs


# ---------------------------------------------------------------------------

def test_criterion_1_acl_closed_forms_match_oracle():
    """Closed-form hard and soft weights match alternating grid optimization
    of the adversarial objective to |delta(u*v)| <= 1e-3, 200 instances."""
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        losses = rng.uniform(0.0, 3.0, size=n)
        lam2 = float(rng.uniform(0.05, 1.0))
        lam1 = lam2 + float(rng.uniform(0.05, 2.0))
        thresholds = AclThresholds(lambda1=lam1, lambda2=lam2)
        hard = weights_for_mode("hard_acl", losses, thresholds)
        soft = weights_for_mode("soft_acl", losses, thresholds)
        worst = max(worst,
                    np.abs(hard - acl_oracle_weights(losses, lam1, lam2, "hard")).max(),
                    np.abs(soft - acl_oracle_weights(losses, lam1, lam2, "soft")).max())
    report("1 acl-closed-form-vs-oracle", worst <= 1e-3, f"max |delta(u*v)| = {worst:.2e}")


def test_criterion_2_weight_monotonicity():
    """w(L) non-increasing on [lambda2, inf) for both modes; soft w = L/lambda2
    on [0, lambda2); 10,000 random triples."""
    rng = np.random.default_rng(200)
    failures = 0
    for _ in range(10_000):
        lam2 = float(rng.uniform(0.01, 1.0))
        lam1 = lam2 + float(rng.uniform(0.01, 2.0))
        thresholds = AclThresholds(lambda1=lam1, lambda2=lam2)
        lo, hi = np.sort(rng.uniform(lam2, lam1 + 2.0, size=2))
        for mode in ("hard_acl", "soft_acl"):
            w = weights_for_mode(mode, np.array([lo, hi]), thresholds)
            if w[1] > w[0] + 1e-12:
                failures += 1
        easy = float(rng.uniform(0.0, lam2))
        w_easy = weights_for_mode("soft_acl", np.array([easy]), thresholds)[0]
        if abs(w_easy - easy / lam2) > 1e-12:
            failures += 1
    report("2 weight-monotonicity", failures == 0, f"{failures} violations in 10000 triples")


def test_criterion_3_ppr_power_vs_dense():
    """The oracle power iteration matches the production dense resolvent to
    1e-5 elementwise on 50 random graphs <= 200 nodes; dense columns sum to
    1 +- 1e-8."""
    rng = np.random.default_rng(300)
    worst_entry, worst_col = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(10, 201))
        graph = random_graph(rng, n=n, p=float(rng.uniform(0.02, 0.2)))
        dense = compute_ppr_scores(graph, 0.15)
        power = power_iteration_ppr(graph, 0.15)
        worst_entry = max(worst_entry, float(np.abs(dense - power).max()))
        worst_col = max(worst_col, float(np.abs(dense.sum(axis=0) - 1.0).max()))
    passed = worst_entry < 1e-5 and worst_col < 1e-8
    report("3 ppr-power-vs-dense", passed,
           f"max elementwise {worst_entry:.2e}, max column-sum dev {worst_col:.2e}")


def test_criterion_4_sinkhorn_accuracy():
    """Within 5% of the exact sorted-matching 1-d W1 on 100 random point-set
    pairs (<= 32 points, regularization 0.01); symmetric within 1e-8."""
    rng = np.random.default_rng(400)
    solve = (0.01, 4000, 1e-9)      # reg, max_iters, tol
    worst_rel, worst_sym = 0.0, 0.0
    for _ in range(100):
        m = int(rng.integers(2, 33))
        p = rng.random(m)
        q = rng.random(m) + rng.uniform(0.5, 2.0)
        exact = exact_w1_1d(p, q)
        approx = float(sinkhorn_w1(p[:, None], q[:, None], *solve).value)
        worst_rel = max(worst_rel, abs(approx - exact) / exact)
        flipped = float(sinkhorn_w1(q[:, None], p[:, None], *solve).value)
        worst_sym = max(worst_sym, abs(approx - flipped))
    passed = worst_rel < 0.05 and worst_sym < 1e-8
    report("4 sinkhorn-accuracy", passed,
           f"max rel err {worst_rel:.4f}, max asymmetry {worst_sym:.2e}")


def test_criterion_5_gradient_checks():
    """Every loss and the GCN forward pass match central finite differences
    (step 1e-5) with relative error < 1e-4, 20 random instances each. The
    cases run the batched functions the trainer runs, on one subgraph: one
    group of inter-graph losses, one row of intra-graph losses, one block of
    the forward pass."""
    rng = np.random.default_rng(500)
    solve = (0.2, 250, 0.0)         # reg, max_iters, tol
    alpha, beta, xi, epsilon = 0.7, 1.3, 0.8, 0.2

    def inter_case(values):
        h, hp, hn = (ad.parameter(v) for v in values)
        one_group = inter_graph_losses_grouped(h, hp, hn, 0.8, values[0].shape[0])
        return ad.reshape(one_group, ()), [h, hp, hn]

    def intra_case(values):
        h, s, sn = (ad.parameter(v) for v in values)
        return ad.reshape(intra_graph_losses_batched(h, s, sn, epsilon=0.2), ()), [h, s, sn]

    def sinkhorn_case(values):
        p, q = (ad.parameter(v) for v in values)
        return sinkhorn_w1(p, q, *solve), [p, q]

    def balance_case(values):
        h, hp, hn = (ad.parameter(v) for v in values)
        return balance_loss(h, hp, hn, *solve), [h, hp, hn]

    def composite_case(values):
        # per-sample losses combined into the weighted training objective
        h, hp, hn = (ad.parameter(v) for v in values)
        k, d = values[0].shape
        inter = inter_graph_losses_grouped(h, hp, hn, xi, k)
        center = ad.take_rows(h, np.array([0]))
        summary, summary_neg = (ad.mean_axis(ad.reshape(v, (1, k, d)), 1) for v in (h, hp))
        intra = intra_graph_losses_batched(center, summary, summary_neg, epsilon)
        bal = balance_loss(h, hp, hn, *solve)
        vec = per_sample_losses_batched(intra, inter, bal, alpha, beta, 1)
        return weighted_total_loss(vec, np.array([0.7])), [h, hp, hn]

    def gcn_case(values):
        x, w1, w2, s1, s2 = (ad.parameter(v) for v in values)
        params = init_gcn_params(values[0].shape[1], 3, n_layers=2, seed=0)
        params.weights = [w1, w2]
        params.slopes = [s1, s2]
        out = gcn_forward_batched(params, ADJ[None], x, centers_only=False)
        return ad.sum_all(ad.mul(out, ad.Tensor(MIX))), [x, w1, w2, s1, s2]

    global ADJ, MIX
    worst = {}
    for name, case, shapes in [
        ("inter", inter_case, [(4, 3)] * 3),
        ("intra", intra_case, [(1, 5)] * 3),
        ("sinkhorn", sinkhorn_case, [(5, 2), (6, 2)]),
        ("balance", balance_case, [(5, 2)] * 3),
        ("composite", composite_case, [(4, 3)] * 3),
        ("gcn", gcn_case, [(4, 3), (3, 5), (5, 3), (), ()]),
    ]:
        worst[name] = 0.0
        for _ in range(20):
            adj = (rng.random((4, 4)) < 0.5).astype(float)
            adj = np.triu(adj, 1)
            ADJ = adj + adj.T
            MIX = rng.standard_normal((4, 3))
            values = [rng.standard_normal(s) for s in shapes]
            worst[name] = max(worst[name], directional_grad_check(case, values, rng,
                                                                  n_directions=2))
    passed = all(v < 1e-4 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    report("5 gradient-checks", passed, detail)


def test_criterion_6_mirror_validity():
    """On all 500 subgraphs of a two-block SBM, at the 30th and 60th
    percentiles of the run's pair distances, every positive replacement
    matches labels with distance sum < 2*gamma and every negative differs in
    >= 1 label; at gamma = 0 the search's mirror adjacencies of all 500
    subgraphs equal their source adjacencies (the identity augmentation)."""
    mixed = SbmConfig(block_sizes=(250, 250), p_intra=0.05, p_inter=0.02,
                      feature_dim=8, feature_noise=1.0)
    graph = generate_sbm(mixed, seed=600)
    subgraphs = sample_all_subgraphs(graph, k=10, teleport=0.15)
    semantics = semantic_assignment(graph, "label")
    search = mirror_search(subgraphs, semantics)

    n_pos = n_neg = 0
    bad = 0
    for gamma_theta in (30.0, 60.0):
        gamma = quantile(search.distances, gamma_theta)
        for i, sub in enumerate(subgraphs):
            labels = semantics[sub.parent_indices]
            positive, negative = search.replacements(gamma, i)
            for a, b, c, d, distance_sum, _, _ in zip(*positive):
                n_pos += 1
                if not (labels[c] == labels[a] and labels[d] == labels[b]
                        and distance_sum < 2 * gamma):
                    bad += 1
            for a, b, c, d, distance_sum, _, _ in zip(*negative):
                n_neg += 1
                if not ((labels[c] != labels[a] or labels[d] != labels[b])
                        and distance_sum < 2 * gamma):
                    bad += 1
    identity_ok = all(np.array_equal(adjacency, subgraphs.adjacency)
                      for adjacency in search.adjacencies(0.0))
    passed = bad == 0 and identity_ok and n_pos > 1000 and n_neg > 1000
    report("6 mirror-validity", passed,
           f"{n_pos} positive / {n_neg} negative replacements, {bad} invalid, "
           f"identity at gamma=0: {identity_ok}")


def test_criterion_7_difficulty_trend(sbm_runs):
    """Mean inter-graph loss over theta in {10..50} has Spearman correlation
    >= 0.8 with theta, averaged over 5 seeds, under frozen encoders."""
    rhos = [run["rho"] for run in sbm_runs]
    mean_rho = float(np.mean(rhos))
    report("7 difficulty-trend", mean_rho >= 0.8,
           f"mean spearman {mean_rho:.3f}, per-seed {[round(r, 2) for r in rhos]}")


def test_criterion_8_end_to_end_learning(sbm_runs):
    """Soft-mode embeddings beat the raw-feature probe by >= 10 points
    (5-seed mean), with the raw baseline calibrated into [0.65, 0.80]. The
    untrained-encoder and PPR-subgraph-mean baselines are reported, not gated."""
    raw, soft, untrained, subgraph_mean = (
        float(np.mean([run[key] for run in sbm_runs]))
        for key in ("raw", "soft", "untrained", "subgraph_mean"))
    passed = (0.65 <= raw <= 0.80) and soft >= raw + 0.10
    report("8 end-to-end-learning", passed,
           f"raw {raw:.3f}, untrained {untrained:.3f}, subgraph mean {subgraph_mean:.3f}, "
           f"soft {soft:.3f}, gain {soft - raw:+.3f}")


def test_criterion_9_ablation_direction(sbm_runs):
    """Soft adversarial curriculum >= no-curriculum variant on 5-seed mean
    probe accuracy (ties within 1 point acceptable)."""
    soft = float(np.mean([run["soft"] for run in sbm_runs]))
    uniform = float(np.mean([run["uniform"] for run in sbm_runs]))
    report("9 ablation-direction", soft >= uniform - 0.01,
           f"soft {soft:.3f} vs no-curriculum {uniform:.3f}")


def test_curriculum_modes_report(tmp_path):
    """Reports, and does not gate, how ``spl``, ``hard_acl`` and ``soft_acl``
    weigh the criterion 7-9 graph (seed 0, 3 epochs of 10 steps, one shared
    set-up): each mode's mean zero-weight share and largest fractional share
    over the step records, and which modes wrote byte-identical
    ``metrics.jsonl``. Only the three weight shares of every step are checked:
    each in [0, 1], together 1."""
    graph = experiment_graph(0)
    modes = ("spl", "hard_acl", "soft_acl")
    inputs = curriculum_inputs(graph, experiment_config(0))
    written, steps = {}, {}
    for mode in modes:
        path = tmp_path / f"{mode}.jsonl"
        train(graph, dataclasses.replace(experiment_config(0, mode), epochs=3), path,
              inputs=inputs)
        written[mode] = path.read_bytes()
        steps[mode] = [record for record in map(json.loads, written[mode].splitlines())
                       if record["kind"] == "step"]
    for record in itertools.chain(*steps.values()):
        shares = [record[f"weight_{part}_frac"] for part in ("zero", "fractional", "one")]
        assert all(0.0 <= share <= 1.0 for share in shares), shares
        assert sum(shares) == pytest.approx(1.0, abs=1e-12), shares
    same = [f"{a}={b}" for a, b in itertools.combinations(modes, 2) if written[a] == written[b]]
    shares = ", ".join(
        f"{mode} zero {np.mean([r['weight_zero_frac'] for r in steps[mode]]):.3f} "
        f"fractional max {max(r['weight_fractional_frac'] for r in steps[mode]):.3f}"
        for mode in modes)
    print(f"\nREPORT curriculum-modes: {shares}; byte-identical metrics.jsonl: "
          f"{' '.join(same) or 'none'}")


def test_balance_term_report(monkeypatch):
    """Reports, and does not gate, how much each weighted term of the step
    objective moves the encoder on the criterion 7-9 graph (seed 0, 3 epochs
    of 10 steps): the gradient norms of sum(w * l_intra), beta * sum(w *
    l_inter) and alpha * mean(w) * balance at step 0 of epochs 0 and 2, and
    the test accuracy at alpha 0, 1 and b, where the balance counts once per
    sample. Each norm comes from its own forward pass on the step's
    ``rng_for`` streams, because a swept tape cannot be swept again. Only
    the norms are checked: each finite."""
    graph = experiment_graph(0)
    config = dataclasses.replace(experiment_config(0), epochs=3)
    inputs = curriculum_inputs(graph, config)
    norms = {}

    def step_losses(params, subgraphs, mirrors, epoch, config):
        """A fresh forward pass of step 0 of ``epoch``, as ``run_inner_step`` draws it."""
        batch_rng, *rngs = (rng_for(config.seed, role, epoch, 0)
                            for role in (ROLE_BATCH, ROLE_SHUFFLE, ROLE_BALANCE))
        n = len(subgraphs)
        ids = np.sort(batch_rng.choice(n, size=min(config.batch_size, n), replace=False))
        return trainer._batch_losses(params, subgraphs, mirrors, ids, *rngs, config)

    def spy(params, opt, subgraphs, mirrors, epoch, step, config, window):
        if step == 0 and epoch in (0, 2):
            sample_losses, intra, *_ = step_losses(params, subgraphs, mirrors, epoch, config)
            losses = sample_losses.value
            window0 = open_window(losses, config.acl_mode)
            w = weights_for_mode(config.acl_mode if window0 else "uniform", losses, window0)
            inter = step_losses(params, subgraphs, mirrors, epoch, config)[2]
            l_bal = step_losses(params, subgraphs, mirrors, epoch, config)[3]
            terms = {"intra": weighted_total_loss(intra, w),
                     "inter": ad.scale(weighted_total_loss(inter, w), config.beta),
                     "balance": ad.scale(l_bal, config.alpha * w.mean())}
            norms[epoch] = {name: float(np.sqrt(sum(np.sum(g ** 2) for g in ad.gradients(
                term, params.all_parameters())))) for name, term in terms.items()}
        return run_inner_step(params, opt, subgraphs, mirrors, epoch, step, config, window)

    b = min(config.batch_size, graph.n_nodes)
    accuracy = {}
    for alpha in (0.0, 1.0, float(b)):
        with monkeypatch.context() as patch:
            if alpha == 1.0:
                patch.setattr(trainer, "run_inner_step", spy)
            params, _ = train(graph, dataclasses.replace(config, alpha=alpha), inputs=inputs)
        accuracy[alpha] = probe_accuracy(params, inputs[0], graph, config)["test"]
    assert sorted(norms) == [0, 2]
    assert all(np.isfinite(list(by_term.values())).all() for by_term in norms.values()), norms
    grads = "; ".join(
        f"epoch {epoch} " + " ".join(f"{name} {norm:.3g}" for name, norm in by_term.items())
        + f" (balance {by_term['balance'] / sum(by_term.values()):.2%} of the sum)"
        for epoch, by_term in norms.items())
    accs = ", ".join(f"alpha {alpha:g} {acc:.3f}" for alpha, acc in accuracy.items())
    print(f"\nREPORT balance-term: grad norms {grads}; test accuracy {accs}")


def test_criterion_10_determinism():
    """Two runs with identical seeds produce bit-identical loss columns."""
    graph = experiment_graph(0)
    config = TrainConfig(seed=42, subgraph_size=6, embedding_dim=8, epochs=4,
                         inner_steps=4, batch_size=64, balance_max_points=64,
                         sinkhorn_iters=40)
    _, first = train(graph, config)
    _, second = train(graph, config)
    identical = [r["mean_loss"] for r in first] == [r["mean_loss"] for r in second]
    report("10 determinism", identical,
           f"loss columns equal over {len(first)} epochs: {identical}")


def test_criterion_10_determinism_across_processes(tmp_path):
    """A second ``train`` in a separate process, at one BLAS thread, writes
    byte for byte the same checkpoint, metrics and report."""
    data, config = tmp_path / "data", tmp_path / "run.cfg"
    done = run_python("-m", "acgcl.cli", "gen-sbm", "--blocks", "30,30", "--p-intra", "0.25",
                      "--p-inter", "0.02", "--feature-dim", "4", "--seed", "1", "--out", str(data))
    assert done.returncode == 0, done.stderr
    config.write_text(f"data_dir = {data}\nsubgraph_size = 5\nembedding_dim = 8\n"
                      "batch_size = 20\n")
    files = ("checkpoint.json", "metrics.jsonl", "report.csv")
    outputs = []
    for run in ("run", "rerun"):
        done = run_python("-m", "acgcl.cli", "train", "--config", str(config), "--set", "epochs=1",
                          "--set", "inner_steps=2", "--out", str(tmp_path / run),
                          env={"OPENBLAS_NUM_THREADS": "1"})
        assert done.returncode == 0, done.stderr
        outputs.append([(tmp_path / run / name).read_bytes() for name in files])
    identical = outputs[0] == outputs[1]
    report("10 determinism across processes", identical,
           f"{', '.join(files)} byte-identical in a second process: {identical}")


# ``acgcl`` with the run set-up's sampler and search counted: the process
# prints "set-up calls:" and their names once the command has finished.
COUNTED_CLI = """
import sys
import acgcl.cli, acgcl.trainer
calls = []
for name in ("sample_all_subgraphs", "mirror_search"):
    def counted(*args, name=name, fn=getattr(acgcl.trainer, name)):
        calls.append(name)
        return fn(*args)
    setattr(acgcl.trainer, name, counted)
code = acgcl.cli.main(sys.argv[1:])
print("set-up calls:", *calls)
sys.exit(code)
"""


def test_cold_warm_and_cold_again_runs_write_the_same_bytes(tmp_path):
    """``train`` in three fresh processes, at one BLAS thread: cold (it
    samples, searches and writes the inputs cache), warm (it reads the
    cache, and neither samples nor searches) and cold again once the cache
    is deleted. All three write the same checkpoint, metrics and report
    bytes."""
    data, config = tmp_path / "data", tmp_path / "run.cfg"
    done = run_python("-m", "acgcl.cli", "gen-sbm", "--blocks", "30,30", "--p-intra", "0.25",
                      "--p-inter", "0.02", "--feature-dim", "4", "--seed", "1", "--out", str(data))
    assert done.returncode == 0, done.stderr
    config.write_text(f"data_dir = {data}\nsubgraph_size = 5\nembedding_dim = 8\n"
                      "batch_size = 20\nepochs = 2\ninner_steps = 2\n")
    files = ("checkpoint.json", "metrics.jsonl", "report.csv")
    outputs, calls = [], []
    for run in ("cold", "warm", "cold-again"):
        if run == "cold-again":
            (data / INPUTS_FILE).unlink()
        done = run_python("-c", COUNTED_CLI, "train", "--config", str(config),
                          "--out", str(tmp_path / run), env={"OPENBLAS_NUM_THREADS": "1"})
        assert done.returncode == 0, done.stderr
        assert (data / INPUTS_FILE).is_file()
        calls.append(done.stdout.splitlines()[-1].split()[2:])
        outputs.append([(tmp_path / run / name).read_bytes() for name in files])
    both = ["sample_all_subgraphs", "mirror_search"]
    assert calls == [both, [], both]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
