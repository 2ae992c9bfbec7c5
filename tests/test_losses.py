import tracemalloc

import numpy as np
import pytest

from acgcl import autodiff as ad
from acgcl.config import TrainConfig
from acgcl.errors import ConfigError, ShapeError
from acgcl.losses import (KERNEL_MAX_RATIO, SINKHORN_TOL, SinkhornStats,
                          _canonical_order_swapped, _resolve_reg, _sinkhorn_kernel_node,
                          balance_loss, inter_graph_losses_grouped, intra_graph_losses_batched,
                          per_sample_losses_batched, sinkhorn_w1, weighted_total_loss)
from oracles import (directional_grad_check, exact_w1_1d, inter_graph_loss, intra_graph_loss,
                     per_sample_loss, sinkhorn_log_node)

# the run defaults of a Sinkhorn solve: reg, max_iters, tol
DEFAULT_SOLVE = (TrainConfig.sinkhorn_reg, TrainConfig.sinkhorn_iters, SINKHORN_TOL)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def inter_one_group(h, h_pos, h_neg, xi):
    """The inter-graph loss of one subgraph: every row in a single group."""
    return inter_graph_losses_grouped(h, h_pos, h_neg, xi, np.shape(h)[0])


def intra_one_row(h, s, s_neg, epsilon):
    """The intra-graph loss of one center: (d,) inputs as a one-row batch."""
    return intra_graph_losses_batched(*(np.reshape(v, (1, -1)) for v in (h, s, s_neg)), epsilon)


def per_sample_one(l_intra, l_inter, l_balance, alpha, beta, n):
    return per_sample_losses_batched(np.array([l_intra]), np.array([l_inter]), l_balance,
                                     alpha, beta, n)


class TestInterGraphLoss:
    def test_hinge_inactive(self, rng):
        h = rng.standard_normal((4, 3))
        h_neg = h + 10.0   # |h - h-|^2 well above the margin
        assert inter_one_group(h, h.copy(), h_neg, xi=1.0).value.tolist() == [0.0]

    def test_equal_mirrors_give_margin(self, rng):
        h = rng.standard_normal((5, 2))
        other = rng.standard_normal((5, 2))
        assert inter_one_group(h, other, other.copy(), xi=0.7).value == pytest.approx([0.7])

    def test_matches_hand_sum(self, rng):
        h, hp, hn = (rng.standard_normal((2, 3)) for _ in range(3))
        expected = np.mean([
            max(0.0, ((h[i] - hp[i]) ** 2).sum() - ((h[i] - hn[i]) ** 2).sum() + 0.5)
            for i in range(2)
        ])
        assert inter_one_group(h, hp, hn, xi=0.5).value == pytest.approx([expected], abs=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            inter_graph_losses_grouped(np.ones((2, 2)), np.ones((3, 2)), np.ones((2, 2)), 1.0, 1)
        with pytest.raises(ShapeError):
            inter_graph_losses_grouped(np.ones((6, 2)), np.ones((6, 2)), np.ones((6, 2)), 1.0, 4)

    def test_grouped_matches_per_subgraph(self, rng):
        h, hp, hn = (rng.standard_normal((6, 4)) for _ in range(3))
        grouped = inter_graph_losses_grouped(h, hp, hn, xi=1.0, group_size=3).value
        for i in range(2):
            s = slice(3 * i, 3 * (i + 1))
            single = float(inter_graph_loss(h[s], hp[s], hn[s], xi=1.0).value)
            assert grouped[i] == pytest.approx(single, abs=1e-12)


class TestIntraGraphLoss:
    def test_equal_summaries_give_margin(self, rng):
        h = rng.standard_normal(4)
        s = rng.standard_normal(4)
        assert intra_one_row(h, s, s.copy(), epsilon=0.2).value == pytest.approx([0.2])

    def test_saturated_hinge_zero(self):
        h = np.array([30.0])
        got = intra_one_row(h, np.array([1.0]), np.array([-1.0]), epsilon=0.5)
        assert got.value.tolist() == [0.0]

    def test_scalar_arithmetic_case(self):
        h, s, s_neg = np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
        expected = max(0.0, sigmoid(0.0) - sigmoid(1.0) + 0.1)
        got = intra_one_row(h, s, s_neg, epsilon=0.1).value
        assert got.tolist() == [0.0] and expected == 0.0

    def test_batched_matches_single(self, rng):
        h, s, sn = (rng.standard_normal((5, 3)) for _ in range(3))
        batched = intra_graph_losses_batched(h, s, sn, epsilon=0.1).value
        for i in range(5):
            assert batched[i] == pytest.approx(
                float(intra_graph_loss(h[i], s[i], sn[i], epsilon=0.1).value), abs=1e-12)


class TestSinkhorn:
    def test_identity_bias_shrinks_with_reg(self, rng):
        p = rng.standard_normal((10, 2))
        big = float(sinkhorn_w1(p, p.copy(), 0.5, 500, 1e-9).value)
        small = float(sinkhorn_w1(p, p.copy(), 0.01, 2000, 1e-9).value)
        assert small < big
        assert small < 0.05

    def test_singletons_exact(self):
        got = float(sinkhorn_w1(np.zeros((1, 2)), np.array([[3.0, 4.0]]), *DEFAULT_SOLVE).value)
        assert got == pytest.approx(5.0)

    def test_one_d_example(self):
        got = float(sinkhorn_w1(np.array([[0.0], [1.0]]), np.array([[2.0], [3.0]]),
                                *DEFAULT_SOLVE).value)
        assert abs(got - 2.0) / 2.0 < 0.05

    def test_one_d_oracle_five_percent(self, rng):
        solve = (0.01, 4000, 1e-9)
        for _ in range(15):
            m = int(rng.integers(2, 33))
            p = rng.random(m)
            q = rng.random(m) + rng.uniform(0.5, 2.0)
            exact = exact_w1_1d(p, q)
            got = float(sinkhorn_w1(p[:, None], q[:, None], *solve).value)
            assert abs(got - exact) / exact < 0.05

    def test_symmetry(self, rng):
        a, b = rng.standard_normal((8, 3)), rng.standard_normal((6, 3))
        ab, ba = (float(sinkhorn_w1(x, y, *DEFAULT_SOLVE).value) for x, y in ((a, b), (b, a)))
        assert abs(ab - ba) < 1e-8

    def test_all_identical_points_zero(self):
        p = np.ones((4, 2))
        assert float(sinkhorn_w1(p, p.copy(), *DEFAULT_SOLVE).value) == 0.0

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            sinkhorn_w1(np.ones((2, 2)), np.ones((2, 3)), *DEFAULT_SOLVE)
        with pytest.raises(ShapeError):
            sinkhorn_w1(np.ones((0, 2)), np.ones((2, 2)), *DEFAULT_SOLVE)


def half_shared_sets(rng, m=256, d=64):
    """Two (m, d) sets sharing about half of their rows, as h and h_neg do."""
    h = rng.standard_normal((m, d))
    other = h.copy()
    moved = rng.random(m) < 0.5
    other[moved] += 0.5 * rng.standard_normal((int(moved.sum()), d))
    return h, other


def log_domain(points_a, points_b, reg, max_iters, tol):
    """The log-domain oracle on the euclidean cost of two point tensors, in
    ``sinkhorn_w1``'s canonical order."""
    a, b = ad.as_tensor(points_a), ad.as_tensor(points_b)
    if _canonical_order_swapped(a.value, b.value):
        a, b = b, a
    return sinkhorn_log_node(ad.pairwise_euclidean(a, b), reg, max_iters, tol)


def assert_matches_log_domain(h, other, solve, reg):
    """``sinkhorn_w1`` with ``solve`` = (reg or None, max_iters, tol) against
    the log-domain oracle at ``reg``: values within 1e-12 relative, gradients
    within 1e-10 of the largest, equal iterations."""
    stats = []
    pa, pb = ad.parameter(h), ad.parameter(other)
    got = sinkhorn_w1(pa, pb, *solve, stats)
    got_grads = ad.gradients(got, [pa, pb])
    wa, wb = ad.parameter(h), ad.parameter(other)
    want, want_stats = log_domain(wa, wb, reg, *solve[1:])
    want_grads = ad.gradients(want, [wa, wb])
    assert abs(float(got.value) - float(want.value)) <= 1e-12 * abs(float(want.value))
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max()
    assert stats[0].iters == want_stats.iters
    assert stats[0].converged == want_stats.converged
    assert stats[0].marginal_err == pytest.approx(want_stats.marginal_err, rel=1e-9, abs=1e-12)
    return stats[0]


def automatic_reg(h, other):
    """The reg ``sinkhorn_w1`` picks for ``reg=None``, and its cost matrix."""
    a, b = (other, h) if _canonical_order_swapped(h, other) else (h, other)
    cost = ad.pairwise_euclidean(a, b).value
    return _resolve_reg(cost, None), cost


class TestSinkhornPaths:
    """The kernel-domain node against the log-domain oracle, and the range
    check at KERNEL_MAX_RATIO."""

    def test_kernel_matches_log_domain_at_automatic_reg(self, rng):
        h, other = half_shared_sets(rng)
        reg, cost = automatic_reg(h, other)
        assert cost.max() / reg <= KERNEL_MAX_RATIO

        solve = (None, 200, 0.0)
        got = sinkhorn_w1(h, other, *solve)
        want = _sinkhorn_kernel_node(ad.Tensor(cost), reg, 200, 0.0)[0]
        assert float(got.value) == float(want.value)
        assert assert_matches_log_domain(h, other, solve, reg).iters == 200

    def test_kernel_matches_log_domain_at_an_early_stop(self, rng):
        """The run defaults stop the solve before its budget; the replay is
        still the exact gradient of the value returned."""
        h, other = half_shared_sets(rng)
        stats = assert_matches_log_domain(h, other, DEFAULT_SOLVE, automatic_reg(h, other)[0])
        assert stats.converged and stats.iters < DEFAULT_SOLVE[1]

    @pytest.mark.parametrize("shape", [(20, 15), (7, 7), (1, 3)])
    def test_automatic_reg_is_five_percent_of_numpy_median(self, rng, shape):
        cost = ad.pairwise_euclidean(rng.standard_normal((shape[0], 2)),
                                     rng.standard_normal((shape[1], 2))).value
        cost[0, :2] = cost[-1, -1]                      # ties
        assert _resolve_reg(cost, None) == 0.05 * float(np.median(cost))

    def test_kernel_matches_log_domain_at_large_ratios(self, rng):
        h, other = rng.standard_normal((20, 2)), rng.standard_normal((15, 2))
        peak = ad.pairwise_euclidean(h, other).value.max()
        for ratio in (300.0, 0.999 * KERNEL_MAX_RATIO):
            solve = (peak / ratio, 3000, 1e-9)
            assert assert_matches_log_domain(h, other, solve, solve[0]).iters < 3000

    def test_ratio_above_the_limit_is_a_config_error(self, rng):
        h, other = half_shared_sets(rng, m=24, d=4)
        peak = ad.pairwise_euclidean(h, other).value.max()
        with pytest.raises(ConfigError, match=r"^sinkhorn_reg: max cost / reg = 606 exceeds 600$"):
            sinkhorn_w1(h, other, peak / (1.01 * KERNEL_MAX_RATIO), *DEFAULT_SOLVE[1:])

    def test_automatic_reg_above_the_limit_is_a_config_error(self):
        # every cost is 0.01 except the 20 to the far point: the automatic
        # reg is 5% of the median, 5e-4, against a max cost near 100
        near = np.zeros((20, 2))
        near[:, 0] = 0.01
        far = np.vstack([np.zeros((20, 2)), [[100.0, 0.0]]])
        with pytest.raises(ConfigError, match=r"^sinkhorn_reg: max cost / reg = .* exceeds 600$"):
            sinkhorn_w1(near, far, *DEFAULT_SOLVE)


class TestSinkhornStats:
    def test_tol_zero_runs_the_budget(self, rng):
        stats = []
        sinkhorn_w1(rng.standard_normal((9, 3)), rng.standard_normal((7, 3)),
                    None, 37, 0.0, stats)
        assert len(stats) == 1 and stats[0].iters == 37 and stats[0].marginal_err >= 0.0
        assert not stats[0].converged

    def test_early_stop_is_below_tol(self, rng):
        stats = []
        sinkhorn_w1(rng.standard_normal((9, 3)), rng.standard_normal((7, 3)), 0.5, 5000, 1e-8,
                    stats)
        assert stats[0].iters < 5000 and stats[0].iters % 10 == 0
        assert stats[0].marginal_err < 1e-8 and stats[0].converged

    def test_budget_cap_is_not_converged(self, rng):
        stats = []
        sinkhorn_w1(rng.standard_normal((9, 3)), rng.standard_normal((7, 3)), 0.05, 20, 1e-12,
                    stats)
        assert stats[0].iters == 20 and stats[0].marginal_err >= 1e-12
        assert not stats[0].converged

    def test_balance_loss_reports_both_solves(self, rng):
        h, hp, hn = (rng.standard_normal((6, 3)) for _ in range(3))
        stats = []
        balance_loss(h, hp, hn, None, 20, 0.0, stats)
        assert [s.iters for s in stats] == [20, 20]

    def test_identical_points_report_no_iterations(self):
        stats = []
        sinkhorn_w1(np.ones((4, 2)), np.ones((3, 2)), *DEFAULT_SOLVE, stats=stats)
        assert stats == [SinkhornStats(0, 0.0, True)]
        sinkhorn_w1(np.ones((4, 2)), np.ones((3, 2)), None, 200, 0.0, stats)
        assert stats[1] == SinkhornStats(0, 0.0, False)


    def test_what_a_solve_holds_does_not_grow_with_its_cap(self, rng):
        """A solve that stops after 10 iterations holds the same bytes after
        its forward pass at a cap of 200 and of 20 000: the kernel and the
        iterates it ran, no (cap, points) history (two of them would be
        82 MB at the larger cap)."""
        p, q = rng.standard_normal((256, 16)), rng.standard_normal((256, 16))
        held = {}
        for cap in (200, 20_000):
            a, b = ad.parameter(p), ad.parameter(q)
            stats = []
            tracemalloc.start()
            try:
                out = sinkhorn_w1(a, b, None, cap, SINKHORN_TOL, stats)
                held[cap], _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert stats[0].converged and stats[0].iters < 20
            del out
        assert abs(held[200] - held[20_000]) <= 64 * 1024


class TestBalanceLoss:
    def test_identical_sets_near_zero(self, rng):
        h = rng.standard_normal((6, 3))
        assert float(balance_loss(h, h.copy(), h.copy(), *DEFAULT_SOLVE).value) < 0.2

    def test_compositional(self, rng):
        h, hp, hn = (rng.standard_normal((7, 3)) for _ in range(3))
        solve = (0.1, 200, 0.0)
        total = float(balance_loss(h, hp, hn, *solve).value)
        parts = float(sinkhorn_w1(h, hp, *solve).value) + float(sinkhorn_w1(h, hn, *solve).value)
        assert total == pytest.approx(parts, abs=1e-10)


class TestPerSampleLoss:
    def test_arithmetic(self):
        got = per_sample_one(0.2, 0.5, 1.0, alpha=1.0, beta=2.0, n=10).value
        assert got == pytest.approx([0.2 + 0.1 + 1.0])

    def test_zero_weights_leave_intra(self):
        assert per_sample_one(0.7, 9.0, 9.0, alpha=0.0, beta=0.0, n=3).value == pytest.approx([0.7])

    def test_breakdown_identity(self, rng):
        alpha, beta = 0.8, 1.7
        n = 6
        for _ in range(10):
            li, lc, lb = rng.random(n), rng.random(n), rng.random()
            total = per_sample_losses_batched(li, lc, lb, alpha, beta, n).value
            assert np.abs(total - (li + alpha * lb / n + beta * lc)).max() < 1e-10

    def test_batched_matches_scalar(self, rng):
        li, lc = rng.random(4), rng.random(4)
        lb = 0.9
        vec = per_sample_losses_batched(li, lc, lb, 0.5, 2.0, n=4).value
        for i in range(4):
            want = float(per_sample_loss(li[i], lc[i], lb, 0.5, 2.0, 4).value)
            assert vec[i] == pytest.approx(want, abs=1e-12)

    def test_sum_consistent_with_full_loss(self, rng):
        # uniform unit weights: sum of per-sample losses equals
        # n * mean_intra + alpha * balance + n * beta * mean_inter
        alpha, beta = 0.7, 1.3
        n = 5
        li, lc = rng.random(n), rng.random(n)
        lb = 0.4
        total = per_sample_losses_batched(li, lc, lb, alpha, beta, n).value.sum()
        expected = li.sum() + alpha * lb + beta * lc.sum()
        assert total == pytest.approx(expected, abs=1e-10)


class TestWeightedTotal:
    def test_masking(self):
        losses = ad.Tensor(np.array([2.0, 3.0]))
        assert float(weighted_total_loss(losses, np.array([1.0, 0.0])).value) == pytest.approx(2.0)

    def test_all_ones_plain_sum(self, rng):
        values = rng.random(5)
        got = float(weighted_total_loss(ad.Tensor(values), np.ones(5)).value)
        assert got == pytest.approx(values.sum())

    def test_soft_weight_composition(self):
        # soft weights at losses [0.05, 0.5, 2.0] with window (0.1, 1.0)
        from acgcl.curriculum import AclThresholds, weights_for_mode
        losses = np.array([0.05, 0.5, 2.0])
        weights = weights_for_mode("soft_acl", losses, AclThresholds(lambda1=1.0, lambda2=0.1))
        got = float(weighted_total_loss(ad.Tensor(losses), weights).value)
        assert got == pytest.approx(0.5 * 0.05 + 1.0 * 0.5 + 0.0 * 2.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            weighted_total_loss(ad.Tensor(np.array([1.0])), np.array([1.0, 2.0]))


class TestLossGradients:
    def test_inter_graph_gradcheck(self, rng):
        def build(values):
            h, hp, hn = (ad.parameter(v) for v in values)
            return ad.sum_all(inter_one_group(h, hp, hn, xi=0.8)), [h, hp, hn]
        values = [rng.standard_normal((4, 3)) for _ in range(3)]
        assert directional_grad_check(build, values, rng) < 1e-4

    def test_intra_graph_gradcheck(self, rng):
        def build(values):
            h, s, sn = (ad.parameter(v) for v in values)
            return ad.sum_all(intra_graph_losses_batched(h, s, sn, epsilon=0.3)), [h, s, sn]
        values = [rng.standard_normal((3, 5)) * 0.5 for _ in range(3)]
        assert directional_grad_check(build, values, rng) < 1e-4

    def test_balance_gradcheck(self, rng):
        solve = (0.2, 250, 0.0)
        def build(values):
            h, hp, hn = (ad.parameter(v) for v in values)
            return balance_loss(h, hp, hn, *solve), [h, hp, hn]
        values = [rng.standard_normal((5, 2)) for _ in range(3)]
        assert directional_grad_check(build, values, rng) < 1e-4
