import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgcl.config import TrainConfig
from acgcl.curriculum import (MODES, AclThresholds, decay_thresholds, open_window,
                              pacing_difficulty, weight_fields, weights_for_mode)
from acgcl.errors import ConfigError, SizeError
from oracles import acl_oracle_weights

WINDOW = AclThresholds(lambda1=1.0, lambda2=0.1)


def spl(losses, lam):
    """``spl`` weights at threshold ``lam``; the mode reads lambda1 alone."""
    return weights_for_mode("spl", losses, AclThresholds(lambda1=lam, lambda2=0.0))


class TestPacing:
    CFG = TrainConfig(theta0=15.0, max_difficulty=50.0, ramp_epochs=20)

    def test_starts_at_theta0(self):
        assert pacing_difficulty(0, self.CFG) == pytest.approx(15.0)

    def test_reaches_max_at_ramp_end(self):
        assert pacing_difficulty(20, self.CFG) == pytest.approx(50.0)

    def test_clamped_after_ramp(self):
        assert pacing_difficulty(40, self.CFG) == pytest.approx(50.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 200), st.integers(0, 200))
    def test_monotone_and_bounded(self, t1, t2):
        lo, hi = sorted((t1, t2))
        a, b = pacing_difficulty(lo, self.CFG), pacing_difficulty(hi, self.CFG)
        assert a <= b + 1e-12
        assert 15.0 - 1e-12 <= a <= 50.0 + 1e-12


class TestSplWeights:
    def test_threshold_split(self):
        assert spl([0.1, 0.9], 0.5).tolist() == [1.0, 0.0]

    def test_huge_threshold_all_ones(self, rng):
        losses = rng.random(20)
        assert spl(losses, 1e9).sum() == 20

    def test_boundary_is_strict(self):
        assert spl([0.5], 0.5).tolist() == [0.0]


class TestHardAcl:
    def test_interior(self):
        assert weights_for_mode("hard_acl", [0.5], WINDOW).tolist() == [1.0]

    def test_exterior(self):
        assert weights_for_mode("hard_acl", [0.05, 1.5], WINDOW).tolist() == [0.0, 0.0]

    def test_lower_boundary_strict(self):
        assert weights_for_mode("hard_acl", [0.1], WINDOW).tolist() == [0.0]

    def test_upper_boundary_strict(self):
        assert weights_for_mode("hard_acl", [1.0], WINDOW).tolist() == [0.0]


class TestSoftAcl:
    def test_easy_branch_scales(self):
        assert weights_for_mode("soft_acl", [0.05], WINDOW).tolist() == [pytest.approx(0.5)]

    def test_lower_boundary_inclusive(self):
        assert weights_for_mode("soft_acl", [0.1], WINDOW).tolist() == [1.0]

    def test_upper_branch_zero(self):
        assert weights_for_mode("soft_acl", [1.0, 5.0], WINDOW).tolist() == [0.0, 0.0]

    def test_needs_positive_lambda2(self):
        thr = AclThresholds(lambda1=1.0, lambda2=0.0)
        with pytest.raises(ConfigError, match="^thresholds: soft mode needs lambda2 > 0$"):
            weights_for_mode("soft_acl", [0.5], thr)


class TestOracleEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_closed_forms_match_alternating_grid(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 7))
        losses = r.uniform(0.0, 3.0, size=n)
        lam2 = float(r.uniform(0.05, 1.0))
        lam1 = lam2 + float(r.uniform(0.05, 2.0))
        thr = AclThresholds(lambda1=lam1, lambda2=lam2)
        hard = weights_for_mode("hard_acl", losses, thr)
        soft = weights_for_mode("soft_acl", losses, thr)
        assert np.abs(hard - acl_oracle_weights(losses, lam1, lam2, "hard")).max() <= 1e-3
        assert np.abs(soft - acl_oracle_weights(losses, lam1, lam2, "soft")).max() <= 1e-3


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_weight_monotone_in_loss(self, seed):
        r = np.random.default_rng(seed)
        lam2 = float(r.uniform(0.01, 1.0))
        lam1 = lam2 + float(r.uniform(0.01, 2.0))
        thr = AclThresholds(lambda1=lam1, lambda2=lam2)
        above = np.sort(r.uniform(lam2, lam1 + 3.0, size=8))
        for mode in ("hard_acl", "soft_acl"):
            w = weights_for_mode(mode, above, thr)
            assert (np.diff(w) <= 1e-12).all()
        below = np.sort(r.uniform(0.0, lam2, size=8))
        w = weights_for_mode("soft_acl", below, thr)
        assert np.allclose(w, below / lam2)
        assert (np.diff(w) >= -1e-12).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_weights_unit_interval(self, seed):
        r = np.random.default_rng(seed)
        losses = r.uniform(0, 5, size=int(r.integers(0, 12))).tolist()
        thr = AclThresholds(lambda1=2.0, lambda2=0.5)
        for mode in MODES:
            w = weights_for_mode(mode, losses, thr)
            assert type(w) is np.ndarray and w.dtype == np.float64 and w.shape == (len(losses),)
            assert (w >= 0).all() and (w <= 1).all()


class TestThresholds:
    def test_init_from_losses(self):
        thr = open_window([1.0, 2.0, 3.0, 4.0, 5.0], "soft_acl")
        assert thr.lambda1 == pytest.approx(3.0)
        assert thr.lambda2 == pytest.approx(0.95)

    def test_all_equal_losses(self):
        thr = open_window([2.0, 2.0, 2.0], "soft_acl")
        assert thr.lambda1 == pytest.approx(2.0)
        assert thr.lambda2 == pytest.approx(1.9)

    def test_two_losses_interpolated_median(self):
        thr = open_window([1.0, 3.0], "hard_acl")
        assert thr.lambda1 == pytest.approx(2.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0, 10), min_size=1, max_size=30))
    def test_lambda1_is_numpy_median(self, losses):
        thr = open_window(losses, "hard_acl")
        if thr is not None:
            assert np.float64(thr.lambda1).tobytes() == np.median(losses).tobytes()

    def test_empty_losses(self):
        with pytest.raises(SizeError):
            open_window([], "soft_acl")

    def test_degenerate_all_zero(self):
        # lambda2 = 0 = lambda1: no window, the epoch is weighed uniformly
        for mode in ("spl", "hard_acl", "soft_acl"):
            assert open_window([0.0, 0.0], mode) is None

    def test_uniform_mode_opens_no_window(self):
        assert open_window([1.0, 2.0, 3.0], "uniform") is None

    @pytest.mark.parametrize("mode, window", [
        ("spl", AclThresholds(lambda1=1.0, lambda2=0.0)),
        ("hard_acl", AclThresholds(lambda1=1.0, lambda2=0.0)),
        ("soft_acl", None),      # soft weights divide by lambda2
    ])
    def test_zero_lower_threshold(self, mode, window):
        assert open_window([0.0, 1.0, 2.0], mode) == window

    def test_decay_widens(self):
        thr = AclThresholds(lambda1=1.0, lambda2=0.5)
        after = decay_thresholds(thr, 1.1, 0.9)
        assert after.lambda1 == pytest.approx(1.1)
        assert after.lambda2 == pytest.approx(0.45)

    def test_geometric_after_k_steps(self):
        thr = AclThresholds(lambda1=1.0, lambda2=0.5)
        for _ in range(4):
            thr = decay_thresholds(thr, TrainConfig.eta1, TrainConfig.eta2)
        assert thr.lambda1 == pytest.approx(1.05 ** 4)
        assert thr.lambda2 == pytest.approx(0.5 * 0.95 ** 4)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_widening_window_superset(self, seed):
        r = np.random.default_rng(seed)
        losses = r.uniform(0, 3, size=12)
        thr = AclThresholds(lambda1=float(r.uniform(0.5, 2.0)), lambda2=float(r.uniform(0.01, 0.4)))
        wider = decay_thresholds(thr, TrainConfig.eta1, TrainConfig.eta2)
        for mode in ("hard_acl", "soft_acl"):
            before = weights_for_mode(mode, losses, thr) > 0
            after = weights_for_mode(mode, losses, wider) > 0
            assert (after | ~before).all()   # active set only grows

    def test_order_enforced(self):
        with pytest.raises(ConfigError):
            AclThresholds(lambda1=0.5, lambda2=0.5)


class TestSplDegeneration:
    def test_hard_acl_with_vanishing_lower_threshold_is_spl(self, rng):
        losses = rng.uniform(0.01, 2.0, size=30)
        lam = 0.8
        thr = AclThresholds(lambda1=lam, lambda2=1e-12)
        assert np.array_equal(weights_for_mode("hard_acl", losses, thr), spl(losses, lam))


class TestModeDispatch:
    def test_uniform(self):
        assert weights_for_mode("uniform", [1.0, 2.0], None).tolist() == [1.0, 1.0]

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            weights_for_mode("bogus", [1.0], WINDOW)

    def test_needs_thresholds(self):
        with pytest.raises(ConfigError):
            weights_for_mode("hard_acl", [1.0], None)

    def test_spl_needs_positive_lambda1(self):
        thr = AclThresholds(lambda1=0.0, lambda2=-1.0)
        with pytest.raises(ConfigError, match="^spl threshold: must be positive$"):
            weights_for_mode("spl", [0.5], thr)


class TestWeightFields:
    @staticmethod
    def expected(w):
        """The four record fields as the step wrote them before the weights
        were a bare array: the active share, then the zero / fractional /
        one histogram."""
        n = max(1, w.size)
        zero, one = float(np.sum(w == 0.0)) / n, float(np.sum(w == 1.0)) / n
        return [("active_fraction", float(np.mean(w > 0)) if w.size else 0.0),
                ("weight_zero_frac", zero), ("weight_fractional_frac", 1.0 - zero - one),
                ("weight_one_frac", one)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_same_bits_in_record_order(self, seed):
        r = np.random.default_rng(seed)
        losses = r.uniform(0, 3, size=int(r.integers(1, 40)))
        thr = AclThresholds(lambda1=float(r.uniform(1.0, 2.0)), lambda2=float(r.uniform(0.1, 0.9)))
        for w in [weights_for_mode(mode, losses, thr) for mode in MODES] + [r.random(7)]:
            got = list(weight_fields(w).items())
            assert [k for k, _ in got] == [k for k, _ in self.expected(w)]
            assert all(type(v) is float for _, v in got)
            assert np.array([v for _, v in got]).tobytes() == \
                np.array([v for _, v in self.expected(w)]).tobytes()

    @pytest.mark.parametrize("w, fields", [
        (np.zeros(0), [0.0, 0.0, 1.0, 0.0]),
        (np.zeros(4), [0.0, 1.0, 0.0, 0.0]),
        (np.ones(3), [1.0, 0.0, 0.0, 1.0]),
        (np.array([0.0, 0.5, 1.0, 1.0]), [0.75, 0.25, 0.25, 0.5]),
    ])
    def test_edge_weights(self, w, fields):
        assert list(weight_fields(w).values()) == fields == [v for _, v in self.expected(w)]
