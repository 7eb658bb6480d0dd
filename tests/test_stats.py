import math

import numpy as np
import pytest

from hhr import stats


class TestMeanSe:
    def test_mean_and_standard_error(self):
        x = np.random.default_rng(5).standard_normal(1001)
        assert stats.mean_se(x) == (float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size)))


class TestBudget:
    def test_one_percent_gate_is_the_written_out_ratio(self):
        # pide_vs_mc_guarantee's gate, 1% of the price plus 3 se, bit for bit
        rng = np.random.default_rng(11)
        for dev, se, mc in rng.uniform(0.0, 200.0, size=(1000, 3)):
            dev, se, mc = float(dev), float(se) / 100, float(mc)
            assert stats.budget(dev, se, 0.01 * mc) == dev / (0.01 * mc + 3 * se)
            assert stats.budget(dev, se) == dev / (3 * se)

    @pytest.mark.parametrize("deviation, used", [(0.0, 0.0), (1e-300, math.inf), (0.5, math.inf)])
    def test_zero_gate_needs_a_zero_deviation(self, deviation, used):
        assert stats.budget(deviation, 0.0) == used
        assert stats.budget(deviation, 0.0, 0.0) == used
