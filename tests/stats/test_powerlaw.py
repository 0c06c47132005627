"""Tests for repro.stats.powerlaw — fitters recover known exponents."""

import math

import numpy as np
import pytest

from repro.experiments.rosters import standard_roster
from repro.graph import giant_component
from repro.stats.powerlaw import (
    _generalized_zeta,
    _model_ccdf,
    bootstrap_gamma,
    fit_discrete_powerlaw,
    fit_powerlaw_auto_xmin,
    hill_estimator,
    sample_discrete_powerlaw,
)


class TestSampling:
    def test_respects_x_min(self):
        samples = sample_discrete_powerlaw(2.5, 1000, x_min=3, seed=1)
        assert min(samples) >= 3

    def test_respects_x_max(self):
        samples = sample_discrete_powerlaw(2.0, 1000, x_min=1, x_max=50, seed=2)
        assert max(samples) <= 50

    def test_size(self):
        assert len(sample_discrete_powerlaw(2.2, 257, seed=3)) == 257

    def test_seeded_reproducible(self):
        a = sample_discrete_powerlaw(2.2, 100, seed=4)
        b = sample_discrete_powerlaw(2.2, 100, seed=4)
        assert a == b

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            sample_discrete_powerlaw(0.9, 10)

    def test_bad_x_min_rejected(self):
        with pytest.raises(ValueError):
            sample_discrete_powerlaw(2.0, 10, x_min=0)

    def test_heavier_tail_for_smaller_gamma(self):
        light = sample_discrete_powerlaw(3.5, 5000, seed=5)
        heavy = sample_discrete_powerlaw(1.8, 5000, seed=5)
        assert max(heavy) > max(light)


class TestFixedXminFit:
    @pytest.mark.parametrize("gamma", [1.8, 2.2, 2.8])
    def test_recovers_exponent(self, gamma):
        samples = sample_discrete_powerlaw(gamma, 20_000, x_min=1, seed=7)
        fit = fit_discrete_powerlaw(samples, x_min=2)
        assert fit.gamma == pytest.approx(gamma, abs=0.1)

    def test_sigma_shrinks_with_sample_size(self):
        small = fit_discrete_powerlaw(
            sample_discrete_powerlaw(2.2, 500, seed=8), x_min=1
        )
        large = fit_discrete_powerlaw(
            sample_discrete_powerlaw(2.2, 50_000, seed=8), x_min=1
        )
        assert large.sigma < small.sigma

    def test_ks_small_for_true_powerlaw(self):
        samples = sample_discrete_powerlaw(2.2, 20_000, x_min=1, seed=9)
        fit = fit_discrete_powerlaw(samples, x_min=1)
        assert fit.ks < 0.02

    def test_n_tail_counts_correctly(self):
        samples = [1, 1, 2, 3, 5, 8]
        fit = fit_discrete_powerlaw(samples, x_min=2)
        assert fit.n_tail == 4

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_discrete_powerlaw([5], x_min=1)

    def test_bad_x_min_rejected(self):
        with pytest.raises(ValueError):
            fit_discrete_powerlaw([1, 2, 3], x_min=0)

    def test_str_mentions_gamma(self):
        samples = sample_discrete_powerlaw(2.2, 1000, seed=10)
        assert "gamma=" in str(fit_discrete_powerlaw(samples, x_min=1))


class TestAutoXmin:
    def test_recovers_exponent_with_contaminated_head(self):
        # Power law body + a non-power-law bump at low values.
        samples = sample_discrete_powerlaw(2.3, 10_000, x_min=5, seed=11)
        samples += [1, 2, 2, 3, 3, 3] * 500
        fit = fit_powerlaw_auto_xmin(samples, min_tail=200)
        assert fit.gamma == pytest.approx(2.3, abs=0.2)
        assert fit.x_min >= 3

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            fit_powerlaw_auto_xmin([1, 2, 3], min_tail=50)

    def test_explicit_candidates(self):
        samples = sample_discrete_powerlaw(2.2, 5_000, seed=12)
        fit = fit_powerlaw_auto_xmin(samples, x_min_candidates=[1, 2], min_tail=50)
        assert fit.x_min in (1, 2)


class TestHill:
    def test_recovers_exponent(self):
        samples = sample_discrete_powerlaw(2.2, 50_000, x_min=1, seed=13)
        assert hill_estimator(samples, tail_fraction=0.05) == pytest.approx(2.2, abs=0.3)

    def test_agrees_with_mle(self):
        samples = sample_discrete_powerlaw(2.5, 30_000, x_min=1, seed=14)
        mle = fit_discrete_powerlaw(samples, x_min=3).gamma
        hill = hill_estimator(samples, tail_fraction=0.05)
        assert abs(mle - hill) < 0.35

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            hill_estimator([1, 2, 3], tail_fraction=0.0)

    def test_tiny_sample_rejected(self):
        with pytest.raises(ValueError):
            hill_estimator([1.0], tail_fraction=0.5)


class TestPlausibility:
    def test_true_powerlaw_plausible(self):
        from repro.stats.powerlaw import powerlaw_plausibility

        samples = sample_discrete_powerlaw(2.3, 600, x_min=1, seed=30)
        p = powerlaw_plausibility(samples, n_boot=15, seed=31)
        assert p >= 0.1  # CSN: do not reject

    def test_poisson_rejected(self):
        import numpy as np

        from repro.stats.powerlaw import powerlaw_plausibility

        rng = np.random.default_rng(32)
        samples = (rng.poisson(8, 600) + 1).tolist()
        # Constrain the fit to a substantial tail: letting x_min retreat to
        # the last few dozen points makes any distribution locally
        # power-law-ish (small-sample caveat CSN discuss).
        fit = fit_powerlaw_auto_xmin(samples, min_tail=200)
        p = powerlaw_plausibility(samples, fit=fit, n_boot=15, seed=33)
        assert p < 0.1  # CSN: reject the power law

    def test_reproducible(self):
        from repro.stats.powerlaw import powerlaw_plausibility

        samples = sample_discrete_powerlaw(2.2, 300, seed=34)
        a = powerlaw_plausibility(samples, n_boot=8, seed=35)
        b = powerlaw_plausibility(samples, n_boot=8, seed=35)
        assert a == b

    def test_validation(self):
        from repro.stats.powerlaw import powerlaw_plausibility

        with pytest.raises(ValueError):
            powerlaw_plausibility([1, 2, 3], n_boot=5)
        samples = sample_discrete_powerlaw(2.2, 300, seed=36)
        with pytest.raises(ValueError):
            powerlaw_plausibility(samples, n_boot=0)

    def test_accepts_precomputed_fit(self):
        from repro.stats.powerlaw import powerlaw_plausibility

        samples = sample_discrete_powerlaw(2.2, 400, seed=37)
        fit = fit_powerlaw_auto_xmin(samples, min_tail=50)
        p = powerlaw_plausibility(samples, fit=fit, n_boot=8, seed=38)
        assert 0.0 <= p <= 1.0


class TestBootstrap:
    def test_mean_near_point_estimate(self):
        samples = sample_discrete_powerlaw(2.2, 3_000, seed=15)
        point = fit_discrete_powerlaw(samples, x_min=2).gamma
        mean, std = bootstrap_gamma(samples, x_min=2, n_boot=30, seed=16)
        assert mean == pytest.approx(point, abs=3 * std + 0.05)

    def test_std_positive(self):
        samples = sample_discrete_powerlaw(2.2, 2_000, seed=17)
        _, std = bootstrap_gamma(samples, x_min=1, n_boot=20, seed=18)
        assert std > 0

    def test_reproducible(self):
        samples = sample_discrete_powerlaw(2.2, 1_000, seed=19)
        assert bootstrap_gamma(samples, 1, n_boot=10, seed=20) == bootstrap_gamma(
            samples, 1, n_boot=10, seed=20
        )


def _direct_sum_zeta(gamma, x_min, terms=100_000):
    """Oracle: ``sum_{k>=x_min} k^-gamma`` summed over *terms* terms, plus
    the integral tail and the Euler–Maclaurin boundary term."""
    head = float(np.sum(np.arange(x_min, x_min + terms, dtype=float) ** -gamma))
    upper = x_min + terms
    return head + upper ** (1.0 - gamma) / (gamma - 1.0) + 0.5 * upper ** -gamma


class TestZetaNormaliser:
    @pytest.mark.parametrize("gamma", [1.05, 1.5, 2.2, 3.5])
    @pytest.mark.parametrize("x_min", [1, 7, 300])
    def test_matches_direct_sum(self, gamma, x_min):
        expected = _direct_sum_zeta(gamma, x_min)
        assert _generalized_zeta(gamma, x_min) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("gamma, x_min", [(1.0, 1), (0.9, 3)])
    def test_diverges_at_or_below_one(self, gamma, x_min):
        with pytest.raises(ValueError):
            _generalized_zeta(gamma, x_min)

    @pytest.mark.parametrize("gamma", [1.05, 2.2, 3.5])
    def test_model_ccdf_starts_at_one_and_decreases(self, gamma):
        values = np.arange(4, 400, dtype=float)
        ccdf = _model_ccdf(gamma, 4, values)
        assert ccdf[0] == 1.0
        assert np.all(np.diff(ccdf) < 0)


#: (gamma, sigma, x_min) of fit_powerlaw_auto_xmin(min_tail=50) on the
#: giant-component degrees of standard_roster(600), per seed and model;
#: recorded from the direct-sum normaliser, which the zeta call reproduces
#: bit for bit.
GOLDEN_FITS = {
    1: {
        "erdos-renyi": (7.604027303936164, 0.7080260452961008, 7),
        "waxman": (5.32132029279666, 0.3194411879042934, 6),
        "transit-stub": (4.986696866702971, 0.2547007199895217, 4),
        "hot": (2.2325244074201827, 0.09370709545828515, 3),
        "plrg": (2.0872119203915918, 0.048670289848232545, 1),
        "inet": (2.203011868892406, 0.058700968530502516, 2),
        "barabasi-albert": (2.5868649436833135, 0.09131381646708739, 3),
        "albert-barabasi": (2.6623017782085348, 0.13395209460206617, 4),
        "glp": (1.9536103260952618, 0.038930978539707756, 1),
        "pfp": (1.9981480736718438, 0.06429636957849429, 3),
        "serrano": (2.1434720706957444, 0.12705245229952716, 5),
        "serrano-distance": (2.0290821820048093, 0.09025647802532938, 3),
    },
    2: {
        "erdos-renyi": (6.998842409072498, 0.6506658150910337, 7),
        "waxman": (5.880189777749056, 0.4550800432876223, 7),
        "transit-stub": (5.111201986145229, 0.2664896435694391, 4),
        "hot": (2.2042713942924275, 0.0929115552014204, 3),
        "plrg": (2.33387756866354, 0.09780464861810262, 2),
        "inet": (2.225158097658038, 0.05978159384389828, 2),
        "barabasi-albert": (2.764981247658686, 0.13082911437466588, 4),
        "albert-barabasi": (2.831449701713008, 0.24473776088997884, 7),
        "glp": (1.9640154975252089, 0.03935576788453369, 1),
        "pfp": (2.065390315633075, 0.05067544954886002, 2),
        "serrano": (2.1327248695180914, 0.07121380240003933, 2),
        "serrano-distance": (2.117897935623191, 0.07098658989869802, 2),
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_FITS))
def test_roster_fits_are_golden(seed):
    fits = {}
    for name, generator in standard_roster(600).items():
        degrees = list(giant_component(generator.generate(600, seed=seed)).degrees().values())
        fit = fit_powerlaw_auto_xmin(degrees, min_tail=50)
        fits[name] = (fit.gamma, fit.sigma, fit.x_min)
    assert fits == GOLDEN_FITS[seed]
