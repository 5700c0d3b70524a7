import numpy as np
import pytest

from jodscale.errors import DegenerateDataError, IntegrityError
from jodscale.linkfit import adjusted_r_squared, fit_polynomial_link, fit_report


class TestAdjustedRSquared:
    def test_direct_arithmetic(self):
        assert adjusted_r_squared(0.9, 10, 1) == pytest.approx(0.8875)

    def test_perfect_fit_stays_perfect(self):
        for n, p in ((10, 1), (50, 2), (7, 3)):
            assert adjusted_r_squared(1.0, n, p) == pytest.approx(1.0)

    def test_second_example(self):
        assert adjusted_r_squared(0.5, 100, 3) == pytest.approx(0.484375)

    def test_small_sample_rejected(self):
        with pytest.raises(IntegrityError):
            adjusted_r_squared(0.5, 4, 3)


class TestFitPolynomialLink:
    def test_exact_linear_fit(self):
        mos = np.linspace(0, 10, 12)
        jod = 2.0 * mos + 1.0
        fit = fit_polynomial_link(mos, jod, 1)
        np.testing.assert_allclose(fit.coeffs, [2.0, 1.0], atol=1e-10)
        assert fit.r2 == pytest.approx(1.0)
        assert fit.r2_adj == pytest.approx(1.0)
        assert fit.monotone_on_range

    def test_quadratic_data_prefers_order_two(self):
        mos = np.linspace(0, 4, 15)
        jod = 0.5 * mos**2 - mos + 0.3
        fit1 = fit_polynomial_link(mos, jod, 1)
        fit2 = fit_polynomial_link(mos, jod, 2)
        assert fit2.r2_adj > fit1.r2_adj

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(17)
        mos = rng.uniform(0, 10, 20)
        jod = rng.normal(0, 1, 20)
        fit = fit_polynomial_link(mos, jod, 3)
        design = np.vander(mos, 4)
        oracle = np.linalg.solve(design.T @ design, design.T @ jod)
        np.testing.assert_allclose(fit.coeffs, oracle, rtol=1e-8, atol=1e-10)

    def test_residuals_orthogonal_to_basis(self):
        rng = np.random.default_rng(23)
        mos = rng.uniform(0, 100, 30)
        jod = rng.normal(0, 2, 30)
        for order in (1, 2, 3):
            fit = fit_polynomial_link(mos, jod, order)
            residual = jod - fit.predict(mos)
            design = np.vander((mos - mos.mean()) / mos.std(), order + 1)
            projections = design.T @ residual
            norm = np.linalg.norm(jod)
            assert np.max(np.abs(projections)) < 1e-8 * max(1.0, norm) * 30

    def test_r2_non_decreasing_in_order(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            mos = rng.uniform(0, 50, 25)
            jod = rng.normal(0, 1, 25) + 0.05 * mos
            fits = fit_report(mos, jod)
            r2s = [fit.r2 for fit in fits]
            assert r2s[0] <= r2s[1] + 1e-12
            assert r2s[1] <= r2s[2] + 1e-12

    def test_zero_slope_not_monotone(self):
        mos = np.linspace(0, 10, 10)
        jod = np.full(10, 3.0)
        fit = fit_polynomial_link(mos, jod, 1)
        assert not fit.monotone_on_range

    def test_nonmonotone_cubic_flagged(self):
        mos = np.linspace(-2, 2, 25)
        jod = mos**3 - 3.0 * mos  # derivative changes sign at +-1
        fit = fit_polynomial_link(mos, jod, 3)
        assert not fit.monotone_on_range

    def test_monotone_cubic_passes(self):
        mos = np.linspace(0, 5, 25)
        jod = mos**3 + mos
        fit = fit_polynomial_link(mos, jod, 3)
        assert fit.monotone_on_range

    @pytest.mark.parametrize("order", [2, 3])
    def test_exact_linear_data_keeps_every_coefficient(self, order):
        # on this grid the fitted order-2 term is exactly zero
        mos = np.linspace(0, 10, 12)
        jod = 2.0 * mos + 1.0
        fit = fit_polynomial_link(mos, jod, order)
        assert fit.coeffs.shape == (order + 1,)
        np.testing.assert_allclose(fit.coeffs[-2:], [2.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(fit.coeffs[:-2], 0.0, atol=1e-10)
        np.testing.assert_allclose(fit.predict(mos), jod, atol=1e-10)

    def test_cubic_whose_slope_only_touches_zero_is_monotone(self):
        mos = np.linspace(-1, 1, 25)
        fit = fit_polynomial_link(mos, mos**3, 3)
        assert fit.monotone_on_range

    def test_constant_mos_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_polynomial_link(np.full(10, 2.0), np.arange(10.0), 1)

    def test_too_few_points_rejected(self):
        with pytest.raises(IntegrityError):
            fit_polynomial_link(np.arange(3.0), np.arange(3.0), 2)

    def test_adjusted_never_exceeds_r2(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            mos = rng.uniform(0, 10, 20)
            jod = rng.normal(0, 1, 20)
            for order in (1, 2, 3):
                fit = fit_polynomial_link(mos, jod, order)
                assert fit.r2_adj <= fit.r2 + 1e-12

    def test_noise_only_ordering_frequency(self):
        # With pure noise the adjusted statistic prefers the lower order in
        # roughly 61% of draws (exact beta-distribution argument); check the
        # implementation sits in a generous band around that value.
        wins = 0
        trials = 400
        for t in range(trials):
            rng = np.random.default_rng(10_000 + t)
            mos = rng.uniform(0, 100, 20)
            jod = rng.normal(0, 1, 20)
            fit1 = fit_polynomial_link(mos, jod, 1)
            fit3 = fit_polynomial_link(mos, jod, 3)
            if fit3.r2_adj <= fit1.r2_adj:
                wins += 1
        assert 0.50 <= wins / trials <= 0.72
