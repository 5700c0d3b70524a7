import math
import re

import numpy as np
import pytest

from jodscale.errors import IntegrityError, ParseError
from jodscale.photometry import (
    DisplayModel,
    PuLut,
    build_pu_lut,
    default_threshold,
    display_forward,
    log_encode,
    pu_encode,
    tabulated_threshold,
)


class TestDisplayModel:
    def test_validation(self):
        with pytest.raises(IntegrityError):
            DisplayModel(l_peak=1.0, l_black=2.0)
        with pytest.raises(IntegrityError):
            DisplayModel(l_peak=100.0, l_black=0.5, gamma=0.0)
        for values in ((math.inf, 0.5), (100.0, 0.5, math.inf), (100.0, math.nan)):
            with pytest.raises(IntegrityError, match="finite"):
                DisplayModel(*values)

    def test_endpoints(self):
        display = DisplayModel(100.0, 0.5)
        assert float(display_forward(1.0, display)) == pytest.approx(100.0)
        assert float(display_forward(0.0, display)) == pytest.approx(0.5)

    def test_mid_value(self):
        display = DisplayModel(100.0, 0.5, 2.2)
        expected = 99.5 * 0.5**2.2 + 0.5
        assert float(display_forward(0.5, display)) == pytest.approx(expected)
        assert expected == pytest.approx(22.155, abs=1e-3)

    def test_strictly_monotone(self):
        display = DisplayModel(300.0, 0.3)
        values = display_forward(np.linspace(0, 1, 64), display)
        assert np.all(np.diff(values) > 0)

    def test_clamping_and_strict(self):
        display = DisplayModel(100.0, 0.5)
        with pytest.warns(UserWarning):
            out = display_forward([-0.2, 1.3], display)
        assert out[0] == pytest.approx(0.5)
        assert out[1] == pytest.approx(100.0)
        with pytest.raises(IntegrityError):
            display_forward([-0.2], display, strict=True)


class TestBuildPuLut:
    def test_anchor_contract(self):
        lut = build_pu_lut()
        assert float(pu_encode(0.8, lut)) == pytest.approx(0.0, abs=1e-6)
        assert float(pu_encode(80.0, lut)) == pytest.approx(255.0, abs=1e-6)

    def test_strictly_increasing_values(self):
        lut = build_pu_lut()
        assert np.all(np.diff(lut.pu_values) > 0)

    def test_constant_threshold_gives_affine_map(self):
        lut = build_pu_lut(lambda l: np.full_like(np.asarray(l, float), 2.0))
        midpoint = float(pu_encode(40.4, lut))
        assert midpoint == pytest.approx(127.5, abs=1e-9)

    def test_matches_explicit_trapezoid_sum(self):
        lut = build_pu_lut(n_knots=999)
        knots = lut.luminance_knots
        integrand = 1.0 / default_threshold(knots)
        steps = np.diff(knots) * 0.5 * (integrand[:-1] + integrand[1:])
        raw = np.concatenate([[0.0], np.cumsum(steps)])
        low, high = raw[np.searchsorted(knots, [0.8, 80.0])]
        np.testing.assert_array_equal(lut.pu_values, (raw - low) * (255.0 / (high - low)))

    def test_refinement_convergence(self):
        lut = build_pu_lut()
        oracle = build_pu_lut(n_knots=10**5)
        probes = np.logspace(-2.5, 5.5, 17)
        diff = np.abs(pu_encode(probes, lut) - pu_encode(probes, oracle))
        assert float(diff.max()) < 0.1

    def test_halving_knots_is_stable(self):
        full = build_pu_lut(n_knots=4096)
        half = build_pu_lut(n_knots=2048)
        probes = np.logspace(-2.5, 5.5, 33)
        diff = np.abs(pu_encode(probes, full) - pu_encode(probes, half))
        assert float(diff.max()) < 0.5

    def test_nonpositive_threshold_rejected(self):
        bad = lambda l: np.asarray(l, float) - 1.0
        with pytest.raises(IntegrityError):
            build_pu_lut(bad)

    def test_range_and_knot_validation(self):
        with pytest.raises(IntegrityError):
            build_pu_lut(l_min=1.0)
        with pytest.raises(IntegrityError):
            build_pu_lut(l_max=50.0)
        with pytest.raises(IntegrityError):
            build_pu_lut(n_knots=32)


class TestPuEncode:
    def test_monotone_on_sorted_input(self):
        lut = build_pu_lut()
        values = np.logspace(-2, 5, 100)
        encoded = pu_encode(values, lut)
        assert np.all(np.diff(encoded) > 0)

    def test_empty_input(self):
        lut = build_pu_lut()
        assert pu_encode(np.array([]), lut).size == 0

    def test_out_of_range_clamps_with_warning(self):
        lut = build_pu_lut()
        with pytest.warns(UserWarning):
            out = pu_encode([1e-9], lut)
        assert out[0] == pytest.approx(float(lut.pu_values[0]))
        with pytest.raises(IntegrityError):
            pu_encode([1e-9], lut, strict=True)

    @pytest.mark.parametrize("values", [[0.6, 15.0], [0.6], [15.0], [5.0, 10.5]])
    def test_strict_rejects_any_value_outside_the_knots(self, values):
        lut = PuLut([1.0, 10.0], [0.0, 1.0])
        with pytest.raises(IntegrityError, match="outside the LUT range"):
            pu_encode(values, lut, strict=True)
        np.testing.assert_array_equal(pu_encode([1.0, 5.5, 10.0], lut, strict=True),
                                      [0.0, 0.5, 1.0])
        with pytest.warns(UserWarning, match="outside the LUT range was clamped"):
            clamped = pu_encode(values, lut)
        np.testing.assert_array_equal(clamped, pu_encode(np.clip(values, 1.0, 10.0), lut))

    def test_a_built_lut_spans_exactly_its_range(self):
        # logspace gives 0.0020000000000000005 and 499.99999999999994
        lut = build_pu_lut(l_min=0.002, l_max=500.0, n_knots=64)
        assert lut.luminance_knots[[0, -1]].tolist() == [0.002, 500.0]
        pu_encode([0.002, 500.0], lut, strict=True)

    def test_invertible_by_bisection(self):
        lut = build_pu_lut(n_knots=512)
        knots = lut.luminance_knots
        for target in (-20.0, 0.0, 100.0, 255.0, 400.0):
            lo, hi = lut.luminance_knots[[0, -1]]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if float(pu_encode(mid, lut)) < target:
                    lo = mid
                else:
                    hi = mid
            by_bisection = 0.5 * (lo + hi)
            assert float(pu_encode(by_bisection, lut)) == pytest.approx(target, abs=1e-6)
            # the luminance lies between the two knots whose codes bracket the target
            pos = int(np.searchsorted(lut.pu_values, target))
            assert knots[pos - 1] <= by_bisection <= knots[pos]

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        lut = build_pu_lut(n_knots=256)
        path = tmp_path / "lut.csv"
        lut.to_csv(path)
        loaded = PuLut.from_csv(path)
        np.testing.assert_array_equal(lut.luminance_knots, loaded.luminance_knots)
        np.testing.assert_array_equal(lut.pu_values, loaded.pu_values)
        # columns are found by name: reordered, with an extra one
        path.write_text("pu,luminance,extra\n" + "".join(
            f"{v!r},{k!r},x\n" for k, v in zip(lut.luminance_knots.tolist(),
                                              lut.pu_values.tolist())))
        reordered = PuLut.from_csv(path)
        np.testing.assert_array_equal(lut.luminance_knots, reordered.luminance_knots)
        np.testing.assert_array_equal(lut.pu_values, reordered.pu_values)

    @pytest.mark.parametrize("text", ["wrong,header\n1,2\n",
                                      "luminance,pu\n1.0,0.0\n2.0\n3.0,2.0\n"])
    def test_bad_lut_csv(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError):
            PuLut.from_csv(path)

    @pytest.mark.parametrize("text", ["luminance,pu\n", "luminance,pu\n1.0,0.0\n"])
    def test_lut_csv_with_fewer_than_two_rows(self, tmp_path, text):
        path = tmp_path / "short.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="at least two rows"):
            PuLut.from_csv(path)


class TestThresholds:
    def test_default_threshold_positive_and_weber_like(self):
        lums = np.logspace(-3, 6, 200)
        values = default_threshold(lums)
        assert np.all(values > 0)
        # contrast threshold T/l flattens at high luminance (Weber region)
        weber = values[-50:] / lums[-50:]
        assert np.max(weber) / np.min(weber) < 1.01

    def test_tabulated_threshold_matches_table(self, tmp_path):
        path = tmp_path / "thr.csv"
        lums = np.logspace(-3, 6, 40)
        thrs = 0.01 * lums + 0.05
        path.write_text("luminance,threshold\n" + "\n".join(
            f"{float(l)!r},{float(t)!r}" for l, t in zip(lums, thrs)))
        threshold = tabulated_threshold(path)
        np.testing.assert_allclose(threshold(lums), thrs, rtol=1e-12)
        lut = build_pu_lut(threshold)
        assert float(pu_encode(0.8, lut)) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("text, message", [
        ("1.0\n", "missing columns"),
        ("1.0,0.01\n10.0,0.1\n", "missing columns ['luminance', 'threshold']"),
        ("luminance,threshold\n1.0,0.01\n10.0\n", "fewer than 2 fields"),
        ("luminance,threshold\n1.0,0.01\n", "at least two rows"),
    ])
    def test_tabulated_threshold_bad_rows(self, tmp_path, text, message):
        """A table without its header, with a short row or with one row."""
        path = tmp_path / "thr.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            tabulated_threshold(path)


class TestLogEncode:
    def test_anchors(self):
        assert float(log_encode(0.8)) == pytest.approx(0.0, abs=1e-9)
        assert float(log_encode(80.0)) == pytest.approx(255.0, abs=1e-9)

    def test_monotone(self):
        values = log_encode(np.logspace(0, 4, 50))
        assert np.all(np.diff(values) > 0)

    def test_below_the_low_anchor_clamps_or_is_strict(self):
        with pytest.warns(UserWarning, match="luminance below 0.8 cd/m\\^2 was clamped"):
            assert log_encode([0.5, 8e6]).tolist() == pytest.approx([0.0, 892.5])
        with pytest.raises(IntegrityError, match="luminance below 0.8 cd/m\\^2 in strict mode"):
            log_encode([0.5], strict=True)
        # no upper bound
        assert float(log_encode(8e6, strict=True)) == pytest.approx(892.5)
