"""Display models and the perceptually uniform luminance encoding.

The display model converts normalized gamma-encoded pixel values into
absolute luminance using a gain-gamma-offset parameterization. The PU
encoding maps absolute luminance (cd/m^2) to approximately perceptually
uniform values by accumulating reciprocal detection thresholds, anchored
so that the luminance range of a typical office display, 0.8 to 80 cd/m^2,
spans code values 0 to 255.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .csvio import _cells, _read_csv, _write_csv
from .errors import IntegrityError, ParseError

# Anchors: SDR display luminance range mapped onto the 8-bit code range.
PU_ANCHOR_LOW = 0.8
PU_ANCHOR_HIGH = 80.0
PU_CODE_LOW = 0.0
PU_CODE_HIGH = 255.0

DEFAULT_L_MIN = 1e-3
DEFAULT_L_MAX = 1e6
DEFAULT_KNOTS = 4096

SDR_GAMMA = 2.2


@dataclass(frozen=True)
class DisplayModel:
    """Gain-gamma-offset display model.

    l_peak and l_black are the peak and black luminance of the display in
    cd/m^2; gamma is the decoding exponent applied per color channel.
    """

    l_peak: float
    l_black: float
    gamma: float = SDR_GAMMA

    def __post_init__(self):
        if not (math.isfinite(self.l_peak) and self.l_peak > self.l_black >= 0.0):
            raise IntegrityError(
                f"display requires a finite L_peak > L_black >= 0, "
                f"got L_peak={self.l_peak}, L_black={self.l_black}"
            )
        if not 0.0 < self.gamma < math.inf:
            raise IntegrityError(f"display gamma must be positive and finite, got {self.gamma}")


def _in_range(values, low: float, high: float | None, strict: bool, what: str,
              clamped: str = "was clamped") -> np.ndarray:
    """``values`` as floats, those outside [low, high] (no upper bound when
    ``high`` is None) rejected under ``strict`` with "<what> in strict mode",
    else clamped with the warning "<what> <clamped>"."""
    arr = np.asarray(values, dtype=float)
    if arr.size and (np.nanmin(arr) < low or (high is not None and np.nanmax(arr) > high)):
        if strict:
            raise IntegrityError(f"{what} in strict mode")
        warnings.warn(f"{what} {clamped}", stacklevel=3)
        arr = np.clip(arr, low, high)
    return arr


def display_forward(c_srgb, display: DisplayModel, strict: bool = False) -> np.ndarray:
    """Map normalized gamma-encoded values in [0, 1] to absolute luminance.

    Out-of-range inputs are clamped with a warning, or rejected when
    ``strict`` is set.
    """
    values = _in_range(c_srgb, 0.0, 1.0, strict, "encoded values outside [0, 1]", "were clamped")
    return (display.l_peak - display.l_black) * values**display.gamma + display.l_black


# Parameters of the smooth luminance-sensitivity curve used as the default
# detection-threshold model: peak sensitivity, sensitivity-drop luminance,
# transition slope and low-luminance slope. The curve is an approximation;
# pass a tabulated threshold to build_pu_lut to use measured data instead.
_SENSITIVITY_PARAMS = (30.162, 4.0627, 1.6596, 0.2712)


def default_threshold(luminance) -> np.ndarray:
    """Detection threshold T(l) in cd/m^2 of a smooth parametric model, flat
    in the Weber region."""
    peak, drop, trans, low = _SENSITIVITY_PARAMS
    lum = np.asarray(luminance, dtype=float)
    sensitivity = peak * ((drop / lum) ** trans + 1.0) ** (-low)
    return lum / sensitivity


def tabulated_threshold(path) -> Callable[[np.ndarray], np.ndarray]:
    """Threshold interpolated from a CSV with header ``luminance,threshold``.

    Interpolation is linear in log-log space, clamped at the table ends.
    """
    lums, thrs = _read_csv(path, {"luminance": _cells(float, float),
                                  "threshold": _cells(float, float)})
    if lums.size < 2:
        raise ParseError(f"threshold table {path} needs at least two rows")
    order = np.argsort(lums)
    log_l = np.log(lums[order])
    log_t = np.log(thrs[order])
    if np.any(~np.isfinite(log_l)) or np.any(~np.isfinite(log_t)):
        raise ParseError(f"threshold table {path} must be positive and finite")

    def evaluate(luminance):
        return np.exp(np.interp(np.log(np.asarray(luminance, dtype=float)), log_l, log_t))

    return evaluate


@dataclass(frozen=True)
class PuLut:
    """Tabulated PU encoding: strictly increasing values over luminance
    knots, whose first and last span the range it encodes."""

    luminance_knots: np.ndarray
    pu_values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.luminance_knots, dtype=float)
        values = np.asarray(self.pu_values, dtype=float)
        if knots.shape != values.shape or knots.ndim != 1 or knots.size < 2:
            raise IntegrityError("LUT needs matching 1-D knot and value arrays")
        if np.any(np.diff(knots) <= 0.0):
            raise IntegrityError("LUT luminance knots must be strictly ascending")
        if np.any(np.diff(values) <= 0.0):
            raise IntegrityError("LUT values must be strictly increasing")
        object.__setattr__(self, "luminance_knots", knots)
        object.__setattr__(self, "pu_values", values)

    def to_csv(self, path) -> None:
        _write_csv(path, "luminance,pu", "{!r},{!r}\n",
                   self.luminance_knots.tolist(), self.pu_values.tolist())

    @classmethod
    def from_csv(cls, path) -> "PuLut":
        knots, values = _read_csv(path, {"luminance": _cells(float, float),
                                         "pu": _cells(float, float)})
        if knots.size < 2:
            raise ParseError(f"LUT {path} needs at least two rows")
        return cls(knots, values)


def build_pu_lut(
    threshold: Callable[[np.ndarray], np.ndarray] = default_threshold,
    l_min: float = DEFAULT_L_MIN,
    l_max: float = DEFAULT_L_MAX,
    n_knots: int = DEFAULT_KNOTS,
) -> PuLut:
    """Build the PU look-up table by integrating 1/T(l).

    Knots are log-spaced over [l_min, l_max], both ends and the two anchor
    luminances exact, the reciprocal threshold is accumulated with the
    trapezoid rule, and the result is affinely normalized so the anchors map
    to code values 0 and 255 exactly.
    """
    from scipy.integrate import cumulative_trapezoid

    if not (0.0 < l_min < PU_ANCHOR_LOW and PU_ANCHOR_HIGH < l_max):
        raise IntegrityError(
            f"luminance range must satisfy 0 < l_min < {PU_ANCHOR_LOW} and "
            f"{PU_ANCHOR_HIGH} < l_max, got [{l_min}, {l_max}]"
        )
    if n_knots < 64:
        raise IntegrityError(f"n_knots must be at least 64, got {n_knots}")

    knots = np.logspace(math.log10(l_min), math.log10(l_max), int(n_knots))
    knots[[0, -1]] = l_min, l_max
    knots = np.union1d(knots, np.array([PU_ANCHOR_LOW, PU_ANCHOR_HIGH]))
    thresholds = np.asarray(threshold(knots), dtype=float)
    if np.any(~np.isfinite(thresholds)) or np.any(thresholds <= 0.0):
        raise IntegrityError("detection threshold must be positive and finite on the range")
    raw = cumulative_trapezoid(1.0 / thresholds, knots, initial=0.0)

    low = raw[np.searchsorted(knots, PU_ANCHOR_LOW)]
    high = raw[np.searchsorted(knots, PU_ANCHOR_HIGH)]
    values = (raw - low) * ((PU_CODE_HIGH - PU_CODE_LOW) / (high - low)) + PU_CODE_LOW
    return PuLut(knots, values)


def pu_encode(values, lut: PuLut, strict: bool = False) -> np.ndarray:
    """Encode absolute luminance to PU units via the LUT.

    Monotone piecewise-linear interpolation; values outside the knots are
    clamped with a warning (error in strict mode).
    """
    knots = lut.luminance_knots
    arr = _in_range(values, knots[0], knots[-1], strict, "luminance outside the LUT range")
    return np.interp(arr, knots, lut.pu_values)


def log_encode(values, strict: bool = False) -> np.ndarray:
    """Logarithmic alternative to the PU encoding, same anchor convention.

    Provided for comparison experiments only; it tracks thresholds worse
    than the PU encoding. Values below the low anchor are clamped to it
    with a warning (error in strict mode); there is no upper bound.
    """
    log_low, log_high = math.log10(PU_ANCHOR_LOW), math.log10(PU_ANCHOR_HIGH)
    arr = _in_range(values, PU_ANCHOR_LOW, None, strict, f"luminance below {PU_ANCHOR_LOW} cd/m^2")
    scale = (PU_CODE_HIGH - PU_CODE_LOW) / (log_high - log_low)
    return (np.log10(arr) - log_low) * scale + PU_CODE_LOW
