"""Polynomial fits between rating (MOS) and JOD scales.

Used to check whether the relationship between a dataset's original rating
scale and the unified quality scale needs anything beyond an affine map. A
sensible link must be monotone: better quality on one scale has to mean
better quality on the other, so a fit whose derivative changes sign over
the observed rating range is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .errors import DegenerateDataError, IntegrityError


@dataclass(frozen=True)
class PolyFit:
    """Least-squares polynomial MOS -> JOD with fit diagnostics.

    ``coeffs`` are in the raw rating domain, highest power first (numpy
    polynomial convention).
    """

    order: int
    coeffs: np.ndarray
    r2: float
    r2_adj: float
    monotone_on_range: bool

    def predict(self, mos) -> np.ndarray:
        return np.polyval(self.coeffs, np.asarray(mos, dtype=float))


def adjusted_r_squared(r2: float, n: int, p: int) -> float:
    """Adjusted coefficient of determination: 1 - (1-R^2)(n-1)/(n-p-1).

    p counts model parameters excluding the constant term.
    """
    if n <= p + 1:
        raise IntegrityError(f"adjusted R^2 needs n > p + 1, got n={n}, p={p}")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


def fit_polynomial_link(mos, jod, order: int) -> PolyFit:
    """Fit a polynomial of the given order mapping MOS to JOD.

    ``Polynomial.fit`` maps MOS onto [-1, 1] for conditioning; the reported
    coefficients are in the raw rating domain. Monotonicity is checked by the
    sign of the derivative over [min(mos), max(mos)].
    """
    mos = np.asarray(mos, dtype=float)
    jod = np.asarray(jod, dtype=float)
    if order not in (1, 2, 3):
        raise IntegrityError(f"order must be 1, 2 or 3, got {order}")
    if mos.shape != jod.shape or mos.ndim != 1:
        raise IntegrityError("mos and jod must be 1-D vectors of equal length")
    if mos.size < order + 2:
        raise IntegrityError(f"need at least {order + 2} points for order {order}")
    if not (np.all(np.isfinite(mos)) and np.all(np.isfinite(jod))):
        raise IntegrityError("inputs must be finite")
    if float(mos.std()) == 0.0:
        raise DegenerateDataError("all MOS values are equal; the fit is rank deficient")

    poly = Polynomial.fit(mos, jod, order)
    predicted = poly(mos)

    ss_res = float(np.sum((jod - predicted) ** 2))
    ss_tot = float(np.sum((jod - jod.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r2_adj = adjusted_r_squared(r2, mos.size, order)

    # convert() drops vanishing leading terms; pad back to order + 1 entries
    raw = poly.convert().coef[::-1]
    coeffs = np.concatenate([np.zeros(order + 1 - raw.size), raw])

    slope = poly.deriv()
    grid = np.linspace(mos.min(), mos.max(), 2049)
    roots = slope.roots()
    real_roots = roots[np.isreal(roots)].real
    inside = real_roots[(real_roots >= mos.min()) & (real_roots <= mos.max())]
    samples = slope(np.concatenate([grid, inside]))
    tiny = 1e-12 * max(1.0, float(np.max(np.abs(samples))))
    all_zero = bool(np.all(np.abs(samples) <= tiny))
    monotone = (not all_zero) and (
        bool(np.all(samples >= -tiny)) or bool(np.all(samples <= tiny))
    )

    return PolyFit(order=order, coeffs=coeffs, r2=r2, r2_adj=r2_adj, monotone_on_range=monotone)


def fit_report(mos, jod) -> list[PolyFit]:
    """Fit polynomial orders 1, 2 and 3 for one dataset."""
    return [fit_polynomial_link(mos, jod, order) for order in (1, 2, 3)]
