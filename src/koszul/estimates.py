"""Auxiliary constants and the iterated-logarithm gauge function.

K is the closed-form constant 1 + 4*sqrt(e) + 8*sqrt(2)*e + 72*e^(3/2),
strictly between 361 and 362.  The gauge alpha(t) is the triple-log
expression normalized so that alpha(1) = 1 and alpha(0) = 0; it needs a
base constant c > e^e so every log in sight stays positive on (0, 1].
The gauge hypothesis on a single-row F is checked on a grid as one
:class:`koszul.poly.MarginReport`, at the default base c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .poly import DiscGrid, MarginReport

E_TO_E = math.e ** math.e

ALPHA_MARGIN_FLOOR = -1e-12  # the gauge check passes if its smallest margin is at least this


def K_constant() -> float:
    """1 + 4*sqrt(e) + 8*sqrt(2)*e + 72*e^(3/2) in double precision."""
    e = math.e
    return 1.0 + 4.0 * math.sqrt(e) + 8.0 * math.sqrt(2.0) * e + 72.0 * e ** 1.5


def _alpha_unnormalized(t: float, c: float) -> float:
    # log(c / t) would overflow for t below about 1e-307; the difference does not
    l1 = math.log(c) - math.log(t)
    l2 = math.log(l1)
    l3 = math.log(l2)
    return l1 ** -1.5 * l2 ** -1.5 / l3


@dataclass(frozen=True)
class AlphaParams:
    """Gauge parameters: a finite base c > e^e is the only field.

    The normalizer A0 is derived from c at construction, so that alpha(1) = 1
    always holds.
    """

    c: float = 16.0

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > E_TO_E):
            raise ValueError(f"need a finite c > e^e = {E_TO_E:.6f}, got {self.c}")
        object.__setattr__(self, "A0", 1.0 / _alpha_unnormalized(1.0, self.c))


def alpha(t: float, params: AlphaParams | None = None) -> float:
    """The normalized triple-log gauge; exactly 0 at t = 0."""
    params = params or AlphaParams()
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if t == 0:
        return 0.0
    return params.A0 * _alpha_unnormalized(t, params.c)


def alpha_hypothesis_check(F_vals: np.ndarray, h_vals: np.ndarray,
                           grid: DiscGrid) -> MarginReport:
    """Pointwise margins of t * alpha(t) - |h(z)| with t = F(z) F(z)^*, at the default c.

    ``F_vals`` and ``h_vals`` are a row F and a scalar h on ``grid``, as the
    (P, 1, d) and (P, 1, 1) stacks that ``check_hypotheses`` keeps; other
    shapes raise ValueError.  F must be normalized: t above 1 + 1e-9
    or NaN anywhere raises PreconditionError.
    """
    params = AlphaParams()
    P = len(grid)
    if F_vals.ndim != 3 or F_vals.shape[:2] != (P, 1) or h_vals.shape != (P, 1, 1):
        raise ValueError(f"scalar-row check needs ({P}, 1, d) and ({P}, 1, 1) stacks of F "
                         f"and h, got {F_vals.shape} and {h_vals.shape}")

    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN t is not normalized
        gram = (F_vals @ F_vals.conj().swapaxes(1, 2))[:, 0, 0].real.tolist()
        # rounds as Python's abs (np.abs may not), but overflows to inf, not an error
        moduli = np.hypot(h_vals.real, h_vals.imag)[:, 0, 0].tolist()
    margins = []
    for z, t, modulus in zip(grid.points, gram, moduli):
        if not t <= 1 + 1e-9:
            raise PreconditionError(f"F is not normalized: F(z)F(z)* = {t} at z = {z}")
        t = min(max(t, 0.0), 1.0)
        margins.append(t * alpha(t, params) - modulus)
    return MarginReport.on(grid, margins, ALPHA_MARGIN_FLOOR)
