"""Stellar-rank landscape of the |1,1> fidelity closed forms: its maximum
over the effective squeezing, the smallest transmissivity that still
certifies a stellar rank, and the squeezing range above the witness
threshold.  Criterion 2 and the ng_metrics tests use them; the program
does not, so they and their scipy solvers live with the tests.
"""

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from photonsub import ng_metrics as ng


def max_fidelity_over_lambda(eta: float, n: int):
    """(max_lambda F_{n,n}(lambda, eta), argmax) by grid plus golden-section
    refinement."""
    grid = np.linspace(1e-4, 0.999, 2000)
    vals = ng.fock11_fidelity_closed(grid, eta, n)
    i = int(vals.argmax())
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(lambda l: -ng.fock11_fidelity_closed(l, eta, n),
                          bracket=(lo, grid[i], hi), method="golden",
                          options={"xtol": 1e-6})
    lam_star = float(res.x)
    return ng.fock11_fidelity_closed(lam_star, eta, n), lam_star


def minimal_transmissivity(n: int,
                           threshold: float = ng.WITNESS_THRESHOLD_RANK1,
                           step: float = 0.001) -> float:
    """Smallest eta (grid resolution `step`) whose best-case fidelity with
    |1,1> still exceeds the witness threshold."""
    lams = np.linspace(1e-4, 0.999, 1500)
    for eta in np.arange(0.5, 1.0 + step / 2, step):
        f = ng.fock11_fidelity_closed(lams, eta, n).max()
        if f > threshold:
            return float(round(eta, 6))
    raise ValueError("no transmissivity below 1 exceeds the threshold")


def witness_lambda_crossings(eta: float = 1.0, n: int = 1,
                             threshold: float = ng.WITNESS_THRESHOLD_RANK1):
    """Both lambda roots of F_{n,n}(lambda, eta) = threshold."""
    fmax, lam_star = max_fidelity_over_lambda(eta, n)
    if fmax <= threshold:
        raise ValueError("fidelity never exceeds the threshold at this eta")
    f = lambda l: ng.fock11_fidelity_closed(l, eta, n) - threshold
    lo = brentq(f, 1e-6, lam_star)
    hi = brentq(f, lam_star, 0.999999)
    return float(lo), float(hi)
