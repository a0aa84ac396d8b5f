"""Entanglement and quantum non-Gaussianity figures of merit.

Uhlmann fidelity, partial transpose and logarithmic negativity, and the
stellar-rank witness based on the fidelity with the two-photon Fock state
|1,1>, including its closed forms under symmetric loss.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import log2, sqrt

import numpy as np

from .fock_core import TwoModeState

__all__ = [
    "StellarRankClass",
    "WitnessResult",
    "uhlmann_fidelity",
    "partial_transpose",
    "log_negativity",
    "fock11_fidelity_closed",
    "witness",
    "contour_table",
    "WITNESS_THRESHOLD_RANK1",
    "WITNESS_THRESHOLD_RANK2",
]

# fidelity with |1,1> above these values certifies stellar rank 1+ / 2+
WITNESS_THRESHOLD_RANK1 = 0.25
WITNESS_THRESHOLD_RANK2 = 0.532

# eigenvalues of reconstructed states carry numerical noise; negatives
# smaller than this are clamped before log/sqrt
_EIG_CLAMP = 1e-12
_PSD_DOMAIN_TOL = 1e-8


class StellarRankClass(enum.Enum):
    RANK0_PLUS = "rank0plus"
    RANK1_PLUS = "rank1plus"
    RANK2_PLUS = "rank2plus"


@dataclass(frozen=True)
class WitnessResult:
    fidelity_11: float
    rank_class: StellarRankClass


def _psd_sqrt(matrix: np.ndarray, what: str) -> np.ndarray:
    w, v = np.linalg.eigh(matrix)
    if w[0] < -_PSD_DOMAIN_TOL:
        raise ValueError(f"{what} is not positive semidefinite "
                         f"(min eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def uhlmann_fidelity(a: TwoModeState, b: TwoModeState) -> float:
    """F(a, b) = (Tr sqrt(sqrt(a) b sqrt(a)))^2, symmetric in its arguments;
    reduces to <psi|a|psi> for pure b.

    Evaluated as the squared nuclear norm of sqrt(a) sqrt(b), which is the
    same quantity but keeps eigenvalue noise quadratic instead of entering
    through sqrt.
    """
    if a.n_c != b.n_c:
        raise ValueError("states must share the same photon cutoff")
    sq_a = _psd_sqrt(a.matrix, "first state")
    sq_b = _psd_sqrt(b.matrix, "second state")
    s = np.linalg.svd(sq_a @ sq_b, compute_uv=False)
    f = float(s.sum() ** 2)
    return min(f, 1.0)


def partial_transpose(state: TwoModeState, mode: int = 2) -> np.ndarray:
    """Partial transpose of the density matrix on one mode (default 2)."""
    d = state.n_c + 1
    r4 = state.matrix.reshape(d, d, d, d)  # (n, m), (n', m')
    if mode == 2:
        pt = r4.transpose(0, 3, 2, 1)
    elif mode == 1:
        pt = r4.transpose(2, 1, 0, 3)
    else:
        raise ValueError("mode must be 1 or 2")
    return pt.reshape(d * d, d * d)


def log_negativity(state: TwoModeState, mode: int = 2) -> float:
    """E_N = log2 of the trace norm of the partial transpose, >= 0.

    Eigenvalues in (-1e-12, 0) are treated as exact zeros; they are
    reconstruction noise and would otherwise leak into the trace norm.
    """
    w = np.linalg.eigvalsh(partial_transpose(state, mode))
    w = np.where((w < 0) & (w > -_EIG_CLAMP), 0.0, w)
    return max(0.0, log2(np.abs(w).sum()))


def fock11_fidelity_closed(lam, eta: float, n: int):
    """<1,1| rho |1,1> for the symmetric (n,n)-subtracted state with equal
    transmissivity eta on both modes, n in {0, 1, 2}.

    Accepts a scalar or array of effective squeezings.
    """
    lam = np.asarray(lam) if not np.isscalar(lam) else lam
    if np.any(np.asarray(lam) < 0.0) or np.any(np.asarray(lam) >= 1.0):
        raise ValueError(f"effective squeezing must lie in [0, 1), got {lam}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    l2 = lam * lam
    v2 = (1.0 - eta) ** 2
    g = l2 * v2
    if n == 0:
        return eta ** 2 * l2 * (1 - l2) * (1 + g) / (1 - g) ** 3
    if n == 1:
        return (4 * eta ** 2 * l2 * (1 - l2) ** 3 * (1 + 4 * g + g ** 2)
                / ((1 - g) ** 5 * (1 + l2)))
    if n == 2:
        return (9 * eta ** 2 * l2 * (1 - l2) ** 5
                * (1 + 9 * g + 9 * g ** 2 + g ** 3)
                / ((1 - g) ** 7 * (1 + 4 * l2 + l2 ** 2)))
    raise ValueError(f"closed forms available for n in {{0, 1, 2}}, got {n}")


def witness(state: TwoModeState) -> WitnessResult:
    """Classify the state's stellar rank from its |1,1> population."""
    f = state.population(1, 1)
    if f <= WITNESS_THRESHOLD_RANK1:
        cls = StellarRankClass.RANK0_PLUS
    elif f < WITNESS_THRESHOLD_RANK2:
        cls = StellarRankClass.RANK1_PLUS
    else:
        cls = StellarRankClass.RANK2_PLUS
    return WitnessResult(fidelity_11=f, rank_class=cls)


def contour_table(step: float) -> str:
    """Plot-ready text table of F_{n,n}(lambda, eta) triplets for n = 0, 1,
    2, with lambda and eta on one grid of spacing `step`.

    Columns: n, lambda, eta, fidelity; one row per grid point, blocks
    separated by blank lines per n.
    """
    lines = ["# n lambda eta fidelity_with_fock11"]
    lams = np.arange(0.0, 0.98 + step / 2, step)
    lams = lams[lams < 1.0]
    etas = np.arange(0.0, 1.0 + step / 2, step)
    etas = np.clip(etas, 0.0, 1.0)
    for n in (0, 1, 2):
        for lam in lams:
            for eta in etas:
                f = fock11_fidelity_closed(float(lam), float(eta), n)
                lines.append(f"{n} {lam:.4f} {eta:.4f} {f:.8f}")
        lines.append("")
    return "\n".join(lines)
