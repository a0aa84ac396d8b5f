"""Maximum-likelihood two-mode state reconstruction from quadrature samples.

The likelihood of the recorded samples is maximised by the RρR fixed point
rho <- R rho R / Tr[R rho R], R = sum_i Pi_i / p_i (Lvovsky, J. Opt. B 6,
S556 (2004)), started from the maximally mixed state and accelerated with
Nesterov momentum (Shang, Zhang, Ng, PRA 95, 062336 (2017)): each iteration
extrapolates y = rho + beta (rho - rho_prev), maps y back onto the states
(trace one, Hermitian, negative eigenvalues clamped) and applies the RρR
update at y.  The momentum restarts, as in the gradient scheme of
O'Donoghue and Candès ("Adaptive restart for accelerated gradient schemes",
Found. Comput. Math. 15, 715 (2015)), whenever the RρR step from y points
against the last move, Re Tr[(rho_next - y)(rho_next - rho)] < 0.

The stopping statistic is the standard max-eigenvalue bound on the
remaining log-likelihood improvement, lambda_max(R) - N, evaluated at y;
the iteration stops below epsilon * N and returns the state it was
measured on.

Each record enters through its real pair coordinates alpha1, alpha2
(`homodyne_model.PairCoordinates`): p_i = alpha1_i^T K alpha2_i with K
real, and R comes back from the real G = sum_i alpha1_i alpha2_i^T / p_i.
The two N-record products per iteration are therefore real, not complex.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .fock_core import TwoModeState
from .homodyne_model import PairCoordinates

__all__ = [
    "TomographyDataset",
    "ReconstructionReport",
    "RegularizationError",
    "r_operator",
    "rrhor_step",
    "reconstruct",
    "rolling_variance",
]

PROBABILITY_FLOOR = 1e-12
MAX_FLOORED_FRACTION = 0.01


class RegularizationError(RuntimeError):
    """Too many records needed the probability floor to keep R finite."""


@dataclass
class TomographyDataset:
    """Homodyne records (x1, x2, theta1, theta2), one count each.

    Records are kept in canonical lexicographic order so that accumulation
    is bit-identical under any permutation of the input.
    """

    x1: np.ndarray
    x2: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    n_c: int

    def __post_init__(self):
        self.x1 = np.asarray(self.x1, dtype=float)
        self.x2 = np.asarray(self.x2, dtype=float)
        self.theta1 = np.asarray(self.theta1, dtype=float)
        self.theta2 = np.asarray(self.theta2, dtype=float)
        sizes = {a.size for a in (self.x1, self.x2, self.theta1, self.theta2)}
        if len(sizes) != 1:
            raise ValueError("record columns must have equal length")
        for name in ("x1", "x2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite quadrature values in {name}")
        for name in ("theta1", "theta2"):
            th = getattr(self, name)
            if np.any(th < 0) or np.any(th >= 2 * np.pi):
                raise ValueError(f"{name} must lie in [0, 2 pi)")
        order = np.lexsort((self.theta2, self.theta1, self.x2, self.x1))
        self.x1 = self.x1[order]
        self.x2 = self.x2[order]
        self.theta1 = self.theta1[order]
        self.theta2 = self.theta2[order]
        d2 = (self.n_c + 1) ** 4
        if self.size < d2:
            warnings.warn(
                f"dataset of {self.size} records is below D^2 = {d2}; "
                "the reconstruction will be strongly rank-deficient",
                stacklevel=2)

    @property
    def size(self) -> int:
        return self.x1.size

    def pair_coordinates(self, pairs: PairCoordinates):
        """(alpha1, alpha2): the records' pair coordinates, each (N, D)."""
        return (pairs.alpha(self.x1, self.theta1),
                pairs.alpha(self.x2, self.theta2))


@dataclass
class ReconstructionReport:
    rho: TwoModeState
    iterations: int
    final_bound: float
    converged: bool
    log_likelihood_trace: np.ndarray = field(repr=False)
    floored_records_total: int = 0
    psd_repairs: int = 0


def _likelihood_terms(pairs, alpha, rho_mat):
    """(R, p, floored_count): p_i = alpha1_i^T K alpha2_i floored, R =
    sum_i Pi_i / p_i; raises RegularizationError past 1% floored records.
    alpha is the (alpha1, alpha2) pair of the dataset's coordinates."""
    a1, a2 = alpha
    p = np.einsum("ij,ij->i", a1 @ pairs.density(rho_mat), a2)
    floored = int(np.count_nonzero(p < PROBABILITY_FLOOR))
    np.clip(p, PROBABILITY_FLOOR, None, out=p)
    if floored > MAX_FLOORED_FRACTION * p.size:
        raise RegularizationError(
            f"{floored} of {p.size} records hit the probability floor; "
            "the state model cannot explain the data")
    r = pairs.operator((a1.T * (1.0 / p)) @ a2)
    return 0.5 * (r + r.conj().T), p, floored


def _rrhor_update(r: np.ndarray, rho_mat: np.ndarray):
    """R rho R / Tr, Hermitised; negative eigenvalues beyond -1e-10 are
    clamped and the trace renormalised.  Returns (matrix, repair_count).
    With R = I this is the map of a trial matrix back onto the states."""
    nxt = r @ rho_mat @ r
    nxt /= np.trace(nxt).real
    nxt = 0.5 * (nxt + nxt.conj().T)
    w, u = np.linalg.eigh(nxt)
    if w[0] >= -1e-10:
        return nxt, 0
    w = np.clip(w, 0.0, None)
    fixed = (u * w) @ u.conj().T
    return fixed / np.trace(fixed).real, 1


def r_operator(rho: TwoModeState, data: TomographyDataset):
    """R = sum_i Pi_i / p_i as a Hermitian matrix.

    Returns (R, floored_count); raises RegularizationError when more than
    1% of records needed the floor.
    """
    if rho.n_c != data.n_c:
        raise ValueError("state and dataset cutoffs differ")
    pairs = PairCoordinates(data.n_c)
    r, _, floored = _likelihood_terms(pairs, data.pair_coordinates(pairs),
                                      rho.matrix)
    return r, floored


def rrhor_step(rho: TwoModeState, data: TomographyDataset):
    """One fixed-point update rho' = R rho R / Tr[R rho R].

    Returns (state, repair_count); repairs clamp negative eigenvalues that
    exceed the -1e-10 tolerance and renormalize.
    """
    r, _ = r_operator(rho, data)
    nxt, repairs = _rrhor_update(r, rho.matrix)
    return TwoModeState(rho.n_c, nxt), repairs


def reconstruct(data: TomographyDataset, max_iterations: int = 2000,
                epsilon: float = 1e-6) -> ReconstructionReport:
    """Accelerated RρR from the maximally mixed state until the stopping
    bound lambda_max(R) - N at the extrapolated state falls below
    epsilon * N, or the iteration cap (then the last updated state is
    returned).

    Non-convergence is reported, not raised.
    """
    if data.size == 0:
        raise ValueError("empty dataset")
    d = (data.n_c + 1) ** 2
    n = data.size
    pairs = PairCoordinates(data.n_c)
    alpha = data.pair_coordinates(pairs)
    eye = np.eye(d, dtype=complex)
    rho = prev = eye / d
    t = 1.0
    loglik = []
    floored_total = 0
    repairs = 0
    bound = np.inf
    it = 0
    for it in range(1, max_iterations + 1):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = rho     # beta = 0 on the first step and after a restart
        if t > 1.0:
            y, rep = _rrhor_update(eye, rho + (t - 1.0) / t_next * (rho - prev))
            repairs += rep
        r, p, floored = _likelihood_terms(pairs, alpha, y)
        floored_total += floored
        loglik.append(float(np.log(p).sum()))
        bound = float(np.linalg.eigvalsh(r)[-1] - n)
        if bound < epsilon * n:
            rho = y
            break
        nxt, rep = _rrhor_update(r, y)
        repairs += rep
        if np.vdot(nxt - y, nxt - rho).real < 0:
            t_next = 1.0    # the step from y opposes the momentum: restart
        prev, rho, t = rho, nxt, t_next
    converged = bound < epsilon * n
    if not converged:
        warnings.warn(
            f"stopping bound {bound:.3e} after {it} iterations "
            f"(threshold {epsilon * n:.3e})", stacklevel=2)
    return ReconstructionReport(
        rho=TwoModeState(data.n_c, rho),
        iterations=it,
        final_bound=bound,
        converged=converged,
        log_likelihood_trace=np.asarray(loglik),
        floored_records_total=floored_total,
        psd_repairs=repairs,
    )


def rolling_variance(data: TomographyDataset, window: int = 500):
    """Sliding-window variance of the combined quadrature (x1 + x2)
    / sqrt(2), whose variance tracks the two-mode squeezing, sorted by the
    joint phase (theta1 + theta2) mod 2 pi.

    Returns (phase_centers, variances), each of length N - window + 1.
    """
    n = data.size
    if window < 2:
        raise ValueError("window must be at least 2")
    if window > n:
        raise ValueError(f"window {window} exceeds dataset size {n}")
    key = (data.theta1 + data.theta2) % (2 * np.pi)
    order = np.argsort(key, kind="stable")
    q = ((data.x1 + data.x2) / np.sqrt(2.0))[order]
    key = key[order]
    c1 = np.cumsum(np.concatenate(([0.0], q)))
    c2 = np.cumsum(np.concatenate(([0.0], q * q)))
    s1 = c1[window:] - c1[:-window]
    s2 = c2[window:] - c2[:-window]
    var = (s2 - s1 * s1 / window) / (window - 1)
    centers = key[window // 2: window // 2 + var.size]
    return centers, var
