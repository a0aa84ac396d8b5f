"""Homodyne measurement model in the truncated Fock basis.

Quadrature convention: x_theta = (a e^{-i theta} + a+ e^{i theta})/sqrt(2),
hbar = 1, vacuum variance 1/2.  Provides the oscillator wavefunctions via
the stable normalized recurrence, the real pair coordinates in which the
joint two-mode quadrature density is one real bilinear form (shared by
the sampler and the tomography), a grid-based inverse-CDF sampler, and
the sawtooth phase-drive model used by the acquisition plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock_core import TwoModeState
from .hds.buffer import SAMPLE_RATE_HZ
from .hds.words import ADC_MAX as ADC_CODE_MAX, ADC_MIN as ADC_CODE_MIN
from .parallel import task_map

__all__ = [
    "PhaseDrive",
    "GridMassError",
    "PairCoordinates",
    "hermite_functions",
    "QuadratureSampler",
    "ADC_CODE_MIN",
    "ADC_CODE_MAX",
]

_ADC_CODES = ADC_CODE_MAX - ADC_CODE_MIN + 1
# sampler grid ends and cell width, and the mass it may miss
GRID_MIN, GRID_MAX, GRID_STEP, GRID_MASS_TOL = -6.0, 6.0, 0.02, 1e-4
RESET_FRACTION = 0.001      # flyback share of each phase-drive period
# sample_batch: DRAW_BLOCK fixes the order the uniforms are read in, so
# changing it changes the draws; COMPUTE_BLOCK draws per task, any value
# gives the same draws
DRAW_BLOCK = 2048
COMPUTE_BLOCK = 1024


class GridMassError(ValueError):
    """The sampling grid misses too much of the state's probability mass."""


def hermite_functions(n_max: int, x) -> np.ndarray:
    """Normalized oscillator wavefunctions psi_0..psi_n_max at points x.

    Three-term recurrence on the normalized functions themselves, which
    stays overflow-free far beyond n=60 at |x| <= 10 (unlike raw Hermite
    polynomials).  Returns shape (n_max+1,) + x.shape.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = (np.sqrt(2.0 / (n + 1)) * x * out[n]
                      - np.sqrt(n / (n + 1.0)) * out[n - 1])
    return out


class PairCoordinates:
    """The two-mode homodyne density as one real bilinear form.

    One mode at (x, theta) has the real d^2-vector alpha = [psi_n^2 ;
    psi_n psi_n' cos((n-n') theta) ; psi_n psi_n' sin((n-n') theta)]
    (n < n' in the last two blocks), and a fixed complex T maps it to the
    pair products A[n, n'] = psi_n psi_n' e^{i(n-n') theta}.  With M the
    state in (n, n'), (m, m') order, p = A1^T M A2 = alpha1^T K alpha2 for
    the real K = Re(T^T M T), and sum_i Pi_i / p_i is conj(T G T^T) for the
    real G = sum_i alpha1_i alpha2_i^T / p_i.  `expand` puts the phases on
    the phase-free gamma = [psi_n^2 ; psi_n psi_n']; `fold` is its
    transpose.
    """

    def __init__(self, n_c: int):
        d = self.d = n_c + 1
        self._n, self._m = np.triu_indices(d, 1)
        cols = d + np.arange(self._n.size)
        t = self._t = np.zeros((d * d, d * d), dtype=complex)
        t[np.arange(d) * (d + 1), np.arange(d)] = 1.0
        for rows, sign in ((self._n * d + self._m, 1j),
                           (self._m * d + self._n, -1j)):
            t[rows, cols], t[rows, cols + cols.size] = 1.0, sign

    def phases(self, theta):
        """(cos, sin) of (n - n') theta per pair, shape theta.shape + (h,);
        evaluated once per difference n - n' = -1 .. -(d - 1)."""
        arg = np.multiply.outer(theta, -np.arange(1, self.d))
        k = self._m - self._n - 1
        return np.cos(arg)[..., k], np.sin(arg)[..., k]

    def products(self, x) -> np.ndarray:
        """gamma at points x, shape x.shape + (d + h,)."""
        psi = hermite_functions(self.d - 1, x)
        return np.moveaxis(
            np.concatenate((psi * psi, psi[self._n] * psi[self._m])), 0, -1)

    def expand(self, gamma, phases) -> np.ndarray:
        """alpha rows from gamma rows (broadcast) at the given phases."""
        c, s = phases
        gamma = np.broadcast_to(gamma, c.shape[:-1] + gamma.shape[-1:])
        off = gamma[..., self.d:]
        return np.concatenate((gamma[..., :self.d], off * c, off * s), axis=-1)

    def fold(self, u, phases) -> np.ndarray:
        """Transpose of expand: [u_d ; cos * u_c + sin * u_s] per row."""
        c, s = phases
        h = c.shape[-1]
        return np.concatenate(
            (u[..., :self.d],
             c * u[..., self.d:self.d + h] + s * u[..., self.d + h:]), axis=-1)

    def alpha(self, x, theta) -> np.ndarray:
        """alpha at points x and phases theta of equal shapes."""
        return self.expand(self.products(x), self.phases(theta))

    def _reorder(self, mat):
        """(n, m), (n', m') <-> (n, n'), (m, m'); its own inverse."""
        d = self.d
        return mat.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, -1)

    def density(self, rho_matrix) -> np.ndarray:
        """K with p(x1, x2) = alpha1^T K alpha2 for the state matrix."""
        return np.ascontiguousarray(
            (self._t.T @ self._reorder(rho_matrix) @ self._t).real)

    def operator(self, g) -> np.ndarray:
        """The two-mode operator whose pair form is conj(T g T^T)."""
        return self._reorder((self._t @ g @ self._t.T).conj())


# ---------------------------------------------------------------------------
# Grid sampler
# ---------------------------------------------------------------------------

class QuadratureSampler:
    """Inverse-CDF sampler for joint homodyne outcomes of a two-mode state.

    Cell probabilities come from the joint density on the square grid
    [GRID_MIN, GRID_MAX] with step GRID_STEP; a draw picks the x1 cell from the
    grid marginal, the x2 cell from that row, and jitters uniformly within
    the cell.  In pair coordinates the x1 mass up to cell k is
    C_k . fold_theta1(K s(theta2)), with C the prefix sums of the grid's
    gamma rows and s = expand(C_last); given cell i1, the x2 row is
    C_k . fold_theta2(K^T alpha(x_i1, theta1)).  Both cells are found by
    bisection over C, so a draw costs two d^2 products and no per-cell
    work.
    """

    def __init__(self, state: TwoModeState):
        self.state = state
        self.grid = np.arange(GRID_MIN, GRID_MAX + GRID_STEP / 2, GRID_STEP)
        self._pairs = PairCoordinates(state.n_c)
        self._gamma = self._pairs.products(self.grid)
        self._cum = np.cumsum(self._gamma, axis=0)
        self._k = self._pairs.density(state.matrix)
        self._check_mass()

    def _check_mass(self):
        th1, th2 = th = np.array([[0.0, np.pi / 3, 1.9], [0.0, 1.1, 0.4]])
        s1, s2 = self._pairs.expand(self._cum[-1], self._pairs.phases(th))
        totals = np.einsum("ij,ij->i", s1 @ self._k, s2) * GRID_STEP ** 2
        for a, b, total in zip(th1, th2, totals):
            if total < 1.0 - GRID_MASS_TOL:
                raise GridMassError(
                    f"grid [{GRID_MIN}, {GRID_MAX}] holds {total:.6f} of "
                    f"unit mass at phases ({a:.2f}, {b:.2f})")

    def sample_batch(self, theta1, theta2, rng: np.random.Generator):
        """Vectorized draws, one per phase pair; deterministic given the
        generator state.  The uniforms come first, laid out in DRAW_BLOCK
        blocks; the grid work then runs as COMPUTE_BLOCK tasks."""
        theta1 = np.asarray(theta1, dtype=float)
        theta2 = np.asarray(theta2, dtype=float)
        if theta1.shape != theta2.shape:
            raise ValueError("phase arrays must have matching shapes")
        n = theta1.size
        # block [lo, hi) holds its (u1, u2, jitter1, jitter2) rows in turn
        u = rng.random(4 * n)
        uniforms = np.empty((4, n))
        for lo in range(0, n, DRAW_BLOCK):
            hi = min(lo + DRAW_BLOCK, n)
            uniforms[:, lo:hi] = u[4 * lo:4 * hi].reshape(4, hi - lo)
        x1 = np.empty(n)
        x2 = np.empty(n)
        pc = self._pairs

        def draw(lo):
            hi = min(lo + COMPUTE_BLOCK, n)
            u1, u2, j1, j2 = uniforms[:, lo:hi]
            ph1, ph2 = pc.phases(theta1[lo:hi]), pc.phases(theta2[lo:hi])
            s2 = pc.expand(self._cum[-1], ph2)
            i1 = self._cell(pc.fold(s2 @ self._k.T, ph1), u1)
            a1 = pc.expand(self._gamma[i1], ph1)
            i2 = self._cell(pc.fold(a1 @ self._k, ph2), u2)
            x1[lo:hi] = self.grid[i1] + (j1 - 0.5) * GRID_STEP
            x2[lo:hi] = self.grid[i2] + (j2 - 0.5) * GRID_STEP

        task_map(draw, range(0, n, COMPUTE_BLOCK))
        return x1, x2

    def _cell(self, w, u):
        """Per row, the number of leading cells whose cumulative mass
        C_k . w stays below u times the total, capped at the last cell:
        a bisection over the nondecreasing prefix sums."""
        size = self.grid.size
        target = u * (w @ self._cum[-1])
        i = np.zeros(u.size, dtype=np.intp)
        step = 1 << (size.bit_length() - 1)
        while step:
            j = np.minimum(i + step, size)
            below = np.einsum("ij,ij->i", self._cum.take(j - 1, axis=0),
                              w) < target
            i = np.where(below, j, i)
            step >>= 1
        return np.minimum(i, size - 1)


# ---------------------------------------------------------------------------
# Sawtooth phase drive
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseDrive:
    """Sawtooth LO phase ramp spanning 2 pi, with a short linear flyback.

    The drive is sampled on the HDS timetag clock (SAMPLE_RATE_HZ) and
    mirrored on a 14-bit ADC channel: the code sweeps the full range over
    the ramp, from phase 0 at code ADC_CODE_MIN, and retraces during the
    flyback, RESET_FRACTION of each period, at roughly -(1/RESET_FRACTION)
    times the ramp slope.
    """

    ramp_frequency_hz: float

    def __post_init__(self):
        if self.ramp_frequency_hz <= 0:
            raise ValueError("ramp frequency must be positive")

    @property
    def period_samples(self) -> int:
        return int(round(SAMPLE_RATE_HZ / self.ramp_frequency_hz))

    @property
    def ramp_samples(self) -> int:
        return self.period_samples - self.flyback_samples

    @property
    def flyback_samples(self) -> int:
        return max(1, int(round(self.period_samples * RESET_FRACTION)))

    @cached_property
    def period_table(self):
        """(theta, adc_code) at each sample u of one drive period."""
        u = np.arange(self.period_samples, dtype=np.int64)
        L = self.ramp_samples
        in_ramp = u < L
        frac_up = u / L
        theta = (2 * np.pi * frac_up) % (2 * np.pi)
        # 16384 code steps over the ramp so no code aliases across the wrap
        code_up = np.floor(ADC_CODE_MIN + _ADC_CODES * frac_up)
        v = u - L + 1
        code_down = ADC_CODE_MAX - np.floor(
            _ADC_CODES * v / self.flyback_samples)
        code = np.where(in_ramp, code_up, code_down).astype(np.int64)
        np.clip(code, ADC_CODE_MIN, ADC_CODE_MAX, out=code)
        return np.where(in_ramp, theta, 0.0), code

    def evaluate(self, timetags):
        """(theta, adc_code, in_ramp) arrays for integer timetags."""
        u = np.asarray(timetags, dtype=np.int64) % self.period_samples
        theta, code = self.period_table
        return theta[u], code[u], u < self.ramp_samples

    def theta_from_code(self, code):
        """Inverse of the ramp mapping: code -> theta in [0, 2 pi)."""
        code = np.asarray(code, dtype=float)
        return ((code - ADC_CODE_MIN) / _ADC_CODES * 2 * np.pi) % (2 * np.pi)

