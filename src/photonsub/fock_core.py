"""Truncated-Fock-basis construction of photon-subtracted two-mode squeezed vacuum.

Builds the (lossy) conditional states produced when n and m photons are
tapped off the two modes of a squeezed-vacuum ladder state by weak
beamsplitters, together with the closed-form coefficients, normalizations
and heralding probabilities.  The lossless state is the lossy builder at
unit transmissivities.  Every closed form is checked against the
test suite's brute-force beamsplitter-circuit and Kraus oracles
(`tests/oracles.py`).

Conventions: squeezing phase fixed to zero, so every coefficient is real;
two-mode basis index order is ``n * (n_c + 1) + m`` with n the photon
number of mode 1.
"""

from __future__ import annotations

import io
import struct
import warnings
from dataclasses import dataclass
from math import comb, sqrt, tanh

import numpy as np

__all__ = [
    "SubtractionModel",
    "TwoModeState",
    "TruncationWarning",
    "ZeroProbabilityError",
    "DivergenceError",
    "subtraction_coefficient",
    "normalization_sq",
    "success_probability",
    "pure_subtracted_state",
    "lossy_subtracted_state",
    "MAX_CUTOFF",
]

# Relative tail threshold for the ladder series; the states of interest
# decay geometrically so this converges in a few dozen terms.
_SERIES_RTOL = 1e-14
_SERIES_KMAX_MARGIN = 80

_DUMP_MAGIC = b"TMST\x01"
_DUMP_HEADER = 5 + 12
# largest Fock cutoff of a configured run or a loaded state: reconstruction
# holds (n_c + 1)^2 complex amplitudes per record, 7 kB at 20
MAX_CUTOFF = 20

_HERM_TOL, _TRACE_TOL, _PSD_TOL = 1e-12, 1e-10, 1e-10    # validate()


class TruncationWarning(UserWarning):
    """More than the allowed state weight fell outside the photon cutoff."""


class ZeroProbabilityError(ValueError):
    """The requested subtraction signature has zero heralding probability."""


class DivergenceError(ValueError):
    """Effective squeezing at or above 1: the ladder series diverges."""


@dataclass(frozen=True)
class SubtractionModel:
    """Physical parameters of the two-mode photon-subtraction source.

    r is the squeezing parameter, R1/R2 the tap beamsplitter reflectivities,
    eta1/eta2 the downstream channel transmissivities, and (n_sub, m_sub)
    the heralded number of photons removed from each mode.
    """

    r: float
    R1: float
    R2: float
    eta1: float = 1.0
    eta2: float = 1.0
    n_sub: int = 0
    m_sub: int = 0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"squeezing parameter must be >= 0, got {self.r}")
        for name in ("R1", "R2", "eta1", "eta2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.n_sub < 0 or self.m_sub < 0:
            raise ValueError("subtracted photon counts must be non-negative")

    @property
    def t_r(self) -> float:
        return tanh(self.r)

    @property
    def effective_squeezing(self) -> float:
        """lambda = tanh(r) * sqrt((1-R1)(1-R2)), the post-tap ladder ratio."""
        return self.t_r * sqrt((1.0 - self.R1) * (1.0 - self.R2))


class TwoModeState:
    """Density matrix on the two-mode Fock space truncated at n_c per mode.

    The matrix is indexed row-major with basis order |n, m> -> n*(n_c+1)+m.
    ``truncation_weight`` records the state weight discarded when the state
    was projected into the cutoff (zero for states born inside it).
    """

    def __init__(self, n_c: int, matrix: np.ndarray, truncation_weight: float = 0.0):
        d = (n_c + 1) ** 2
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (d, d):
            raise ValueError(f"matrix shape {matrix.shape} does not match cutoff {n_c}")
        self.n_c = int(n_c)
        self.matrix = matrix
        self.truncation_weight = float(truncation_weight)

    # -- constructors ---------------------------------------------------
    @classmethod
    def vacuum(cls, n_c: int) -> "TwoModeState":
        d = (n_c + 1) ** 2
        m = np.zeros((d, d), dtype=complex)
        m[0, 0] = 1.0
        return cls(n_c, m)

    # -- basic access ---------------------------------------------------
    @property
    def dim(self) -> int:
        return (self.n_c + 1) ** 2

    def index(self, n: int, m: int) -> int:
        return n * (self.n_c + 1) + m

    def population(self, n: int, m: int) -> float:
        return self.matrix[self.index(n, m), self.index(n, m)].real

    def trace(self) -> float:
        return self.matrix.trace().real

    def hermiticity_residual(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])

    def validate(self):
        """Raise if the state violates its Hermiticity/trace/PSD contract."""
        h = self.hermiticity_residual()
        if h >= _HERM_TOL:
            raise ValueError(f"hermiticity residual {h:.3e} >= {_HERM_TOL}")
        t = abs(self.trace() - 1.0)
        if t >= _TRACE_TOL:
            raise ValueError(f"|trace - 1| = {t:.3e} >= {_TRACE_TOL}")
        ev = self.min_eigenvalue()
        if ev <= -_PSD_TOL:
            raise ValueError(f"min eigenvalue {ev:.3e} <= -{_PSD_TOL}")
        return self

    # -- serialization ----------------------------------------------------
    # Dump layout: 5-byte magic, uint32 n_c, float64 truncation weight,
    # then dim*dim complex128 little-endian, row-major in the index order
    # n*(n_c+1)+m.
    def dump(self) -> bytes:
        buf = io.BytesIO()
        buf.write(_DUMP_MAGIC)
        buf.write(struct.pack("<Id", self.n_c, self.truncation_weight))
        buf.write(np.ascontiguousarray(self.matrix, dtype="<c16").tobytes())
        return buf.getvalue()

    @classmethod
    def from_dump(cls, raw: bytes) -> "TwoModeState":
        """Inverse of dump; ValueError for a wrong magic or length, a
        cutoff above MAX_CUTOFF, a non-finite or oversized entry or a
        matrix that fails validate()."""
        if raw[:5] != _DUMP_MAGIC or len(raw) < _DUMP_HEADER:
            raise ValueError("not a two-mode state dump")
        n_c, w = struct.unpack_from("<Id", raw, 5)
        if n_c > MAX_CUTOFF:
            raise ValueError(f"cutoff {n_c} above {MAX_CUTOFF}")
        d = (n_c + 1) ** 2
        if len(raw) != _DUMP_HEADER + 16 * d * d:
            raise ValueError(f"{len(raw)} bytes; a cutoff-{n_c} dump has "
                             f"{_DUMP_HEADER + 16 * d * d}")
        mat = np.frombuffer(raw, dtype="<c16", offset=_DUMP_HEADER)
        # state entries are at most 1; 2 keeps validate()'s arithmetic finite
        if not (np.isfinite(w) and (np.abs(mat) <= 2).all()):
            raise ValueError("non-finite or oversized entries")
        return cls(n_c, mat.reshape(d, d).astype(complex), w).validate()

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.dump())

    @classmethod
    def load(cls, path) -> "TwoModeState":
        # one byte past the largest valid dump: a longer file fails the
        # length check without being read whole
        with open(path, "rb") as fh:
            return cls.from_dump(
                fh.read(_DUMP_HEADER + 16 * (MAX_CUTOFF + 1) ** 4 + 1))


def _binomial_amplitude(k: int, n: int, R: float) -> float:
    """sqrt(C(k,n) (1-R)^(k-n) R^n): beamsplitter amplitude for keeping
    k-n of k photons against reflectivity R."""
    if n < 0 or n > k:
        return 0.0
    return sqrt(comb(k, n) * (1.0 - R) ** (k - n) * R ** n)


def subtraction_coefficient(k: int, model: SubtractionModel) -> float:
    """Ladder coefficient c_k = (-tanh r)^k B_{k,n}(R1) B_{k,m}(R2).

    Zero for k below max(n_sub, m_sub); keeps the alternating sign so the
    value can be compared against circuit-oracle amplitudes.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k < max(model.n_sub, model.m_sub):
        return 0.0
    return ((-model.t_r) ** k
            * _binomial_amplitude(k, model.n_sub, model.R1)
            * _binomial_amplitude(k, model.m_sub, model.R2))


def _series_norm_sq(model: SubtractionModel) -> float:
    """Direct ladder sum of c_k^2 with a geometric tail bound."""
    n, m = model.n_sub, model.m_sub
    lam2 = model.effective_squeezing ** 2
    total = 0.0
    k = max(n, m)
    for _ in range(_SERIES_KMAX_MARGIN + 1):
        term = subtraction_coefficient(k, model) ** 2
        total += term
        # ratio of consecutive terms approaches lam2 from above
        nxt = lam2 * (k + 1) ** 2 / ((k + 1 - n) * (k + 1 - m))
        if nxt < 1.0 and term * nxt / (1.0 - nxt) < _SERIES_RTOL * max(total, 1e-300):
            break
        k += 1
    return total


def normalization_sq(model: SubtractionModel) -> float:
    """Squared norm C^2 of the unnormalized subtracted ladder state.

    Uses the closed forms for the (0,0) and (1,1) signatures at equal tap
    reflectivities; everything else falls back to the direct series.
    """
    if model.effective_squeezing >= 1.0:
        raise DivergenceError("effective squeezing >= 1, series diverges")
    n, m = model.n_sub, model.m_sub
    if model.R1 == model.R2:
        RS, tr2 = model.R1, model.t_r ** 2
        g = tr2 * (1.0 - RS) ** 2
        if (n, m) == (0, 0):
            return 1.0 / (1.0 - g)
        if (n, m) == (1, 1):
            return tr2 * RS ** 2 * (1.0 + g) / (1.0 - g) ** 3
    return _series_norm_sq(model)


def success_probability(model: SubtractionModel) -> float:
    """Heralding probability p = (1 - tanh^2 r) * C^2 of the signature."""
    return (1.0 - model.t_r ** 2) * normalization_sq(model)


def _ladder_k_range(model: SubtractionModel, n_c: int):
    """k indices whose ladder terms matter for a cutoff-n_c state.

    Runs until the ladder has moved past the cutoff by a safety margin and
    the squared coefficient is negligible against the accumulated norm.
    """
    n, m = model.n_sub, model.m_sub
    ks = []
    acc = 0.0
    k = max(n, m)
    for _ in range(_SERIES_KMAX_MARGIN + 1):
        c2 = subtraction_coefficient(k, model) ** 2
        acc += c2
        ks.append(k)
        if (k - max(n, m)) > n_c + 4 and (acc == 0.0 or c2 < _SERIES_RTOL * acc):
            break
        k += 1
    return ks


def _warn_truncation(discarded: float, n_c: int):
    if discarded > 1e-3:
        warnings.warn(
            f"cutoff n_c={n_c} discards state weight {discarded:.3e}",
            TruncationWarning, stacklevel=3)


def pure_subtracted_state(model: SubtractionModel, n_c: int) -> TwoModeState:
    """Lossless subtracted state at cutoff n_c: the lossy builder at unit
    transmissivities, which it requires."""
    if model.eta1 != 1.0 or model.eta2 != 1.0:
        raise ValueError("pure state requires eta1 = eta2 = 1 (use the lossy builder)")
    return lossy_subtracted_state(model, n_c)


def lossy_subtracted_state(model: SubtractionModel, n_c: int) -> TwoModeState:
    """Subtracted state after per-mode loss channels, truncated at n_c.

    Evaluates the double ladder sum with the loss-redistribution amplitudes
    for every matrix element whose bra and ket both lie inside the cutoff,
    then renormalizes within the truncation.
    """
    n, m = model.n_sub, model.m_sub
    norm_sq = normalization_sq(model)
    if norm_sq == 0.0:
        raise ZeroProbabilityError(
            f"signature ({n},{m}) has zero probability at r={model.r}, "
            f"R=({model.R1},{model.R2})")
    d = n_c + 1
    rho = np.zeros((d * d, d * d))
    ks = _ladder_k_range(model, n_c)
    cs = {k: subtraction_coefficient(k, model) for k in ks}
    # loss amplitudes: keep j of i photons against transmissivity eta
    lk1 = 1.0 - model.eta1
    lk2 = 1.0 - model.eta2
    for k in ks:
        ck = cs[k]
        if ck == 0.0:
            continue
        for kp in ks:
            ckp = cs[kp]
            if ckp == 0.0:
                continue
            w = ck * ckp / norm_sq
            for h in range(min(k, kp) - n + 1):
                i1, j1 = k - n - h, kp - n - h
                if i1 > n_c or j1 > n_c:
                    continue
                bh = (_binomial_amplitude(k - n, h, lk1)
                      * _binomial_amplitude(kp - n, h, lk1))
                if bh == 0.0:
                    continue
                for l in range(min(k, kp) - m + 1):
                    i2, j2 = k - m - l, kp - m - l
                    if i2 > n_c or j2 > n_c:
                        continue
                    bl = (_binomial_amplitude(k - m, l, lk2)
                          * _binomial_amplitude(kp - m, l, lk2))
                    rho[i1 * d + i2, j1 * d + j2] += w * bh * bl
    kept = float(np.trace(rho))
    discarded = max(0.0, 1.0 - kept)
    _warn_truncation(discarded, n_c)
    if kept == 0.0:
        raise ZeroProbabilityError(f"no state weight inside cutoff {n_c}")
    return TwoModeState(n_c, rho / kept, truncation_weight=discarded)
