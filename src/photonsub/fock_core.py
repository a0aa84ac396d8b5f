"""Truncated-Fock-basis construction of photon-subtracted two-mode squeezed vacuum.

Builds the (lossy) conditional states produced when n and m photons are
tapped off the two modes of a squeezed-vacuum ladder state by weak
beamsplitters, together with the closed-form coefficients, normalizations
and heralding probabilities.  A brute-force beamsplitter-circuit oracle is
included so every closed form can be checked against an independent
construction; it applies each beamsplitter one photon-number block at a time.

Conventions: squeezing phase fixed to zero, so every coefficient is real;
two-mode basis index order is ``n * (n_c + 1) + m`` with n the photon
number of mode 1.
"""

from __future__ import annotations

import io
import json
import struct
import warnings
from dataclasses import dataclass, field
from math import comb, sqrt, tanh

import numpy as np

__all__ = [
    "SubtractionModel",
    "TwoModeState",
    "CoefficientTable",
    "TruncationWarning",
    "ZeroProbabilityError",
    "DivergenceError",
    "CutoffTooSmallError",
    "subtraction_coefficient",
    "coefficient_table",
    "normalization_sq",
    "success_probability",
    "pure_subtracted_state",
    "lossy_subtracted_state",
    "circuit_oracle",
    "beamsplitter_unitary",
]

# Relative tail threshold for the ladder series; the states of interest
# decay geometrically so this converges in a few dozen terms.
_SERIES_RTOL = 1e-14
_SERIES_KMAX_MARGIN = 80

_DUMP_MAGIC = b"TMST\x01"


class TruncationWarning(UserWarning):
    """More than the allowed state weight fell outside the photon cutoff."""


class ZeroProbabilityError(ValueError):
    """The requested subtraction signature has zero heralding probability."""


class DivergenceError(ValueError):
    """Effective squeezing at or above 1: the ladder series diverges."""


class CutoffTooSmallError(ValueError):
    """Working cutoff leaves more squeezed-ladder tail weight than allowed."""


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

    @property
    def nu(self) -> float:
        """sqrt((1-eta1)(1-eta2)), the joint loss factor."""
        return sqrt((1.0 - self.eta1) * (1.0 - self.eta2))

    def with_signature(self, n_sub: int, m_sub: int) -> "SubtractionModel":
        return SubtractionModel(self.r, self.R1, self.R2, self.eta1, self.eta2,
                                n_sub, m_sub)


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

    @classmethod
    def from_pure(cls, n_c: int, amplitudes: np.ndarray,
                  truncation_weight: float = 0.0) -> "TwoModeState":
        v = np.asarray(amplitudes, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ZeroProbabilityError("pure state has zero norm inside the cutoff")
        v = v / norm
        return cls(n_c, np.outer(v, v.conj()), truncation_weight)

    # -- basic access ---------------------------------------------------
    @property
    def dim(self) -> int:
        return (self.n_c + 1) ** 2

    def index(self, n: int, m: int) -> int:
        return n * (self.n_c + 1) + m

    def element(self, bra: tuple, ket: tuple) -> complex:
        return self.matrix[self.index(*bra), self.index(*ket)]

    def population(self, n: int, m: int) -> float:
        return self.matrix[self.index(n, m), self.index(n, m)].real

    def trace(self) -> float:
        return self.matrix.trace().real

    def hermiticity_residual(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])

    def validate(self, herm_tol=1e-12, trace_tol=1e-10, psd_tol=1e-10):
        """Raise if the state violates its Hermiticity/trace/PSD contract."""
        h = self.hermiticity_residual()
        if h >= herm_tol:
            raise ValueError(f"hermiticity residual {h:.3e} >= {herm_tol}")
        t = abs(self.trace() - 1.0)
        if t >= trace_tol:
            raise ValueError(f"|trace - 1| = {t:.3e} >= {trace_tol}")
        ev = self.min_eigenvalue()
        if ev <= -psd_tol:
            raise ValueError(f"min eigenvalue {ev:.3e} <= -{psd_tol}")
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
        if raw[:5] != _DUMP_MAGIC:
            raise ValueError("not a two-mode state dump")
        n_c, w = struct.unpack_from("<Id", raw, 5)
        d = (n_c + 1) ** 2
        mat = np.frombuffer(raw, dtype="<c16", count=d * d, offset=5 + 12)
        return cls(n_c, mat.reshape(d, d).astype(complex), w)

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.dump())

    @classmethod
    def load(cls, path) -> "TwoModeState":
        with open(path, "rb") as fh:
            return cls.from_dump(fh.read())

    def meta_json(self) -> str:
        return json.dumps({"n_c": self.n_c, "dim": self.dim,
                           "truncation_weight": self.truncation_weight,
                           "index_order": "n*(n_c+1)+m"})


@dataclass
class CoefficientTable:
    """Ladder coefficients c_k for one subtraction signature, k <= k_max."""

    n_sub: int
    m_sub: int
    k_max: int
    values: np.ndarray = field(repr=False)

    def value(self, k: int) -> float:
        if k < 0 or k > self.k_max:
            raise IndexError(f"k={k} outside table (k_max={self.k_max})")
        return float(self.values[k])


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


def coefficient_table(model: SubtractionModel, k_max: int) -> CoefficientTable:
    vals = np.array([subtraction_coefficient(k, model) for k in range(k_max + 1)])
    return CoefficientTable(model.n_sub, model.m_sub, k_max, vals)


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
    """Lossless subtracted state as a rank-1 density matrix at cutoff n_c.

    Requires unit transmissivities.  The state lives on the displaced
    ladder |k-n, k-m>; it is renormalized inside the cutoff and the
    discarded weight is reported on the returned state.
    """
    if model.eta1 != 1.0 or model.eta2 != 1.0:
        raise ValueError("pure state requires eta1 = eta2 = 1 (use the lossy builder)")
    n, m = model.n_sub, model.m_sub
    norm_sq = normalization_sq(model)
    if norm_sq == 0.0:
        raise ZeroProbabilityError(
            f"signature ({n},{m}) has zero probability at r={model.r}, "
            f"R=({model.R1},{model.R2})")
    d = n_c + 1
    amps = np.zeros(d * d)
    kept_sq = 0.0
    for k in _ladder_k_range(model, n_c):
        if k - n > n_c or k - m > n_c:
            continue
        c = subtraction_coefficient(k, model)
        amps[(k - n) * d + (k - m)] = c
        kept_sq += c * c
    discarded = max(0.0, 1.0 - kept_sq / norm_sq)
    _warn_truncation(discarded, n_c)
    return TwoModeState.from_pure(n_c, amps, truncation_weight=discarded)


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
    return TwoModeState(n_c, rho / kept, truncation_weight=discarded)


# ---------------------------------------------------------------------------
# Brute-force circuit oracle
# ---------------------------------------------------------------------------

def _beamsplit(psi: np.ndarray, theta: float, axes: tuple,
               convention: str) -> np.ndarray:
    """exp(+-theta (a_i+ a_j - a_i a_j+)) ("subtract": +, "loss": -) on axes
    (i, j) of psi, one block N = n_i + n_j at a time.  The block generator is
    real antisymmetric tridiagonal, <a+1|g_N|a> = sqrt((a+1)(N-a)) with
    a = n_i, cut to both truncations; U_N = V exp(i theta w) V+ from
    eigh(-i g_N)."""
    if convention not in ("subtract", "loss"):
        raise ValueError("convention must be 'subtract' or 'loss'")
    if convention == "loss":
        theta = -theta
    t = np.moveaxis(psi, axes, (0, 1))
    di, dj = t.shape[:2]
    out = np.empty(t.shape)
    for n in range(di + dj - 1):
        a = np.arange(max(0, n - dj + 1), min(n, di - 1) + 1)
        s = np.sqrt((a[:-1] + 1.0) * (n - a[:-1]))
        w, v = np.linalg.eigh(np.diag(-1j * s, -1) + np.diag(1j * s, 1))
        u = ((v * np.exp(1j * theta * w)) @ v.conj().T).real
        out[a, n - a] = np.tensordot(u, t[a, n - a], axes=1)
    return np.moveaxis(out, (0, 1), axes)


def beamsplitter_unitary(theta: float, dim: int, convention: str = "subtract") -> np.ndarray:
    """Two-mode beamsplitter exp(theta (a1+ a2 - a1 a2+)) on a dim x dim
    truncated pair of modes, rows and columns in the order n1 * dim + n2.

    "subtract" maps a1+ -> cos a1+ - sin a2+ (tap convention with
    sin^2 theta = R); "loss" maps a1+ -> cos a1+ + sin a2+ (environment
    convention with cos^2 theta = eta).  The oracle's block kernel applied
    to the identity; exact on every fully contained photon-number block.
    """
    eye = np.eye(dim * dim).reshape(dim, dim, dim * dim)
    return _beamsplit(eye, theta, (0, 1), convention).reshape(dim * dim, dim * dim)


def default_working_cutoff(model: SubtractionModel, tail: float = 1e-12) -> int:
    """Smallest per-mode cutoff keeping the squeezed-ladder tail below `tail`."""
    t2 = model.t_r ** 2
    if t2 == 0.0:
        return max(model.n_sub, model.m_sub, 2)
    k = 0
    w = 1.0
    while w * t2 >= tail and k < 200:
        w *= t2
        k += 1
    return max(k + 1, model.n_sub + 2, model.m_sub + 2, 4)


def circuit_oracle(model: SubtractionModel, n_c: int,
                   n_c_work: int | None = None) -> TwoModeState:
    """Ground-truth state from explicit beamsplitter unitaries.

    Builds the squeezed ladder on a working cutoff, entangles each mode with
    an ancilla vacuum through a tap beamsplitter, projects the ancillas on
    the subtraction signature, routes each mode through an environment
    beamsplitter, traces the environments out, and finally truncates to
    n_c.  Beamsplitters act on the state tensor one photon-number block at
    a time.  Every closed form in this module is checked against this path.
    """
    if n_c_work is None:
        # the ladder must decay relative to the signature's own norm, not
        # just carry negligible absolute tail weight: tiny normalizations
        # (high-order signatures) amplify any truncation residue
        n_c_work = max(default_working_cutoff(model),
                       _ladder_k_range(model, n_c)[-1] + 2)
    t2 = model.t_r ** 2
    tail = t2 ** (n_c_work + 1)
    if tail >= 1e-12:
        raise CutoffTooSmallError(
            f"working cutoff {n_c_work} leaves ladder tail {tail:.2e} >= 1e-12")
    if n_c_work < max(model.n_sub, model.m_sub):
        raise CutoffTooSmallError("working cutoff below the subtraction signature")
    dw = n_c_work + 1

    # two-mode squeezed ladder, modes (1, 2)
    lad = sqrt(1.0 - t2) * (-model.t_r) ** np.arange(dw)
    psi = np.zeros((dw, dw))
    psi[np.arange(dw), np.arange(dw)] = lad

    # tap + project, one mode at a time to keep the tensor small
    for mode, (R, n_tap) in enumerate([(model.R1, model.n_sub),
                                       (model.R2, model.m_sub)]):
        joint = np.tensordot(psi, np.array([1.0] + [0.0] * (dw - 1)), axes=0)
        joint = _beamsplit(joint, np.arcsin(sqrt(R)), (mode, 2), "subtract")
        psi = joint.take(n_tap, axis=2)

    success = float(np.vdot(psi, psi).real)
    if success == 0.0:
        raise ZeroProbabilityError("zero heralding amplitude in oracle circuit")
    pure_amplitudes = psi.copy()

    if model.eta1 == 1.0 and model.eta2 == 1.0:
        rho_full = np.einsum("ij,kl->ijkl", psi, psi.conj()).reshape(dw * dw, dw * dw)
    else:
        # loss beamsplitters against environment vacua, then trace them out
        joint = np.zeros((dw, dw, dw, dw))
        joint[:, :, 0, 0] = psi
        joint = _beamsplit(joint, np.arccos(sqrt(model.eta1)), (0, 2), "loss")
        joint = _beamsplit(joint, np.arccos(sqrt(model.eta2)), (1, 3), "loss")
        m = joint.reshape(dw * dw, dw * dw)  # (modes) x (environments)
        rho_full = m @ m.conj().T
    rho_full /= np.trace(rho_full).real

    # truncate to n_c and renormalize
    if n_c > n_c_work:
        raise ValueError("n_c must not exceed the working cutoff")
    d = n_c + 1
    keep = (np.arange(dw)[:, None] * dw + np.arange(dw)[None, :])[:d, :d].ravel()
    rho_t = rho_full[np.ix_(keep, keep)]
    kept = float(np.trace(rho_t).real)
    state = TwoModeState(n_c, rho_t / kept, truncation_weight=max(0.0, 1.0 - kept))
    state.oracle_success_probability = success
    # unnormalized projected ladder amplitudes, signs included, for
    # coefficient-level comparisons
    state.oracle_pure_amplitudes = pure_amplitudes
    return state
