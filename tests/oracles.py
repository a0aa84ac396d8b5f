"""Independent brute-force oracles shared by the test suite.

These deliberately re-derive results along different code paths than the
library: beamsplitter circuits and Kraus-operator loss channels, naive
series sums, complex rank-one vectors, dense window scans, floor division,
homodyne-server replies worked out one timetag at a time.
They must never import the implementation they check beyond basic data
types.
"""

from typing import NamedTuple

import numpy as np
from math import comb, log2, sqrt, tanh
from scipy.special import eval_hermite, factorial

from photonsub.fock_core import TwoModeState, ZeroProbabilityError


class CutoffTooSmallError(ValueError):
    """Working cutoff leaves more squeezed-ladder tail weight than allowed."""


def binom_amp(k, n, R):
    if n < 0 or n > k:
        return 0.0
    return sqrt(comb(k, n) * (1 - R) ** (k - n) * R ** n)


def naive_coefficient(k, n, m, r, R1, R2):
    tr = tanh(r)
    if k < max(n, m):
        return 0.0
    return (-tr) ** k * binom_amp(k, n, R1) * binom_amp(k, m, R2)


def naive_norm_sq(n, m, r, R1, R2, k_max=300):
    return sum(naive_coefficient(k, n, m, r, R1, R2) ** 2
               for k in range(max(n, m), k_max + 1))


def loss_kraus_ops(eta, dim):
    """Amplitude-damping Kraus operators K_j on a dim-dimensional mode."""
    ops = []
    for j in range(dim):
        K = np.zeros((dim, dim))
        for n in range(j, dim):
            K[n - j, n] = binom_amp(n, j, 1 - eta)
        ops.append(K)
    return ops


def kraus_lossy_state(pure_amplitudes, eta1, eta2, n_c):
    """Apply per-mode loss channels to a pure two-mode state and truncate.

    pure_amplitudes: (d, d) array of ladder amplitudes at a working cutoff
    (need not be normalized).  Returns the renormalized (n_c+1)^2 density
    matrix as a plain ndarray.
    """
    psi = np.asarray(pure_amplitudes, dtype=float)
    dw = psi.shape[0]
    psi = psi / np.linalg.norm(psi)
    k1 = loss_kraus_ops(eta1, dw)
    k2 = loss_kraus_ops(eta2, dw)
    branches = []
    for K1 in k1:
        t1 = K1 @ psi
        if not t1.any():
            continue
        for K2 in k2:
            t = t1 @ K2.T
            if t.any():
                branches.append(t.ravel())
    V = np.array(branches)
    rho = V.T @ V
    d = n_c + 1
    keep = (np.arange(dw)[:, None] * dw + np.arange(dw)[None, :])[:d, :d].ravel()
    rho_t = rho[np.ix_(keep, keep)]
    return rho_t / np.trace(rho_t)


def pure_ladder_amplitudes(n, m, r, R1, R2, dw):
    """Working-cutoff amplitudes of the subtracted ladder, signs included."""
    psi = np.zeros((dw, dw))
    for k in range(max(n, m), dw + max(n, m)):
        if k - n >= dw or k - m >= dw:
            break
        psi[k - n, k - m] = naive_coefficient(k, n, m, r, R1, R2)
    return psi


def _beamsplit(psi, theta, axes, convention):
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


def beamsplitter_unitary(theta, dim, convention="subtract"):
    """Two-mode beamsplitter exp(theta (a1+ a2 - a1 a2+)) on a dim x dim
    truncated pair of modes, rows and columns in the order n1 * dim + n2.

    "subtract" maps a1+ -> cos a1+ - sin a2+ (tap convention with
    sin^2 theta = R); "loss" maps a1+ -> cos a1+ + sin a2+ (environment
    convention with cos^2 theta = eta).  The oracle's block kernel applied
    to the identity; exact on every fully contained photon-number block.
    """
    eye = np.eye(dim * dim).reshape(dim, dim, dim * dim)
    return _beamsplit(eye, theta, (0, 1), convention).reshape(dim * dim, dim * dim)


def default_working_cutoff(model) -> int:
    """Smallest per-mode cutoff keeping the ladder tail below 1e-12."""
    t2 = model.t_r ** 2
    if t2 == 0.0:
        return max(model.n_sub, model.m_sub, 2)
    k = 0
    w = 1.0
    while w * t2 >= 1e-12 and k < 200:
        w *= t2
        k += 1
    return max(k + 1, model.n_sub + 2, model.m_sub + 2, 4)


def ladder_k_max(model, n_c):
    """Last ladder index a cutoff-n_c state needs: past the cutoff by four
    and below 1e-14 of the accumulated norm, at most 80 terms on."""
    n, m = model.n_sub, model.m_sub
    acc = 0.0
    k = max(n, m)
    for _ in range(81):
        c2 = naive_coefficient(k, n, m, model.r, model.R1, model.R2) ** 2
        acc += c2
        if k - max(n, m) > n_c + 4 and (acc == 0.0 or c2 < 1e-14 * acc):
            break
        k += 1
    return k


def circuit_oracle(model, n_c: int, n_c_work=None):
    """Ground-truth state from explicit beamsplitter unitaries.

    Builds the squeezed ladder on a working cutoff, entangles each mode with
    an ancilla vacuum through a tap beamsplitter, projects the ancillas on
    the subtraction signature, routes each mode through an environment
    beamsplitter, traces the environments out, and finally truncates to
    n_c.  Beamsplitters act on the state tensor one photon-number block at
    a time.  Every closed form of `photonsub.fock_core` is checked against
    this path.
    """
    if n_c_work is None:
        # the ladder must decay relative to the signature's own norm, not
        # just carry negligible absolute tail weight: tiny normalizations
        # (high-order signatures) amplify any truncation residue
        n_c_work = max(default_working_cutoff(model),
                       ladder_k_max(model, n_c) + 2)
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


def centroid_bins(numerators, totals) -> np.ndarray:
    """Vectorized threshold-ladder centroid; totals must be positive."""
    num = np.asarray(numerators, dtype=np.int64)
    tot = np.asarray(totals, dtype=np.int64)
    ks = np.arange(1, 9, dtype=np.int64)
    return (num[:, None] >= ks[None, :] * tot[:, None]).sum(axis=1)


def centroid_division_oracle(counts):
    """floor(sum(i * c_i) / sum(c_i)) over the 9-position window."""
    counts = np.asarray(counts)
    total = counts.sum()
    if total == 0:
        return None
    return int(np.dot(np.arange(counts.size), counts) // total)


def unpack_signature(words):
    """(a_counts, b_counts, sum_a, sum_b) of 64-bit signature words: side A
    in the low word, side B in the high one; in each, sub-bin i in bits
    3i..3i+2 and the side sum in bits 27..31."""
    w = [int(v) for v in np.atleast_1d(words)]
    a, b = (np.array([[(v >> (off + 3 * i)) & 7 for i in range(9)] for v in w],
                     dtype=np.int64).reshape(-1, 9) for off in (0, 32))
    sa, sb = (np.array([(v >> (off + 27)) & 0x1F for v in w], dtype=np.int64)
              for off in (0, 32))
    return a, b, sa, sb


def closed_form_log_negativity(lam, subtracted):
    """E_N of the pure ladder states, summed over the untruncated ladder:
    plain (subtracted=False) or with one photon removed per mode."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"effective squeezing must lie in [0, 1), got {lam}")
    if subtracted:
        return log2((1 + lam) ** 3 / ((1 + lam ** 2) * (1 - lam)))
    return log2((1 + lam) / (1 - lam))


def dense_window_scan(subbins, sides, span_end):
    """Reference trigger scan on a dense count array, one alignment at a
    time, consuming pulses on trigger.  Triggering ignores the
    coincidence/singles gate (that is a downstream save filter).  Slow;
    small streams only."""
    a = np.zeros(span_end + 16, dtype=int)
    b = np.zeros(span_end + 16, dtype=int)
    for t, s in zip(subbins, sides):
        (a if s == 0 else b)[t] += 1
    events = []
    for s in range(span_end + 8):
        wa = a[s:s + 9]
        wb = b[s:s + 9]
        tot = wa.sum() + wb.sum()
        if tot == 0:
            continue
        idx = np.arange(9)
        cen = int((np.dot(idx, wa) + np.dot(idx, wb)) // tot)
        if cen in (4, 5, 6):
            events.append((s, wa.copy(), wb.copy()))
            a[s:s + 9] = 0
            b[s:s + 9] = 0
    return events


def hermite_function_table(n_c, x):
    """psi_0..psi_n_c at points x, shape (n_c + 1,) + x.shape, from
    scipy's physicists' Hermite polynomials."""
    x = np.asarray(x, dtype=float)
    n = np.arange(n_c + 1).reshape((-1,) + (1,) * x.ndim)
    return (eval_hermite(n, x) * np.exp(-0.5 * x * x)
            / np.sqrt(2.0 ** n * factorial(n) * np.sqrt(np.pi)))


def quadrature_vector(x, theta, n_c):
    """<n|x_theta> = e^{-i n theta} psi_n(x), n = 0..n_c, at one point."""
    return hermite_function_table(n_c, x) * np.exp(
        -1j * theta * np.arange(n_c + 1))


def quadrature_operator(theta, n_c):
    """Single-mode x_theta = (a e^{-i theta} + a+ e^{i theta}) / sqrt(2)
    on the truncated basis."""
    a = np.diag(np.sqrt(np.arange(1, n_c + 1)), k=1)
    return (a * np.exp(-1j * theta) + a.T * np.exp(1j * theta)) / np.sqrt(2)


def rank_one_vectors(x1, x2, theta1, theta2, n_c):
    """Row i is <n, m|x1_i theta1_i, x2_i theta2_i> at index n*(n_c+1)+m."""
    n = np.arange(n_c + 1)
    v1 = hermite_function_table(n_c, x1).T * np.exp(
        -1j * np.outer(theta1, n))
    v2 = hermite_function_table(n_c, x2).T * np.exp(
        -1j * np.outer(theta2, n))
    return (v1[:, :, None] * v2[:, None, :]).reshape(len(v1), -1)


def r_operator_from_vectors(rho, v, floor=1e-12):
    """(R, p, floored): p_i = <v_i|rho|v_i> floored, R = sum_i
    |v_i><v_i| / p_i, Hermitised; the complex-vector formula."""
    p = np.einsum("ij,ij->i", v.conj() @ rho, v).real
    floored = int(np.count_nonzero(p < floor))
    p = np.clip(p, floor, None)
    r = (v.T / p) @ v.conj()
    return 0.5 * (r + r.conj().T), p, floored


def sequential_sample_batch(sampler, theta1, theta2, rng, chunk=2048,
                            step=0.02):
    """Reference homodyne draws: one 2,048-draw block at a time, each
    drawing its x1 uniforms, x2 uniforms, x1 jitters and x2 jitters from
    rng in turn.  Takes only the state and the grid of the
    QuadratureSampler passed in: the grid tables, the rotation of the
    state by each draw's phases and the clipped cumulative sums are
    rebuilt here."""
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    n = theta1.size
    grid, state = sampler.grid, sampler.state
    d = state.n_c + 1
    psi = hermite_function_table(state.n_c, grid)
    # gb[g, n*d+n'] = psi_n(x_g) psi_n'(x_g)
    gb = np.einsum("ng,mg->gnm", psi, psi).reshape(grid.size, d * d)
    gb_sum = gb.sum(axis=0)
    # rho[(n, m), (n', m')] stored as [n, n', m, m']
    pairs = np.ascontiguousarray(
        state.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3))

    def rotated(th1, th2):
        # the state conjugated by e^{i(n th1 + m th2)} per draw, shaped
        # (draws, (n, n'), (m, m'))
        ph = (np.exp(1j * np.outer(th1, np.arange(d)))[:, :, None]
              * np.exp(1j * np.outer(th2, np.arange(d)))[:, None, :])
        q = ph[:, :, None, :, None] * pairs
        q = q * ph.conj()[:, None, :, None, :]
        return q.reshape(-1, d * d, d * d)

    x1 = np.empty(n)
    x2 = np.empty(n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        m = hi - lo
        q = rotated(theta1[lo:hi], theta2[lo:hi])
        marg = np.real((q @ gb_sum) @ gb.T)
        np.clip(marg, 0.0, None, out=marg)
        cdf1 = np.cumsum(marg, axis=1)
        u1 = rng.random(m) * cdf1[:, -1]
        i1 = np.minimum(np.count_nonzero(cdf1 < u1[:, None], axis=1),
                        grid.size - 1)
        left = (gb[i1][:, None, :] @ q)[:, 0, :]
        rows = np.real(left @ gb.T)
        np.clip(rows, 0.0, None, out=rows)
        cdf2 = np.cumsum(rows, axis=1)
        u2 = rng.random(m) * cdf2[:, -1]
        i2 = np.minimum(np.count_nonzero(cdf2 < u2[:, None], axis=1),
                        grid.size - 1)
        x1[lo:hi] = grid[i1] + (rng.random(m) - 0.5) * step
        x2[lo:hi] = grid[i2] + (rng.random(m) - 0.5) * step
    return x1, x2


# ---------------------------------------------------------------------------
# homodyne detection server replies, tag by tag from the protocol spec
# ---------------------------------------------------------------------------

HDS_KEYWORD = 0x48445351
(HDS_OK, HDS_KEYWORD_MISMATCH, HDS_STALE_OVERFLOW, HDS_ACTIVE_HALF,
 HDS_INTEGRITY, HDS_MALFORMED, HDS_RANGE) = range(7)
HDS_PAGE_WORDS = 1024
HDS_OVERFLOW_MASK = (1 << 29) - 1
HDS_PLACEHOLDER_WORD = 0x8000_8000


def pack_words(adc_a, adc_b, bits=14):
    """Reference word layout: the homodyne (a) sample in the high 16 bits,
    the phase-drive (b) sample in the low 16, each sign-extended.  A
    sample outside the signed `bits`-bit range raises; non-integer input
    is truncated through int64."""
    a, b = (x if x.dtype.kind in "iu" else x.astype(np.int64)
            for x in map(np.asarray, (adc_a, adc_b)))
    lim = 1 << bits - 1
    for x, name in ((a, "homodyne"), (b, "phase-drive")):
        if x.size and (x.min() < -lim or x.max() >= lim):
            raise ValueError(f"{name} sample outside the {bits}-bit range")
    a, b = np.broadcast_arrays(a.astype(np.int64), b.astype(np.int64))
    return (((a & 0xFFFF) << 16) | (b & 0xFFFF)).astype(np.uint32)


class HdsState(NamedTuple):
    """What a reply depends on: the physical storage and page table, the
    writer's cursor and overflow number, HALT, and the configuration."""
    storage: np.ndarray
    page_map: np.ndarray
    cursor: int
    overflow: int
    halted: bool
    mode: str = "samples"
    window: int = 1
    slope: bool = False
    threshold: int = 2000
    slope_sign: int = 1

    @property
    def capacity(self):
        return self.storage.size


def hds_address(page_map, t):
    """page_map[t // 1024] * 1024 + t % 1024"""
    return int(page_map[t // HDS_PAGE_WORDS]) * HDS_PAGE_WORDS \
        + t % HDS_PAGE_WORDS


def hds_halves(state, t):
    """(homodyne, drive) samples of timetag t as signed 16-bit ints."""
    w = int(state.storage[hds_address(state.page_map, t)])
    return tuple(h - 0x10000 if h & 0x8000 else h
                 for h in (w >> 16, w & 0xFFFF))


def hds_verdict(state, overflow, tags):
    """Status of reading every timetag in `tags` for epoch `overflow`."""
    cap, half = state.capacity, state.capacity // 2
    if any(t < 0 or t >= cap for t in tags):
        return HDS_RANGE
    ovf, prev = state.overflow, (state.overflow - 1) & HDS_OVERFLOW_MASK

    def epoch(t):   # of the word last written at t
        return ovf if t < state.cursor else prev

    if state.halted:
        return (HDS_OK if all(epoch(t) == overflow for t in tags)
                else HDS_STALE_OVERFLOW)
    if state.cursor >= half:
        sealed = (ovf, 0, half)
    else:
        sealed = (prev, half, cap) if ovf else None
    if sealed and overflow == sealed[0] and all(
            sealed[1] <= t < sealed[2] for t in tags):
        return HDS_OK
    active = range(0, half) if state.cursor < half else range(half, cap)
    if overflow == ovf and any(t in active for t in tags):
        return HDS_ACTIVE_HALF
    return HDS_STALE_OVERFLOW


def hds_sample_word(state, t):
    """The reply word for timetag t: the sum of window samples per half,
    saturated to int16, or the placeholder where the drive code is below
    the previous timetag's (timetag 0 has none)."""
    if state.slope and t > 0 and (hds_halves(state, t)[1]
                                  < hds_halves(state, t - 1)[1]):
        return HDS_PLACEHOLDER_WORD
    sums = [sum(hds_halves(state, t + k)[i] for k in range(state.window))
            for i in (0, 1)]
    a, b = (min(max(s, -32768), 32767) & 0xFFFF for s in sums)
    return (a << 16) | b


def hds_crossings(state, start, end):
    """Timetags in [start, end) whose homodyne sample reaches the threshold
    from the wrong side of it: rising from below, falling from above."""
    thr, hits = state.threshold, []
    for t in range(start + 1, end):
        p, c = hds_halves(state, t - 1)[0], hds_halves(state, t)[0]
        if (p < thr <= c) if state.slope_sign >= 0 else (p > thr >= c):
            hits.append(t)
    return hits


def hds_reply(state, conn_overflow, body):
    """(status, overflow echo, payload, connection epoch) for one request
    body, given the epoch the connection's last keyword header set."""
    body = [int(w) for w in body]

    def error(status):      # errors echo the writer's overflow number
        return status, state.overflow, [], conn_overflow

    if not body:
        return error(HDS_MALFORMED)
    if body[0] == HDS_KEYWORD:
        if len(body) < 2:
            return error(HDS_MALFORMED)
        conn_overflow, payload = body[1], body[2:]
    elif max(body) >= state.capacity or conn_overflow is None:
        return error(HDS_KEYWORD_MISMATCH)
    else:
        payload = body
    if state.mode == "threshold":
        if len(payload) != 2:
            return error(HDS_MALFORMED)
        if not 0 <= payload[0] < payload[1] <= state.capacity:
            return error(HDS_RANGE)
        read = range(*payload)
    else:
        read = [t + k for t in payload for k in range(state.window)]
    verdict = hds_verdict(state, conn_overflow, read)
    if verdict != HDS_OK:
        return error(verdict)
    out = (hds_crossings(state, *payload) if state.mode == "threshold"
           else [hds_sample_word(state, t) for t in payload])
    return HDS_OK, conn_overflow, out, conn_overflow
