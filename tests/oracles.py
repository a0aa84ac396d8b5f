"""Independent brute-force oracles shared by the test suite.

These deliberately re-derive results along different code paths than the
library: Kraus-operator loss channels, naive series sums, dense window
scans, floor division.  They must never import the implementation they
check beyond basic data types.
"""

import numpy as np
from math import comb, sqrt, tanh


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


def centroid_division_oracle(counts):
    """floor(sum(i * c_i) / sum(c_i)) over the 9-position window."""
    counts = np.asarray(counts)
    total = counts.sum()
    if total == 0:
        return None
    return int(np.dot(np.arange(counts.size), counts) // total)


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


def sequential_sample_batch(sampler, theta1, theta2, rng, chunk=2048,
                            step=0.02):
    """Reference homodyne draws: one 2,048-draw block at a time, each
    drawing its x1 uniforms, x2 uniforms, x1 jitters and x2 jitters from
    rng in turn.  Reads the grid tables and the rotation of the
    QuadratureSampler passed in."""
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    n = theta1.size
    grid, gb, gb_sum = sampler.grid, sampler._gb, sampler._gb_sum
    x1 = np.empty(n)
    x2 = np.empty(n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        m = hi - lo
        q = sampler._rotated(theta1[lo:hi], theta2[lo:hi])
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
