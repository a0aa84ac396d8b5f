"""Inputs of the orchestrator-loop and wire-query workloads.

Everything here is plain numpy and depends only on the benchmark's seed,
so the checks can recompute what the program should return without
calling it.

Sample pattern.  Each server holds one 32-bit word per buffer tag t: the
homodyne code in the high half and the phase-drive code in the low half.
Both codes are functions of t alone, so every ingest of a half writes the
same words and any later read can be predicted:

    homodyne(t, side) = (t * (7919 + 2 side) + 1009 side) mod 16001 - 8000
    drive(t, side)    = sawtooth over DRIVE_PERIOD[side] tags, -8000..8000

The drive steps down once per period; with slope checking on, the server
answers the placeholder word at exactly those tags.

Pulse streams.  Heralds follow the class mix of the nominal run's stream
generator (CLASS_MIX, from the success probabilities at the acceptance
operating point): 91% of them fire one side only and are dropped by the
save gate.  Their spacing follows the seed-300 nominal stream (130,689
heralds): 1.66% of its heralds have a neighbour one or two coarse bins
away (a multi-position trigger cluster) and 0.78% have their nearest
neighbour exactly three bins away (a pair inside the hold window).  Each
half therefore holds BASE_HERALDS heralds spaced apart, one cluster pair,
and every second half one hold-window pair.
"""

from __future__ import annotations

import numpy as np

PLACEHOLDER_WORD = 0x80008000
DRIVE_PERIOD = (499, 211)          # tags per drive ramp, side A and side B

# (n, m) signature class and its share of heralds
CLASS_MIX = (
    ((1, 0), 0.45154), ((0, 1), 0.45154), ((2, 0), 0.00492),
    ((0, 2), 0.00492), ((1, 1), 0.08335), ((1, 2), 0.00176),
    ((2, 1), 0.00176), ((2, 2), 0.00019),
)

HOLD_BINS = 3
BASE_HERALDS = 119                 # per half, at least BASE_GAP bins apart
BASE_GAP = 2 * HOLD_BINS + 2       # so a partner never nears the next herald
# per half one herald 1-2 bins after a base herald, and in odd halves one
# more 3 bins after another: on average 2 of 120.5 heralds (1.7%) sit in a
# cluster and 1 of 120.5 (0.8%) in a hold-window pair, as in the seed-300
# stream
CLUSTER_PARTNERS = 1
HOLD_PARTNERS = (0, 1)             # even, odd halves
EDGE_MARGIN = 16                   # keeps heralds and their queries in the half


def homodyne_codes(tags, side: int) -> np.ndarray:
    t = np.asarray(tags, dtype=np.int64)
    return (t * (7919 + 2 * side) + 1009 * side) % 16001 - 8000


def drive_codes(tags, side: int) -> np.ndarray:
    p = DRIVE_PERIOD[side]
    return (np.asarray(tags, dtype=np.int64) % p) * 16000 // (p - 1) - 8000


def drive_steps_down(tags, side: int) -> np.ndarray:
    """True where the drive code falls from the previous tag (tag 0 has no
    previous sample)."""
    t = np.asarray(tags, dtype=np.int64)
    return (t > 0) & (drive_codes(t, side) < drive_codes(t - 1, side))


def expected_words(tags, side: int) -> np.ndarray:
    """Slope-checked sample words the server should answer for buffer tags."""
    t = np.asarray(tags, dtype=np.int64)
    words = (((homodyne_codes(t, side) & 0xFFFF) << 16)
             | (drive_codes(t, side) & 0xFFFF))
    words[drive_steps_down(t, side)] = PLACEHOLDER_WORD
    return words.astype(np.uint32)


def half_codes(lo: int, hi: int, side: int):
    """(homodyne, drive) code arrays for buffer tags [lo, hi)."""
    t = np.arange(lo, hi)
    return homodyne_codes(t, side), drive_codes(t, side)


# ---------------------------------------------------------------------------
# orchestrator-loop pulse streams
# ---------------------------------------------------------------------------

def draw_heralds(seed: int, n_halves: int, half: int):
    """Per half: (coarse, n, m) arrays of heralds at half-local coarse bins,
    sorted by bin."""
    rng = np.random.default_rng([seed, 0x0C])
    classes = np.array([c for c, _ in CLASS_MIX], dtype=np.int64)
    weights = np.array([w for _, w in CLASS_MIX])
    weights /= weights.sum()
    lo, hi = EDGE_MARGIN, half - EDGE_MARGIN - HOLD_BINS
    room = hi - lo - (BASE_HERALDS - 1) * (BASE_GAP - 1)
    out = []
    for h in range(n_halves):
        # sorted distinct draws spread apart: consecutive gaps >= BASE_GAP
        base = (lo + np.sort(rng.choice(room, size=BASE_HERALDS, replace=False))
                + np.arange(BASE_HERALDS) * (BASE_GAP - 1))
        holds = HOLD_PARTNERS[h % 2]
        lead = rng.choice(base, size=CLUSTER_PARTNERS + holds, replace=False)
        partners = np.concatenate([
            lead[:CLUSTER_PARTNERS]
            + rng.integers(1, 3, size=CLUSTER_PARTNERS),
            lead[CLUSTER_PARTNERS:] + HOLD_BINS])
        coarse = np.sort(np.concatenate([base, partners]))
        cls = classes[rng.choice(len(CLASS_MIX), size=coarse.size, p=weights)]
        out.append((coarse, cls[:, 0].copy(), cls[:, 1].copy()))
    return out


def add_step_down_herald(herald, half: int, buffer_lo: int, side: int,
                         delay: int):
    """herald plus one isolated (1, 1) herald whose query tag on `side`
    (event tag + delay, in the buffer half starting at buffer_lo) falls on
    a drive step-down, so the orchestrator must exclude it."""
    coarse, n, m = herald
    c = np.arange(EDGE_MARGIN, half - EDGE_MARGIN - HOLD_BINS)
    c = c[drive_steps_down(buffer_lo + c - 1 + delay, side)]
    clear = np.abs(coarse[None, :] - c[:, None]).min(axis=1) > HOLD_BINS
    pick = int(c[clear][0])
    at = np.searchsorted(coarse, pick)
    return (np.insert(coarse, at, pick), np.insert(n, at, 1),
            np.insert(m, at, 1))


def detector_pulses(coarse, n, m):
    """(subbins, sides): one pulse per subtracted photon, all at sub-bin 1
    of the herald's coarse bin, as the nominal stream generator places them."""
    sub = 3 * np.asarray(coarse, dtype=np.int64) + 1
    subbins = np.concatenate([np.repeat(sub, n), np.repeat(sub, m)])
    sides = np.concatenate([np.zeros(int(np.sum(n)), dtype=np.int64),
                            np.ones(int(np.sum(m)), dtype=np.int64)])
    return subbins, sides


def isolated(coarse, hold_bins: int = HOLD_BINS) -> np.ndarray:
    """True for heralds with no other herald within hold_bins coarse bins."""
    c = np.asarray(coarse, dtype=np.int64)
    gap = np.diff(c)
    close_next = np.concatenate([gap <= hold_bins, [False]])
    close_prev = np.concatenate([[False], gap <= hold_bins])
    return ~(close_next | close_prev)


# ---------------------------------------------------------------------------
# wire-query request plan
# ---------------------------------------------------------------------------

HERALD_REQUESTS_PER_BLOCK = 64
HERALD_TAGS_MAX = 8
BULK_FRAGMENTS = 3
FRAGMENT_TAGS = 16_000
BLOCKS = 16


def draw_requests(seed: int, half: int):
    """One round's requests, as half-local tag arrays: BLOCKS blocks of
    herald-sized queries (1-8 sorted tags) each followed by one bulk query
    of BULK_FRAGMENTS x FRAGMENT_TAGS sorted tags."""
    rng = np.random.default_rng([seed, 0x0E])
    blocks = []
    for _ in range(BLOCKS):
        heralds = [np.sort(rng.choice(half, size=int(k), replace=False))
                   for k in rng.integers(1, HERALD_TAGS_MAX + 1,
                                         size=HERALD_REQUESTS_PER_BLOCK)]
        bulk = np.sort(rng.integers(0, half, size=BULK_FRAGMENTS * FRAGMENT_TAGS))
        blocks.append((heralds, np.split(bulk, BULK_FRAGMENTS)))
    return blocks
