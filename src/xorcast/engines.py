"""sim.run_experiment's vector engines; it imports them, and numpy, on its first call.

Each is a step function on one trial driver, _drive, which hashes, tests receptions, checks
the cap, refills done rows and holds state in one pool (trial on axis 0, -1 for pivot-major
rl bases). Nothing is memoized: perfbench clears only the caches of modules loaded before it."""

import threading

import numpy as np

from . import markov, sim
from .gf2 import _low_halves, subspace_table
from .policy import _coverage_levels
from .sim import (_BLOCK, _MUL1, _MUL2, CHANNEL_POLICY, ExperimentConfig, TransmissionCapError,
                  _start_base, _trial_base, _tx_base, _word, run_trial)

# _drive's pool holds at most _STATE_BYTES of engine state (or one trial's): int8 counters
# take 3 B a row, the tables 8 or 24 B, and all fill _BLOCK rows; span masks and bases fewer.
# It bounds state only: mds at k = 2, p = 0 peaks 2.4 MB higher over 32,768 trials than 1,000.
_STATE_BYTES = 1 << 20

# Greedy runs on the joint-state table and rl on the subspace table up to this k
_TABLE_DIM_LIMIT = markov.MAX_FINE_DIM
# Span masks cost O(2^k) a step, as run_trial's do; above this k run_trial is faster
_MASK_DIM_LIMIT = 15

_TABLE_LOCK = threading.Lock()  # one thread builds a cached table while the others wait


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """_mix64 of every element, computed in z's own storage; returns z."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


def _rl_vectors(tx_base: np.ndarray, config: ExperimentConfig, dtype) -> np.ndarray:
    """Coding vectors of the rl policy, drawn as _rl_vector draws them."""
    shift = np.uint64(64 - config.k)
    w = _word(tx_base, CHANNEL_POLICY, _mix64_np) >> shift
    channel, zero = CHANNEL_POLICY, np.flatnonzero(w == 0)
    while zero.size and not config.rl_include_zero:
        channel += 1
        w[zero] = _word(tx_base[zero], channel, _mix64_np) >> shift
        zero = zero[w[zero] == 0]
    return w.astype(dtype, copy=False)


def _drive(config: ExperimentConfig, lo: int, out: np.ndarray, make_state, step, axis=0) -> None:
    """Run trials lo..lo+len(out)-1 to completion, writing their transmission counts to out.

    make_state(n) returns the state of n fresh trials, arrays whose axis `axis` is
    the row; one pool of at most _BLOCK rows and _STATE_BYTES of state (as
    make_state(1) measures it) runs them all. Each transmission, step(h, recv,
    state) advances every row in place, given the transmission hashes h and the
    three per-client reception masks recv, and returns the mask of rows whose
    trial is now done. A done row takes the next pending trial, on sim's _start_base.
    Once none is pending, done rows are compacted out.
    """
    trials, cap, threshold = len(out), config.max_tx_per_trial, (1.0 - config.p) * 2.0**53
    rows = min(trials, _BLOCK, max(1, _STATE_BYTES // sum(a.nbytes for a in make_state(1))))
    idx, start = np.arange(rows), np.zeros(rows, dtype=np.int64)
    base = _trial_base(config.master_seed, (idx + lo).astype(np.uint64), _mix64_np)
    state, t, started = make_state(rows), 0, rows
    while idx.size:
        if t - int(start.min()) >= cap:  # the lowest trial left started first
            raise TransmissionCapError(lo + int(idx.min()), cap)
        h = _tx_base(base, t, _mix64_np)
        # run_trial's reception test: the word's top 53 bits against (1 - p) * 2^53
        recv = [_word(h, c, _mix64_np) >> np.uint64(11) < threshold for c in range(3)]
        done = step(h, recv, state)
        t += 1
        ended = np.flatnonzero(done)  # gathers by index, far cheaper than by a mask
        if ended.size:
            out[idx[ended]] = t - start[ended]  # at most cap, which fits out's int32
            if started < trials:
                free = ended[:trials - started]
                done[free] = False
                idx[free] = fresh = np.arange(started, started + free.size)
                base[free] = _start_base(_trial_base(config.master_seed,
                                                     (fresh + lo).astype(np.uint64), _mix64_np), t)
                start[free] = t
                for array, init in zip(state, make_state(free.size)):
                    array.swapaxes(0, axis)[free] = init.swapaxes(0, axis)
                started += free.size
            if started == trials:
                # np.take keeps C order; array[..., keep] would lay the trial axis out first
                keep = np.flatnonzero(~done)
                idx, base, start = idx[keep], base[keep], start[keep]
                state = [np.take(array, keep, axis=axis) for array in state]


def _counts_block(config: ExperimentConfig, lo: int, out: np.ndarray) -> None:
    """mds / bound trials: each client needs a fixed number of receptions."""
    k = config.k
    targets = (k, k, k + 1 if config.policy == "bound" else k)

    def step(h, recv, need):  # need[c][i]: receptions client c of trial i still lacks
        for c in range(3):  # stops at 0, so int8 never wraps
            need[c] -= np.minimum(need[c], recv[c].view(np.int8))
        return (need[0] | need[1] | need[2]) == 0

    _drive(config, lo, out,
           lambda n: [np.full(n, target, dtype=np.int8) for target in targets], step)


def _table_block(config: ExperimentConfig, lo: int, out: np.ndarray) -> None:
    """Greedy trials on the fine chain's joint-state table; state 0 holds no receptions."""
    with _TABLE_LOCK:
        chain = markov.build_fine_chain(config.k, "smallest")
    flat = np.array([row or (i,) * 8 for i, row in enumerate(chain.mask_successors)],
                    dtype=np.intp).ravel()
    absorbing = chain.n_states - 1

    def step(h, recv, state):
        state[0] = flat[state[0] << 3 | recv[0] | recv[1] << 1 | recv[2] << 2]
        return state[0] == absorbing

    _drive(config, lo, out, lambda n: [np.zeros(n, dtype=np.intp)], step)


def _rl_table_block(config: ExperimentConfig, lo: int, out: np.ndarray) -> None:
    """rl trials for k <= _TABLE_DIM_LIMIT: each client's span is a subspace_table index,
    flat[span * 2^k + w] the span after receiving w, and GF(2)^k the last index."""
    with _TABLE_LOCK:
        bases, _, nxt = subspace_table(config.k)
    flat, width, full = np.array(nxt, dtype=np.intp).ravel(), 1 << config.k, len(bases) - 1

    def step(h, recv, span):
        w = _rl_vectors(h, config, np.intp)
        for c in range(3):
            # a lost codeword acts as the zero vector, which leaves the span as it is
            span[c] = flat[span[c] * width + w * recv[c]]
        return (span[0] == full) & (span[1] == full) & (span[2] == full)

    _drive(config, lo, out, lambda n: [np.zeros(n, dtype=np.intp) for _ in range(3)], step)


def _rl_basis_block(config: ExperimentConfig, lo: int, out: np.ndarray) -> None:
    """rl trials on row-first bases: run_slices' pick from p = 0.75 on uint32, 0.25 on uint64 rows.

    basis[i, c, j] is trial i's client c row whose pivot (lowest set bit) is bit
    j, or 0, in the narrowest unsigned dtype that holds k bits. Every row is
    zero at the other rows' pivots, so w reduces to w xor the rows that its own
    bits select, in one pass. One update serves every (trial, client) pair that
    received w and lacks full rank, whichever the client.
    """
    k, dtype = config.k, np.min_scalar_type((1 << config.k) - 1)

    def step(h, recv, state):
        basis, rank = state[0].reshape(-1, k), state[1].reshape(-1)
        w = _rl_vectors(h, config, dtype)
        pick = np.flatnonzero(np.stack(recv, axis=1) & (state[1] < k))
        wp = w[pick // 3]  # pick holds flat (trial, client) pair indices
        rows = np.take(basis, pick, axis=0)
        # bits[i, j] = bit j of wp[i]
        bits = np.unpackbits(wp.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1,
                             count=k, bitorder="little")
        terms = np.multiply(rows, bits, dtype=dtype)
        reduced = np.bitwise_xor.reduce(terms, axis=1) ^ wp
        # the new pivot bit, 0 where w was already in the span
        low = reduced & (~reduced + dtype.type(1))
        pivot = np.log2((low | (low == 0)).astype(np.float64)).astype(dtype)  # its index
        # clear it from the client's other rows: hit = reduced where a row has it,
        # as (row & low) * (reduced >> pivot), exact since low divides reduced
        hit = np.bitwise_and(rows, low[:, None], out=terms)
        hit *= (reduced >> pivot)[:, None]
        rows ^= hit
        new = np.flatnonzero(low)
        rows[new, pivot[new]] = reduced[new]
        basis[pick] = rows
        rank[pick[new]] += 1
        return (state[1] == k).all(axis=1)

    _drive(config, lo, out, lambda n: [np.zeros((n, 3, k), dtype=dtype),
                                       np.zeros((n, 3), dtype=np.int8)], step)


def _rl_dense_block(config: ExperimentConfig, lo: int, out: np.ndarray) -> None:
    """_rl_basis_block's bases pivot-major, basis[j, c, i]: all pairs step in contiguous passes."""
    k, dtype = config.k, np.min_scalar_type((1 << config.k) - 1)
    bits = np.arange(k, dtype=dtype)[:, None, None]
    pivots = np.left_shift(1, bits, dtype=dtype)

    def step(h, recv, state):
        basis, rank = state
        w = _rl_vectors(h, config, dtype) * np.stack(recv)  # a lost codeword acts as 0
        t = w >> bits  # t[j] = basis[j] where w has bit j, in place
        t &= 1
        t *= basis
        reduced = np.bitwise_xor.reduce(t, axis=0) ^ w
        low = reduced & (~reduced + dtype.type(1))
        # the rows holding the new pivot bit, and the empty row at it, take reduced
        np.bitwise_or(basis, pivots, out=t)
        t &= low
        t *= reduced // np.maximum(low, dtype.type(1))
        basis ^= t
        rank += low != 0
        return (rank == k).all(axis=0)

    _drive(config, lo, out, lambda n: [np.zeros((k, 3, n), dtype=dtype),
                                       np.zeros((3, n), dtype=np.int8)], step, axis=-1)


def _mask_block(config: ExperimentConfig, lo: int, out: np.ndarray) -> None:
    """Greedy trials for _TABLE_DIM_LIMIT < k <= _MASK_DIM_LIMIT on span masks.

    span[i, c] holds trial i's client c span as a 2^k-bit mask, bit x at bit x & 63
    of uint64 word x >> 6. A full span misses nothing, so finished clients drop
    out of the coverage levels by themselves.
    """
    k = config.k
    words = max(1, (1 << k) >> 6)
    zero = (np.arange(words) == 0).astype(np.uint64)  # the span of no rows: bit 0
    full = np.full(words, (1 << min(1 << k, 64)) - 1, dtype=np.uint64)
    nonzero = full ^ zero  # every w but 0

    def step(h, recv, state):
        span, trials, word, low = state[0], np.arange(len(state[0])), 0, 0
        # the smallest w of the best nonempty level: its first nonzero word, then
        # that word's lowest bit (the levels stay within nonzero, whatever ~span holds)
        for level in _coverage_levels(nonzero, [~span[:, c] for c in range(3)])[1:]:
            first = (level != 0).argmax(axis=1)
            value = level[trials, first]
            word, low = np.where(value != 0, first, word), np.where(value != 0, value, low)
        bit = np.log2((low & (~low + np.uint64(1))).astype(np.float64)).astype(np.intp)
        # only the (trial, client) rows that received a w outside their span grow
        grows = np.stack(recv, axis=1)
        grows &= (span[trials, :, word] >> bit[:, None].astype(np.uint64) & 1) == 0
        pick = np.flatnonzero(grows)
        word, bit, flat = word[pick // 3], bit[pick // 3], span.reshape(-1, words)
        # moved[r] = row r translated by w, bit x taken from bit x ^ w: words i ^ (w >> 6),
        # then within each word the halves that each set bit j of w & 63 selects swapped,
        # as in gf2.span_mask, by one delta swap
        moved = np.take(flat, (pick * words)[:, None] + (np.arange(words) ^ word[:, None]))
        for j in range(min(k, 6)):
            sel = np.flatnonzero(bit >> j & 1)
            x, shift = moved[sel], np.uint64(1 << j)
            t = (x >> shift ^ x) & np.uint64(_low_halves(6)[j])
            moved[sel] = x ^ t ^ t << shift
        flat[pick] |= moved
        return (span == full).all(axis=(1, 2))

    _drive(config, lo, out, lambda n: [np.tile(zero, (n, 3, 1))], step)


def _scalar_block(config: ExperimentConfig, lo: int, out: np.ndarray) -> None:
    for i in range(len(out)):
        out[i] = run_trial(config, lo + i)


def run_slices(config: ExperimentConfig, slices: list[tuple[int, int]]) -> np.ndarray:
    """Transmission counts of all of config's trials on its engine, in one int32 array;
    slices, (lo, hi) pairs that cut 0..config.trials-1, each fill their part in place."""
    if config.policy in ("mds", "bound"):
        block_fn = _counts_block
    elif config.policy == "rl" and config.k <= _TABLE_DIM_LIMIT:
        block_fn = _rl_table_block
    elif config.policy == "rl":  # the dense step's work per reception grows as 1 / (1 - p);
        # row-first measured faster from p = 0.75 on uint32 rows (k > 16), 0.25 on uint64
        dense = config.p < (0.25 if config.k > 32 else 0.75 if config.k > 16 else 1.0)
        block_fn = _rl_dense_block if dense else _rl_basis_block
    elif config.k <= _TABLE_DIM_LIMIT:
        block_fn = _table_block
    elif config.k <= _MASK_DIM_LIMIT:
        block_fn = _mask_block
    else:
        block_fn = _scalar_block
    tx = np.empty(config.trials, dtype=np.int32)
    sim.parallel_map(lambda ab: block_fn(config, ab[0], tx[ab[0]:ab[1]]), slices)
    return tx
