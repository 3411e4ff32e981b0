"""Seeded Monte Carlo of erasure-channel multicast under four policies.

Randomness is a counter-based hash of (master_seed, trial, transmission,
channel), so any draw is a pure function of its indices: trials can run in
any order, in parallel, scalar or vectorized, and reproduce bit-identical
outcomes. Channels 0..2 are the per-client reception draws and channel 3 is
the policy's own randomness; reception draws never depend on the policy,
which gives common random numbers for paired policy comparisons.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import markov
from .gf2 import rref_insert, span_of_rows
from .policy import MAX_SCAN_DIM, _scan_spans

_MASK64 = (1 << 64) - 1
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_GAMMA_TRIAL = 0x9E3779B97F4A7C15
_GAMMA_TX = 0xC2B2AE3D27D4EB4F
_GAMMA_CHANNEL = 0x165667B19E3779F9

POLICIES = ("greedy", "rl", "mds", "bound")

_BLOCK = 1 << 15

CHANNEL_POLICY = 3

# Greedy state spaces are enumerable up to the fine-chain limit; beyond that
# trials fall back to the scalar per-trial path.
_TABLE_DIM_LIMIT = markov.MAX_FINE_DIM


class TransmissionCapError(RuntimeError):
    """A trial exceeded max_tx_per_trial; signals a pathological configuration."""

    def __init__(self, trial_index: int, cap: int):
        super().__init__(f"trial {trial_index} exceeded the {cap}-transmission cap")
        self.trial_index = trial_index


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo run: policy, channel, trial count and master seed."""

    k: int
    p: float
    policy: str
    trials: int
    master_seed: int
    max_tx_per_trial: int = 1_000_000
    rl_include_zero: bool = False

    def __post_init__(self):
        if not 1 <= self.k <= 63:
            raise ValueError(f"k must be in [1, 63], got {self.k}")
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"loss probability must satisfy 0 <= p < 1, got {self.p}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.policy == "greedy" and self.k > MAX_SCAN_DIM:
            raise ValueError(f"greedy scans all 2^k - 1 codewords and supports "
                             f"k <= {MAX_SCAN_DIM}, got {self.k}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.max_tx_per_trial < 1:
            raise ValueError("max_tx_per_trial must be >= 1")


@dataclass
class ExperimentResult:
    """Aggregates over the per-trial transmission counts."""

    mean_tx: float
    stderr: float
    trials: int
    rt: float
    histogram: dict[int, int] = field(default_factory=dict)
    tx_counts: np.ndarray | None = None


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def _trial_base(seed: int, trial: int) -> int:
    return _mix64((seed + (trial + 1) * _GAMMA_TRIAL) & _MASK64)


def _tx_base(trial_base: int, tx: int) -> int:
    return _mix64((trial_base + (tx + 1) * _GAMMA_TX) & _MASK64)


def _draw(tx_base: int, channel: int) -> float:
    word = _mix64((tx_base + (channel + 1) * _GAMMA_CHANNEL) & _MASK64)
    return (word >> 11) * 2.0**-53


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
    return z ^ (z >> np.uint64(31))


def _trial_base_np(seed: int, trials: np.ndarray) -> np.ndarray:
    return _mix64_np(np.uint64(seed & _MASK64)
                     + (trials + np.uint64(1)) * np.uint64(_GAMMA_TRIAL))


def _tx_base_np(trial_base: np.ndarray, tx: int) -> np.ndarray:
    return _mix64_np(trial_base + np.uint64(((tx + 1) * _GAMMA_TX) & _MASK64))


def _draw_np(tx_base: np.ndarray, channel: int) -> np.ndarray:
    word = _mix64_np(tx_base + np.uint64(((channel + 1) * _GAMMA_CHANNEL) & _MASK64))
    return (word >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _nonzero_vector(u: float, k: int) -> int:
    return 1 + int(u * ((1 << k) - 1))


def _any_vector(u: float, k: int) -> int:
    return int(u * (1 << k))


def run_trial(config: ExperimentConfig, trial_index: int) -> int:
    """One trial, scalar reference path; returns the transmission count."""
    s = 1.0 - config.p
    k = config.k
    cap = config.max_tx_per_trial
    base = _trial_base(config.master_seed, trial_index)

    if config.policy in ("mds", "bound"):
        targets = (k, k, k) if config.policy == "mds" else (k, k, k + 1)
        counts = [0, 0, 0]
        t = 0
        while any(c < g for c, g in zip(counts, targets)):
            if t >= cap:
                raise TransmissionCapError(trial_index, cap)
            h = _tx_base(base, t)
            for c in range(3):
                if counts[c] < targets[c] and _draw(h, c) < s:
                    counts[c] += 1
            t += 1
        return t

    rows: list[tuple[int, ...]] = [(), (), ()]
    t = 0
    while any(len(r) < k for r in rows):
        if t >= cap:
            raise TransmissionCapError(trial_index, cap)
        h = _tx_base(base, t)
        if config.policy == "greedy":
            spans = [span_of_rows(r) for r in rows if len(r) < k]
            w, _ = _scan_spans(spans, k, "smallest", None)
        else:
            u = _draw(h, CHANNEL_POLICY)
            w = _any_vector(u, k) if config.rl_include_zero else _nonzero_vector(u, k)
        for c in range(3):
            if len(rows[c]) < k and _draw(h, c) < s:
                inserted = rref_insert(rows[c], w)
                if inserted is not None:
                    rows[c] = inserted
        t += 1
    return t


def _reception_masks(seed: int, trials: np.ndarray, tx: int, s: float) -> np.ndarray:
    """Per-trial 3-bit reception masks at one transmission index."""
    h = _tx_base_np(_trial_base_np(seed, trials), tx)
    mask = np.zeros(trials.shape, dtype=np.int64)
    for c in range(3):
        mask |= (_draw_np(h, c) < s).astype(np.int64) << c
    return mask


def _counts_block(config: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    """Vectorized mds / bound trials: termination at per-client reception targets."""
    s = 1.0 - config.p
    k = config.k
    targets = np.array([k, k, k + 1 if config.policy == "bound" else k], dtype=np.int64)
    trials = np.arange(lo, hi, dtype=np.uint64)
    counts = np.zeros((hi - lo, 3), dtype=np.int64)
    tx_out = np.zeros(hi - lo, dtype=np.int64)
    active = np.arange(hi - lo)
    t = 0
    while active.size:
        if t >= config.max_tx_per_trial:
            raise TransmissionCapError(lo + int(active[0]), config.max_tx_per_trial)
        h = _tx_base_np(_trial_base_np(config.master_seed, trials[active]), t)
        for c in range(3):
            counts[active, c] += (_draw_np(h, c) < s).astype(np.int64)
        t += 1
        done = np.all(counts[active] >= targets, axis=1)
        tx_out[active[done]] = t
        active = active[~done]
    return tx_out


def _table_block(config: ExperimentConfig, table: np.ndarray, start: int,
                 absorbing: int, lo: int, hi: int) -> np.ndarray:
    """Vectorized greedy trials driven by the precomputed joint-state table."""
    s = 1.0 - config.p
    trials = np.arange(lo, hi, dtype=np.uint64)
    state = np.full(hi - lo, start, dtype=np.int64)
    tx_out = np.zeros(hi - lo, dtype=np.int64)
    active = np.arange(hi - lo)
    if start == absorbing:
        return tx_out
    t = 0
    while active.size:
        if t >= config.max_tx_per_trial:
            raise TransmissionCapError(lo + int(active[0]), config.max_tx_per_trial)
        mask = _reception_masks(config.master_seed, trials[active], t, s)
        state[active] = table[state[active], mask]
        t += 1
        done = state[active] == absorbing
        tx_out[active[done]] = t
        active = active[~done]
    return tx_out


def _rl_block(config: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    """Vectorized random-linear trials with per-trial bit-packed bases."""
    s = 1.0 - config.p
    k = config.k
    n = hi - lo
    trials = np.arange(lo, hi, dtype=np.uint64)
    # basis[c][i, pos] = row whose lowest set bit is pos, or 0 if absent
    basis = np.zeros((3, n, k), dtype=np.uint64)
    ranks = np.zeros((3, n), dtype=np.int64)
    tx_out = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    span_size = float((1 << k) if config.rl_include_zero else (1 << k) - 1)
    offset = 0 if config.rl_include_zero else 1
    t = 0
    while active.size:
        if t >= config.max_tx_per_trial:
            raise TransmissionCapError(lo + int(active[0]), config.max_tx_per_trial)
        h = _tx_base_np(_trial_base_np(config.master_seed, trials[active]), t)
        w = (_draw_np(h, CHANNEL_POLICY) * span_size).astype(np.uint64) + np.uint64(offset)
        for c in range(3):
            recv = _draw_np(h, c) < s
            open_rank = ranks[c, active] < k
            reduce = np.where(recv & open_rank, w, np.uint64(0))
            for pos in range(k):
                row = basis[c, active, pos]
                hit = ((reduce >> np.uint64(pos)) & np.uint64(1)).astype(bool) & (row != 0)
                reduce = np.where(hit, reduce ^ row, reduce)
            innovative = reduce != 0
            if innovative.any():
                idx = active[innovative]
                vals = reduce[innovative]
                low = vals & (np.bitwise_not(vals) + np.uint64(1))
                pos_star = np.log2(low.astype(np.float64)).astype(np.int64)
                basis[c, idx, pos_star] = vals
                ranks[c, idx] += 1
        t += 1
        done = np.all(ranks[:, active] >= k, axis=0)
        tx_out[active[done]] = t
        active = active[~done]
    return tx_out


def _scalar_block(config: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    return np.array([run_trial(config, i) for i in range(lo, hi)], dtype=np.int64)


def _thread_count() -> int:
    """Worker threads from XORCAST_THREADS: unset or empty is 1, else an integer >= 1."""
    raw = os.environ.get("XORCAST_THREADS", "")
    try:
        threads = int(raw) if raw else 1
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"XORCAST_THREADS must be an integer >= 1, got {raw!r}")
    return threads


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials; bit-identical for a given config regardless of threading."""
    if config.policy in ("mds", "bound"):
        block_fn = _counts_block
    elif config.policy == "rl":
        block_fn = _rl_block
    elif config.k <= _TABLE_DIM_LIMIT:
        chain = markov.build_fine_chain(config.k, "smallest")
        table = np.array(
            [row if row is not None else (i,) * 8
             for i, row in enumerate(chain.mask_successors)],
            dtype=np.int64,
        )
        absorbing = chain.absorbing_index

        def block_fn(cfg, lo, hi):
            return _table_block(cfg, table, 0, absorbing, lo, hi)
    else:
        block_fn = _scalar_block

    spans = [(lo, min(lo + _BLOCK, config.trials))
             for lo in range(0, config.trials, _BLOCK)]
    threads = _thread_count()
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(lambda ab: block_fn(config, *ab), spans))
    else:
        blocks = [block_fn(config, lo, hi) for lo, hi in spans]

    tx = np.concatenate(blocks)
    mean = float(tx.mean())
    stderr = float(tx.std(ddof=1) / np.sqrt(config.trials)) if config.trials > 1 else 0.0
    values, counts = np.unique(tx, return_counts=True)
    histogram = {int(v): int(c) for v, c in zip(values, counts)}
    return ExperimentResult(mean_tx=mean, stderr=stderr, trials=config.trials,
                            rt=mean / config.k, histogram=histogram, tx_counts=tx)
