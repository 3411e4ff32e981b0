"""Seeded Monte Carlo of erasure-channel multicast under four policies.

Randomness is a counter-based hash of (master_seed, trial, transmission,
channel), so any draw is a pure function of its indices: trials can run in
any order, in parallel, scalar or vectorized, and reproduce bit-identical
outcomes. Channels 0..2 are the per-client reception draws and channel 3 is
the policy's own randomness (rl takes the top k bits of its hash word and
redraws a zero vector on channels 4, 5, ...); reception draws never depend
on the policy, which gives common random numbers for paired comparisons.

run_trial is the scalar reference. run_experiment runs the engines module, and so
loads numpy, on its first call: importing the package, exact and bound need none.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING

from .bounds import _as_int, _check_loss
from .gf2 import MAX_DIM, MAX_MASK_DIM, rref_insert, span_mask
from .policy import _scan_spans

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_GAMMA_TRIAL = 0x9E3779B97F4A7C15
_GAMMA_TX = 0xC2B2AE3D27D4EB4F
_GAMMA_CHANNEL = 0x165667B19E3779F9

POLICIES = ("greedy", "rl", "mds", "bound")

# A trial pool holds at most _BLOCK rows; run_experiment cuts a slice per _BLOCK trials
_BLOCK = 1 << 15

CHANNEL_POLICY = 3


class TransmissionCapError(RuntimeError):
    """A run cannot finish within max_tx_per_trial; signals a pathological configuration.

    Every policy needs k receptions at each client, so its mean is at least the
    ideal-code mean k/(1-p). run_experiment refuses a run whose k/(1-p) is above
    the cap before any trial runs, and reports trial 0; otherwise trial_index is
    the lowest trial that ran into the cap.
    """

    def __init__(self, trial_index: int, cap: int, why: str = ""):
        super().__init__(why or f"trial {trial_index} exceeded the {cap}-transmission cap")
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
        for name in ("k", "trials", "master_seed", "max_tx_per_trial"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if not 1 <= self.k <= MAX_DIM:
            raise ValueError(f"k must be in [1, {MAX_DIM}], got {self.k}")
        _check_loss(self.p)
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.policy == "greedy" and self.k > MAX_MASK_DIM:
            raise ValueError(f"greedy selects codewords on 2^k-bit span masks and "
                             f"supports k <= {MAX_MASK_DIM}, got {self.k}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed <= _MASK64:  # the hash reads the seed as 64 bits
            raise ValueError(f"seed must be in [0, 2^64), got {self.master_seed}")
        if not 1 <= self.max_tx_per_trial < 2**31:  # the engines count transmissions in int32
            raise ValueError(f"max_tx_per_trial must be in [1, 2^31 - 1], "
                             f"got {self.max_tx_per_trial}")
        # any truthy value would turn zero draws on; a numpy bool means numpy is loaded
        numpy_bool = getattr(sys.modules.get("numpy"), "bool_", bool)
        if not isinstance(self.rl_include_zero, (bool, numpy_bool)):
            raise ValueError(f"rl_include_zero must be True or False, got {self.rl_include_zero!r}")
        object.__setattr__(self, "rl_include_zero", bool(self.rl_include_zero))


@dataclass
class ExperimentResult:
    """Aggregates over the per-trial transmission counts."""

    mean_tx: float
    stderr: float
    trials: int
    rt: float
    tx_counts: np.ndarray


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def _trial_base(seed: int, trial: int) -> int:
    return _mix64((seed + (trial + 1) * _GAMMA_TRIAL) & _MASK64)


def _tx_base(trial_base: int, tx: int) -> int:
    return _mix64((trial_base + (tx + 1) * _GAMMA_TX) & _MASK64)


def _word(tx_base: int, channel: int) -> int:
    return _mix64((tx_base + (channel + 1) * _GAMMA_CHANNEL) & _MASK64)


def _draw(tx_base: int, channel: int) -> float:
    return (_word(tx_base, channel) >> 11) * 2.0**-53


def _rl_vector(tx_base: int, config: ExperimentConfig) -> int:
    """rl's coding vector: the top k bits of the channel-3 hash word; unless
    zero is allowed, a zero draw is redrawn on channels 4, 5, ... in turn."""
    for channel in count(CHANNEL_POLICY):
        w = _word(tx_base, channel) >> (64 - config.k)
        if w or config.rl_include_zero:
            return w


def run_trial(config: ExperimentConfig, trial_index: int) -> int:
    """One trial, scalar reference path; returns the transmission count."""
    s = 1.0 - config.p
    k = config.k
    cap = config.max_tx_per_trial
    base = _trial_base(config.master_seed, trial_index)

    # held[c] is what client c holds and done[c] its value at full rank: greedy
    # and rl keep fully reduced RREF rows, which are canonical, and mds and
    # bound count receptions. grow(held[c], w) is the state after receiving w.
    if config.policy in ("greedy", "rl"):
        held, done = [(), (), ()], [tuple(1 << j for j in range(k))] * 3

        def grow(rows, w):
            return rref_insert(rows, w) or rows
    else:
        held, done = [0, 0, 0], [k, k, k + 1 if config.policy == "bound" else k]

        def grow(received, w):
            return received + 1
    t = 0
    while held != done:
        if t >= cap:
            raise TransmissionCapError(trial_index, cap)
        h = _tx_base(base, t)
        w = None
        if config.policy == "greedy":
            spans = [span_mask(x, k) for x, y in zip(held, done) if x != y]
            w, _ = _scan_spans(spans, k, "smallest")
        elif config.policy == "rl":
            w = _rl_vector(h, config)
        for c in range(3):
            if held[c] != done[c] and _draw(h, c) < s:
                held[c] = grow(held[c], w)
        t += 1
    return t


_pool_thread = threading.local()  # .nested is True on parallel_map's worker threads


def _thread_count() -> int:
    """Worker threads from XORCAST_THREADS: unset or empty is 1, else an integer >= 1.
    It is 1 on parallel_map's workers, which the outer call already keeps busy."""
    raw = "" if getattr(_pool_thread, "nested", False) else os.environ.get("XORCAST_THREADS", "")
    try:
        threads = int(raw) if raw else 1
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"XORCAST_THREADS must be an integer >= 1, got {raw!r}")
    return threads


def parallel_map(fn, items: list) -> list:
    """[fn(x) for x in items] on up to _thread_count() threads; a worker's exception
    reaches the caller."""
    threads = min(_thread_count(), len(items))
    if threads < 2:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(threads, initializer=setattr,
                            initargs=(_pool_thread, "nested", True)) as pool:
        return list(pool.map(fn, items))


def _sum_sq_dev(tx: np.ndarray, mean: float) -> float:
    """Sum of (tx - mean)^2 as tx.std sums it, bit for bit, with no float64 copy of tx:
    numpy's pairwise sum splits n terms at n // 2 rounded down to a multiple of 8."""
    if len(tx) <= 1 << 16:
        return float(((tx - mean) ** 2).sum())
    half = len(tx) // 2 & ~7
    return _sum_sq_dev(tx[:half], mean) + _sum_sq_dev(tx[half:], mean)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials; bit-identical for a given config regardless of threading."""
    cap, mean = config.max_tx_per_trial, config.k / (1.0 - config.p)
    if mean > cap:
        raise TransmissionCapError(0, cap, f"the ideal-code mean k/(1-p) = {mean:.6g} "
                                           f"transmissions is above the {cap}-transmission cap")
    from . import engines
    n = min(_thread_count(), -(-config.trials // _BLOCK))
    tx = engines.run_slices(config, [(config.trials * i // n, config.trials * (i + 1) // n)
                                     for i in range(n)])
    mean = float(tx.mean())
    stderr = (math.sqrt(_sum_sq_dev(tx, mean) / (config.trials - 1)) / math.sqrt(config.trials)
              if config.trials > 1 else 0.0)
    return ExperimentResult(mean_tx=mean, stderr=stderr, trials=config.trials,
                            rt=mean / config.k, tx_counts=tx)
