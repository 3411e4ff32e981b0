import hashlib
import threading
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from xorcast import bounds, engines, gf2, markov, sim
from xorcast.sim import ExperimentConfig, TransmissionCapError, run_experiment, run_trial

from conftest import run_measuring_peak


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig(k=0, p=0.1, policy="greedy", trials=1, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(k=2, p=1.0, policy="greedy", trials=1, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(k=2, p=0.1, policy="nope", trials=1, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(k=2, p=0.1, policy="greedy", trials=0, master_seed=0)

    def test_seed_within_64_bits(self):
        # the hash reads the seed as a 64-bit word: outside [0, 2^64) seeds would alias
        for seed in (0, (1 << 64) - 1):
            ExperimentConfig(k=2, p=0.1, policy="rl", trials=1, master_seed=seed)
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match="seed must be in"):
                ExperimentConfig(k=2, p=0.1, policy="rl", trials=1, master_seed=seed)

    # master_seed 1.5 and 1.9 used to alias seed 1 on the vector engines (while
    # run_trial raised TypeError), k = 5.0 and trials = 10.0 failed with a TypeError
    # inside the engines, and k = True ran as k = 1
    @pytest.mark.parametrize("field, value", [
        ("master_seed", 1.5), ("master_seed", 1.9), ("master_seed", 1.0), ("master_seed", "1"),
        ("k", 5.0), ("k", True), ("trials", 10.0), ("trials", True),
        ("max_tx_per_trial", 1000.0), ("max_tx_per_trial", False),
    ])
    def test_non_integers_refused(self, field, value):
        fields = dict(k=3, p=0.5, policy="rl", trials=10, master_seed=1)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig(**fields)

    def test_numpy_integers_taken_as_ints(self):
        # at k = 63, 1 << k on a numpy int64 would overflow
        plain = ExperimentConfig(k=63, p=0.5, policy="rl", trials=20, master_seed=1,
                                 max_tx_per_trial=1000)
        wide = ExperimentConfig(k=np.int64(63), p=0.5, policy="rl", trials=np.int32(20),
                                master_seed=np.uint64(1), max_tx_per_trial=np.int16(1000))
        assert wide == plain
        assert all(type(getattr(wide, name)) is int
                   for name in ("k", "trials", "master_seed", "max_tx_per_trial"))
        assert np.array_equal(run_experiment(wide).tx_counts, run_experiment(plain).tx_counts)

    def test_cap_fits_int32_counts(self):
        ExperimentConfig(k=2, p=0.1, policy="mds", trials=1, master_seed=0,
                         max_tx_per_trial=2**31 - 1)
        with pytest.raises(ValueError, match=r"max_tx_per_trial must be in \[1, 2\^31 - 1\]"):
            ExperimentConfig(k=2, p=0.1, policy="mds", trials=1, master_seed=0,
                             max_tx_per_trial=2**31)

    # a str or None p failed with a bare TypeError, and a Decimal p passed every check,
    # then failed inside run_experiment and mds_expected
    @pytest.mark.parametrize("make", [
        lambda p: ExperimentConfig(k=2, p=p, policy="rl", trials=1, master_seed=0),
        lambda p: bounds.BoundQuery(k=2, p=p),
        lambda p: markov.expected_absorption_time(markov.build_fine_chain(2), p),
    ], ids=["config", "bound_query", "solve"])
    @pytest.mark.parametrize("p, real", [
        ("0.5", False), (None, False), (Decimal("0.5"), False), (True, False),
        (Fraction(1, 2), True), (np.float64(0.5), True), (0, True),
    ])
    def test_loss_probability_must_be_real(self, make, p, real):
        if real:
            make(p)
        else:
            with pytest.raises(ValueError, match="loss probability must be a real number"):
                make(p)

    # a float32 p was kept as float32: the k = 2 and 3 solves then failed their residual
    # check (1.192e-07), and 1 - p was formed in float32 for the reception draws
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7])
    def test_float32_loss_probability_is_its_float(self, p):
        p32 = np.float32(p)
        for chain in (markov.build_chain(2), markov.build_chain(3), markov.build_fine_chain(3)):
            exact = markov.expected_absorption_time(chain, float(p32))
            assert abs(markov.expected_absorption_time(chain, p32) - exact) <= 1e-12 * exact
        assert bounds.BoundQuery(k=5, p=p32).p == float(p32)
        for policy, k in (("greedy", 3), ("greedy", 8), ("rl", 3), ("rl", 12), ("rl", 33),
                          ("mds", 5), ("bound", 5)):
            runs = [run_experiment(ExperimentConfig(k=k, p=q, policy=policy, trials=300,
                                                    master_seed=3)).tx_counts
                    for q in (p32, float(p32))]
            assert np.array_equal(*runs), (policy, k)

    # any truthy value turned zero draws on: "no" ran exactly as True does
    @pytest.mark.parametrize("value", ["no", 1, 0, None, 1.0])
    def test_include_zero_must_be_bool(self, value):
        with pytest.raises(ValueError, match="rl_include_zero must be True or False"):
            ExperimentConfig(k=3, p=0.5, policy="rl", trials=1, master_seed=0,
                             rl_include_zero=value)

    def test_include_zero_takes_numpy_bool(self):
        cfg = ExperimentConfig(k=3, p=0.5, policy="rl", trials=1, master_seed=0,
                               rl_include_zero=np.True_)
        assert cfg.rl_include_zero is True

    def test_greedy_k_limited_to_scan_dimension(self):
        # constructed only: a greedy run at k=20 scans 2^20 codewords per step
        ExperimentConfig(k=20, p=0.1, policy="greedy", trials=1, master_seed=0)
        ExperimentConfig(k=21, p=0.1, policy="rl", trials=1, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(k=21, p=0.1, policy="greedy", trials=1, master_seed=0)


class TestThreadCount:
    @pytest.mark.parametrize("raw, want", [(None, 1), ("", 1), ("1", 1), ("3", 3)])
    def test_valid(self, monkeypatch, raw, want):
        if raw is None:
            monkeypatch.delenv("XORCAST_THREADS", raising=False)
        else:
            monkeypatch.setenv("XORCAST_THREADS", raw)
        assert sim._thread_count() == want

    @pytest.mark.parametrize("raw", ["abc", "-3", "0", "2.5"])
    def test_invalid_raises(self, monkeypatch, raw):
        monkeypatch.setenv("XORCAST_THREADS", raw)
        with pytest.raises(ValueError):
            sim._thread_count()


class TestParallelMap:
    def test_keeps_order(self, monkeypatch):
        monkeypatch.setenv("XORCAST_THREADS", "3")

        def slow_square(x):  # early items finish last
            time.sleep((8 - x) * 0.002)
            return x * x

        assert sim.parallel_map(slow_square, list(range(8))) == [x * x for x in range(8)]

    def test_runs_on_worker_threads(self, monkeypatch):
        monkeypatch.setenv("XORCAST_THREADS", "2")
        for _ in range(2):  # a finished call leaves the caller's thread unmarked
            idents = sim.parallel_map(lambda _: threading.get_ident(), [0, 1, 2])
            assert threading.get_ident() not in idents

    def test_nested_call_runs_serially(self, monkeypatch):
        monkeypatch.setenv("XORCAST_THREADS", "2")

        def outer(_):
            inner = sim.parallel_map(lambda _: threading.get_ident(), [0, 1, 2, 3])
            return threading.get_ident(), inner

        for ident, inner in sim.parallel_map(outer, [0, 1]):
            assert inner == [ident] * 4

    def test_serial_without_threads(self, monkeypatch):
        monkeypatch.delenv("XORCAST_THREADS", raising=False)
        idents = sim.parallel_map(lambda _: threading.get_ident(), [0, 1, 2])
        assert idents == [threading.get_ident()] * 3

    def test_worker_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setenv("XORCAST_THREADS", "2")
        capped = ExperimentConfig(k=3, p=0.9, policy="greedy", trials=10, master_seed=1,
                                  max_tx_per_trial=2)
        ok = ExperimentConfig(k=3, p=0.1, policy="greedy", trials=10, master_seed=1)
        with pytest.raises(TransmissionCapError):
            sim.parallel_map(run_experiment, [ok, capped])


class TestHashStreams:
    def test_scalar_vector_prf_equality(self):
        trials = np.arange(0, 257, dtype=np.uint64)
        for tx in (0, 1, 7, 1023):
            base_v = engines._tx_base_np(engines._trial_base_np(12345, trials), tx)
            for channel in range(5):
                vec = engines._word_np(base_v, channel)
                for t in (0, 1, 100, 256):
                    scalar = sim._word(sim._tx_base(sim._trial_base(12345, t), tx), channel)
                    assert scalar == vec[t]

    def test_uniform_range_and_spread(self):
        trials = np.arange(0, 20000, dtype=np.uint64)
        top = engines._word_np(engines._tx_base_np(engines._trial_base_np(7, trials), 0), 1) >> 11
        assert top.max() < 2**53
        assert abs(top.mean() / 2**53 - 0.5) < 0.01
        assert abs(np.mean(top < 0.25 * 2**53) - 0.25) < 0.01

    # _drive receives where (word >> 11) < (1 - p) * 2^53, run_trial where _draw(h, c) =
    # (word >> 11) * 2^-53 < 1 - p: the same test scaled by a power of two. Checked on
    # random words and on those whose top 53 bits are next to floor((1 - p) * 2^53).
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9, 0.999])
    def test_scaled_threshold_equals_draw(self, monkeypatch, p):
        edge = int((1 - p) * 2**53)
        near = [(edge + d) << 11 | low for d in range(-2, 3) for low in (0, 1, 2047)
                if 0 <= edge + d < 2**53]
        rng = np.random.default_rng(edge)
        words = np.concatenate([np.array(near, dtype=np.uint64),
                                rng.integers(0, 2**64, 5000, dtype=np.uint64, endpoint=False)])
        monkeypatch.setattr(engines, "_word_np", lambda tx_base, channel: words.copy())
        monkeypatch.setattr(sim, "_word", lambda tx_base, channel: tx_base)  # _draw(w, c) of w
        seen = []
        cfg = ExperimentConfig(k=2, p=p, policy="mds", trials=len(words), master_seed=1)
        engines._drive(cfg, 0, np.empty(len(words), dtype=np.int32), lambda n: [np.zeros(n)],
                       lambda h, recv, state: seen.extend(recv) or np.ones(len(h), dtype=bool))
        expected = [sim._draw(int(w), 0) < 1 - p for w in words]
        assert 0 < sum(expected) < len(words) or p == 0.0
        for c in range(3):
            assert seen[c].tolist() == expected


class TestRunTrial:
    def test_greedy_lossless_takes_k(self):
        for k in (2, 3, 5):
            cfg = ExperimentConfig(k=k, p=0.0, policy="greedy", trials=1, master_seed=3)
            assert run_trial(cfg, 0) == k

    def test_mds_lossless(self):
        cfg = ExperimentConfig(k=3, p=0.0, policy="mds", trials=1, master_seed=3)
        assert run_trial(cfg, 0) == 3

    def test_bound_lossless_takes_k_plus_one(self):
        cfg = ExperimentConfig(k=3, p=0.0, policy="bound", trials=1, master_seed=3)
        assert run_trial(cfg, 0) == 4

    def test_rl_at_least_k(self):
        cfg = ExperimentConfig(k=3, p=0.2, policy="rl", trials=1, master_seed=3)
        assert all(run_trial(cfg, i) >= 3 for i in range(50))

    def test_cap_error_carries_trial_index(self):
        cfg = ExperimentConfig(k=3, p=0.9, policy="greedy", trials=1, master_seed=3,
                               max_tx_per_trial=2)
        with pytest.raises(TransmissionCapError) as err:
            run_trial(cfg, 17)
        assert err.value.trial_index == 17


class TestRunExperiment:
    def test_lossless_mean_and_stderr(self):
        cfg = ExperimentConfig(k=2, p=0.0, policy="greedy", trials=100, master_seed=1)
        res = run_experiment(cfg)
        assert res.mean_tx == 2.0
        assert res.stderr == 0.0
        assert res.rt == 1.0
        assert res.tx_counts.tolist() == [2] * 100

    # run_experiment sums squared deviations 2^16 counts at a time, split where numpy's
    # pairwise sum splits (n // 2 rounded down to a multiple of 8); at 65,543, 1,000,003
    # and 4,000,037 counts a plain n // 2 split gives other bits, and so does summing
    # the 2^16-count chunks in a row
    @pytest.mark.parametrize("n", [1, 2, 65_536, 65_537, 65_543, 131_073, 1_000_003, 4_000_037])
    def test_stderr_equals_numpy_std(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        cfg = ExperimentConfig(k=1, p=0.0, policy="mds", trials=n, master_seed=1)
        for spread in (0, 1, 1000, 10**6):
            tx = rng.integers(1, 2 + spread, n, dtype=np.int32)
            monkeypatch.setattr(engines, "run_slices", lambda config, slices: tx)
            res = run_experiment(cfg)
            assert res.mean_tx == tx.mean()
            assert res.stderr == (float(tx.std(ddof=1)) / np.sqrt(n) if n > 1 else 0.0), spread

    def test_bit_identical_rerun(self):
        cfg = ExperimentConfig(k=3, p=0.45, policy="rl", trials=4000, master_seed=77)
        r1, r2 = run_experiment(cfg), run_experiment(cfg)
        assert r1.mean_tx == r2.mean_tx
        assert np.array_equal(r1.tx_counts, r2.tx_counts)

    def test_threading_bit_identical(self, monkeypatch):
        # greedy table, greedy span masks, rl subspace table, rl bases (k = 32 on a
        # pool that refills) and counts; each config runs on one slice of trials
        # serially and on at least two threaded
        slices = []
        serial_map = sim.parallel_map
        monkeypatch.setattr(sim, "parallel_map",
                            lambda fn, items: slices.append(len(items)) or serial_map(fn, items))
        configs = [
            ExperimentConfig(k=2, p=0.5, policy="greedy", trials=100_000, master_seed=5),
            ExperimentConfig(k=8, p=0.5, policy="greedy", trials=sim._BLOCK + 5000, master_seed=5),
            ExperimentConfig(k=3, p=0.5, policy="rl", trials=sim._BLOCK + 5000, master_seed=5),
            ExperimentConfig(k=8, p=0.5, policy="rl", trials=sim._BLOCK + 5000, master_seed=5),
            ExperimentConfig(k=32, p=0.5, policy="rl", trials=sim._BLOCK + 5000, master_seed=5),
            ExperimentConfig(k=32, p=0.5, policy="mds", trials=sim._BLOCK + 5000, master_seed=5),
        ]
        for cfg in configs:
            monkeypatch.delenv("XORCAST_THREADS", raising=False)
            serial = run_experiment(cfg)
            assert slices.pop() == 1
            for threads in ("2", "3"):
                monkeypatch.setenv("XORCAST_THREADS", threads)
                threaded = run_experiment(cfg)
                assert slices.pop() >= 2, (cfg, threads)
                assert np.array_equal(serial.tx_counts, threaded.tx_counts), (cfg, threads)

    # rl on both sides of the subspace-table limit (k <= 4 table, k > 4 bases), and
    # greedy on span masks, on both sides of their limit (the scalar path above it)
    # and at k = 20, the largest greedy accepts
    @pytest.mark.parametrize("policy, k, p, include_zero", [
        pytest.param(policy, 3, 0.4, False, id=policy)
        for policy in ("greedy", "rl", "mds", "bound")
    ] + [
        # 1 - p not dyadic, so (1 - p) * 2^53 is rounded: _drive's scaled threshold must
        # round as run_trial's 1 - p does, on every engine
        pytest.param(policy, k, p, False, id=f"{policy}-k{k}-p{p}")
        for policy, k in (("greedy", 3), ("greedy", 8), ("rl", 3), ("rl", 9), ("rl", 33),
                          ("mds", 3), ("bound", 33))
        for p in (0.1, 0.3, 0.7, 0.9)
    ] + [
        # each side of run_slices' rule for the rl bases, row-first from p = 0.75 on uint32
        # rows and from 0.25 on uint64, dense elsewhere (uint8 and uint16 rows at any p)
        pytest.param("rl", k, p, zero, id=f"rl-k{k}-p{p}-{'zero' if zero else 'nonzero'}")
        for k, p in ((8, 0.95), (16, 0.95), (17, 0.7), (17, 0.75), (32, 0.7), (32, 0.75),
                     (33, 0.2), (33, 0.25), (40, 0.2), (40, 0.25))
        for zero in (False, True)
    ] + [
        pytest.param("greedy", k, p, False, id=f"greedy-k{k}-p{p}")
        for k in (5, 8, 12, engines._MASK_DIM_LIMIT, engines._MASK_DIM_LIMIT + 1)
        for p in (0.0, 0.4, 0.8)
    ] + [
        pytest.param("greedy", sim.MAX_MASK_DIM, 0.4, False, id=f"greedy-k{sim.MAX_MASK_DIM}-p0.4")
    ] + [
        pytest.param("rl", k, p, zero, id=f"rl-k{k}-p{p}-{'zero' if zero else 'nonzero'}")
        for k in (2, 4, 5, 8, 9, 16, 17, 32, 33, 63) for p in (0.0, 0.4, 0.8)
        for zero in (False, True)
    ])
    def test_vectorized_matches_scalar(self, policy, k, p, include_zero):
        trials = 2 if k == sim.MAX_MASK_DIM else 300 if k <= 8 else 100
        cfg = ExperimentConfig(k=k, p=p, policy=policy, trials=trials, master_seed=99,
                               rl_include_zero=include_zero)
        scalar = np.array([run_trial(cfg, i) for i in range(cfg.trials)])
        res = run_experiment(cfg)
        assert np.array_equal(scalar, res.tx_counts)

    def test_mask_engine_greedy_k5(self):
        # just above the joint-state table limit greedy runs on span masks
        cfg = ExperimentConfig(k=5, p=0.3, policy="greedy", trials=60, master_seed=4)
        res = run_experiment(cfg)
        assert np.array_equal(res.tx_counts,
                              np.array([run_trial(cfg, i) for i in range(60)]))
        assert res.mean_tx >= 5.0

    # _drive's pool holds _STATE_BYTES of state: 682 rows of greedy's span masks at
    # k = 12 (3 * 2^k / 8 bytes a trial), 2,709 of rl's bases at k = 32 (a uint32 row
    # per bit and an int8 rank per client), pivot-major at p = 0.25 and row-first at
    # 0.75. The cap is the first pool's largest count, so the first trial over it
    # starts in a refilled row.
    @pytest.mark.parametrize("policy, k, p, trials, seed, trial_bytes", [
        pytest.param("greedy", 12, 0.5, 1000, 2, 3 * (1 << 12) // 8, id="greedy-k12"),
        pytest.param("rl", 32, 0.25, 2800, 7, 3 * 32 * 4 + 3, id="rl-k32"),
        pytest.param("rl", 32, 0.75, 2800, 6, 3 * 32 * 4 + 3, id="rl-k32-row-first"),
    ])
    def test_drive_sub_blocks(self, policy, k, p, trials, seed, trial_bytes):
        sub = engines._STATE_BYTES // trial_bytes
        assert sub < trials
        cfg = ExperimentConfig(k=k, p=p, policy=policy, trials=trials, master_seed=seed)
        scalar = np.array([run_trial(cfg, i) for i in range(trials)])
        assert np.array_equal(run_experiment(cfg).tx_counts, scalar)
        capped = ExperimentConfig(k=k, p=p, policy=policy, trials=trials, master_seed=seed,
                                  max_tx_per_trial=int(scalar[:sub].max()))
        over = np.flatnonzero(scalar > capped.max_tx_per_trial)
        assert over.size and over[0] >= sub
        with pytest.raises(TransmissionCapError) as err:
            run_experiment(capped)
        assert err.value.trial_index == over[0]

    # a pool of 4 rows refills many times on every engine: int8 counts, the greedy
    # table, span masks, the rl table, and rl bases in uint16 rows (pivot-major, trial
    # on the last axis) and in uint64 rows (row-first). The
    # cap is the first pool's largest count, so the first trial over it is a
    # refilled one, in a row that is not the pool's first.
    @pytest.mark.parametrize("policy, k, p, seed, row_bytes", [
        pytest.param("mds", 3, 0.5, 1, 3, id="counts"),
        pytest.param("greedy", 3, 0.5, 2, 8, id="greedy-table"),
        pytest.param("greedy", 5, 0.5, 4, 3 * 8, id="span-masks"),
        pytest.param("rl", 3, 0.5, 3, 3 * 8, id="rl-table"),
        pytest.param("rl", 9, 0.4, 5, 3 * 9 * 2 + 3, id="rl-basis-k9"),
        pytest.param("rl", 33, 0.4, 2, 3 * 33 * 8 + 3, id="rl-basis-k33"),
    ])
    def test_drive_refills_pool(self, monkeypatch, policy, k, p, seed, row_bytes):
        rows, trials = 4, 80
        monkeypatch.setattr(engines, "_STATE_BYTES", rows * row_bytes)
        cfg = ExperimentConfig(k=k, p=p, policy=policy, trials=trials, master_seed=seed)
        scalar = np.array([run_trial(cfg, i) for i in range(trials)])
        assert np.array_equal(run_experiment(cfg).tx_counts, scalar)
        capped = ExperimentConfig(k=k, p=p, policy=policy, trials=trials, master_seed=seed,
                                  max_tx_per_trial=int(scalar[:rows].max()))
        over = np.flatnonzero(scalar > capped.max_tx_per_trial)
        assert over.size and over[0] >= rows
        with pytest.raises(TransmissionCapError) as err:
            run_experiment(capped)
        assert err.value.trial_index == over[0]

    # the counts engine's int8 need stops at 0: client 0 receives every transmission
    # and client 1 only from transmission 250 on, so client 0 receives 250 times after
    # its need reached 0, and a plain int8 count would have wrapped past -128
    def test_counts_stop_at_zero(self, monkeypatch):
        steps = []

        def word(tx_base, channel):  # 0 always receives, all ones never at p = 0.5
            steps.append(channel)
            late = channel == 1 and steps.count(0) <= 250
            return np.full(len(tx_base), (1 << 64) - 1 if late else 0, dtype=np.uint64)

        monkeypatch.setattr(engines, "_word_np", word)
        for policy in ("mds", "bound"):
            steps.clear()
            cfg = ExperimentConfig(k=2, p=0.5, policy=policy, trials=1, master_seed=0)
            # client 1 receives at transmissions 250 and 251 (0-based) and is last
            assert run_experiment(cfg).tx_counts.tolist() == [252]

    # every slice thread needs the k = 4 table; the first builds it and the others
    # wait, where each used to miss the cache and build it. The counted calls sleep,
    # so that a second build would overlap the first. Three threads run one slice of
    # 70,000 trials each, more threads than a 2-core machine has cores.
    @pytest.mark.parametrize("threads", ["2", "3"])
    @pytest.mark.parametrize("policy", ["greedy", "rl"])
    def test_table_built_once_on_two_threads(self, monkeypatch, policy, threads):
        builds = []
        if policy == "greedy":  # a fine chain build reads the subspace table once
            markov._fine_chain.cache_clear()
            monkeypatch.setattr(markov, "subspace_table", lambda k, real=markov.subspace_table:
                                builds.append(k) or time.sleep(0.05) or real(k))
        else:  # a subspace table build takes the span mask of each of its 67 spans
            gf2.subspace_table.cache_clear()
            monkeypatch.setattr(gf2, "span_mask", lambda rows, k, real=gf2.span_mask:
                                builds.append(k) or time.sleep(0.001) or real(rows, k))
        monkeypatch.setenv("XORCAST_THREADS", threads)
        cfg = ExperimentConfig(k=4, p=0.5, policy=policy, trials=70_000, master_seed=1)
        run_experiment(cfg)
        assert len(builds) == (1 if policy == "greedy" else len(gf2.subspace_table(4)[0]))

    @pytest.mark.parametrize("k, p, dense", [
        (5, 0.99, True), (16, 0.99, True), (17, 0.7, True), (17, 0.75, False),
        (32, 0.7, True), (32, 0.75, False), (33, 0.2, True), (33, 0.25, False),
        (63, 0.0, True), (63, 0.99, False),
    ])
    def test_rl_basis_step_selection(self, monkeypatch, k, p, dense):
        picked = []
        for name in ("_rl_dense_block", "_rl_basis_block"):
            monkeypatch.setattr(engines, name, lambda config, lo, out, name=name: picked.append(name))
        cfg = ExperimentConfig(k=k, p=p, policy="rl", trials=1, master_seed=0)
        engines.run_slices(cfg, [(0, 1)])
        assert picked == ["_rl_dense_block" if dense else "_rl_basis_block"]

    def test_cap_below_ideal_mean_refused_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(engines, "_drive", lambda *args: pytest.fail("a trial ran"))
        for policy in sim.POLICIES:
            cfg = ExperimentConfig(k=4, p=0.5, policy=policy, trials=10, master_seed=1,
                                   max_tx_per_trial=7)
            with pytest.raises(TransmissionCapError, match="ideal-code mean") as err:
                run_experiment(cfg)
            assert err.value.trial_index == 0

    def test_histogram_totals(self):
        cfg = ExperimentConfig(k=2, p=0.5, policy="mds", trials=5000, master_seed=12)
        hist = np.bincount(run_experiment(cfg).tx_counts)
        assert hist.sum() == 5000
        assert not hist[:2].any()

    def test_cap_error_propagates(self):
        # the reported trial is the lowest one that needs more than the cap,
        # as run_trial finds it: finished trials leave the working arrays, but
        # the rest keep their order
        configs = [
            ExperimentConfig(k=3, p=0.8, policy="greedy", trials=50, master_seed=1,
                             max_tx_per_trial=2),
            ExperimentConfig(k=3, p=0.5, policy="greedy", trials=400, master_seed=1,
                             max_tx_per_trial=12),
            ExperimentConfig(k=3, p=0.5, policy="rl", trials=400, master_seed=1,
                             max_tx_per_trial=21),
            ExperimentConfig(k=8, p=0.5, policy="greedy", trials=400, master_seed=1,
                             max_tx_per_trial=30),
            ExperimentConfig(k=8, p=0.5, policy="rl", trials=400, master_seed=1,
                             max_tx_per_trial=43),
            ExperimentConfig(k=5, p=0.5, policy="mds", trials=400, master_seed=1,
                             max_tx_per_trial=21),
            ExperimentConfig(k=5, p=0.5, policy="bound", trials=400, master_seed=1,
                             max_tx_per_trial=23),
        ]
        for cfg in configs:
            expected = None
            for i in range(cfg.trials):
                try:
                    run_trial(cfg, i)
                except TransmissionCapError:
                    expected = i
                    break
            assert expected is not None
            with pytest.raises(TransmissionCapError) as err:
                run_experiment(cfg)
            assert err.value.trial_index == expected, cfg


class TestScalarGreedyPinned:
    # SHA-256 of the little-endian int64 tx_counts at p = 0.5, pinned from a
    # scalar path that scanned all 2^k - 1 codewords against frozenset spans
    PINNED = {
        (5, 400, 1): "00ad38c3687a70bdfc5c4e9e782d1c7e01319b9d17af3a6fd8cf40525d15eab3",
        (8, 150, 2): "b141824e9d0eb80342a10a6e82997d83393208aa02dabf98d85c94bf122e4883",
        (12, 30, 3): "034b5a51e7446cdbf15840e65c477939dee2777cb586536514a22a8393858967",
    }

    @pytest.mark.parametrize("k, trials, seed", sorted(PINNED))
    def test_tx_counts_bit_identical(self, k, trials, seed):
        cfg = ExperimentConfig(k=k, p=0.5, policy="greedy", trials=trials, master_seed=seed)
        tx = run_experiment(cfg).tx_counts
        digest = hashlib.sha256(tx.astype("<i8").tobytes()).hexdigest()
        assert digest == self.PINNED[k, trials, seed]


class TestRlBasisPinned:
    # SHA-256 of the little-endian int64 tx_counts of rl at p = 0.4, seed k, on
    # both sides of each row dtype boundary (8/9, 16/17, 32/33 bits), pinned
    # from bases kept as three uint64 arrays; None trials is _BLOCK + 5000, more
    # than one pool holds, so rows refill
    PINNED = {
        (5, 2000, False): "74d99fceeffe1a3b40a8f9c0fe4b22d4fecad5c69083fdd0076db14a68cc08e8",
        (5, 2000, True): "1466e865fe2a36ccf36d710f33d765c2f3af832587ac175be45bbeccd9faf547",
        (8, 2000, False): "df0f218e49973322bd4a711671976543f9bf536f1adb6cfedd7dcfe2643b82c9",
        (8, 2000, True): "02ca267fbb2252bc3203b12d75519fc06e647b86bf9b576c4848dc6a4d9d40fb",
        (9, None, False): "280a1ff2b8c0ea3e9a51f57d12356049247be106ed490f2cadceae4c1e30f8cd",
        (9, None, True): "ceaf76fc949e0da7595c48821b9ab0176e75f5f2cd7f3943ca8985101d1c360d",
        (16, 1000, False): "b36e35b7c8257faa22fa08b5fc7320631770b7f0137e86fee38019145a2556ea",
        (16, 1000, True): "f39a409d4cb816e9c8ca0b2465aeb841e3e96e4400f0cc27723c6d97fe2c8460",
        (17, None, False): "37d5bfe22000fdbeb8e6298c7fb375948c46076eb4e199dad09014bf8e43876f",
        (17, 1000, True): "4ce1ab37ddb6b6fae2fab7fefe1b54c2d5a65eb810db4253e23358a1c510a42f",
        (32, 1000, False): "c533ecc9532782a5e4e95c9872df53270b49938fd6e3afd969bca64e094efa12",
        (32, 1000, True): "c533ecc9532782a5e4e95c9872df53270b49938fd6e3afd969bca64e094efa12",
        (33, 600, False): "77e694e036891e6509b269e176539a1f2dd42046d1dab90ca454d28f1891dc3d",
        (33, 600, True): "77e694e036891e6509b269e176539a1f2dd42046d1dab90ca454d28f1891dc3d",
        (63, 300, False): "ad1a40934856f9ecfded69a9fdac0f57673fdccb68793476c6f19056293bbb36",
        (63, 300, True): "ad1a40934856f9ecfded69a9fdac0f57673fdccb68793476c6f19056293bbb36",
    }

    @pytest.mark.parametrize("k, trials, include_zero", list(PINNED))
    def test_tx_counts_bit_identical(self, k, trials, include_zero):
        cfg = ExperimentConfig(k=k, p=0.4, policy="rl", trials=trials or sim._BLOCK + 5000,
                               master_seed=k, rl_include_zero=include_zero)
        tx = run_experiment(cfg).tx_counts
        digest = hashlib.sha256(tx.astype("<i8").tobytes()).hexdigest()
        assert digest == self.PINNED[k, trials, include_zero]


class TestDriveMemory:
    # _drive's pool holds _STATE_BYTES of state, so many trials peak within a few MB
    # of one pool's worth. Span masks at greedy's largest mask k hold 3 * 2^k / 8
    # bytes a trial, 12 KB at k = 15: 2,000 trials held at once would be 24 MB before
    # the step's temporaries, and lossless channels, which grow every row each step,
    # make the largest temporaries. rl bases at k = 32 hold 387 bytes a trial, and
    # _BLOCK + 5000 trials peaked near 72 MB as three uint64 arrays compacted into
    # fresh copies and near 47 MB as one uint32 array compacted in place. At p = 0.5
    # they run pivot-major, whose step temporaries are as large as the bases, and at
    # 0.75 row-first; each peaks within 0.5 MB of its sub-block run.
    @pytest.mark.parametrize("policy, k, p, trial_bytes, many", [
        pytest.param("greedy", engines._MASK_DIM_LIMIT, 0.0,
                     3 * (1 << engines._MASK_DIM_LIMIT) // 8, 2000, id="greedy-k15"),
        pytest.param("rl", 32, 0.5, 3 * 32 * 4 + 3, sim._BLOCK + 5000, id="rl-k32"),
        pytest.param("rl", 32, 0.75, 3 * 32 * 4 + 3, sim._BLOCK + 5000, id="rl-k32-row-first"),
    ])
    def test_peak_bounded_by_sub_block(self, policy, k, p, trial_bytes, many):
        run = ("from xorcast import sim\n"
               "print(sim.run_experiment(sim.ExperimentConfig(\n"
               f"    k={k}, p={p}, policy={policy!r}, trials={{}}, master_seed=1)).mean_tx)")
        (sub_mean,), sub_mb = run_measuring_peak(run.format(engines._STATE_BYTES // trial_bytes))
        (many_mean,), many_mb = run_measuring_peak(run.format(many))
        assert min(float(sub_mean), float(many_mean)) >= k / (1 - p)
        assert many_mb < sub_mb + 5

    # run_experiment holds 4 bytes a trial: one int32 count array that every slice
    # fills in place, and a stderr summed 2^16 counts at a time. The smaller run fills
    # one whole pool, so the pool's step temporaries (about 3 MB over a 1,000-trial
    # run) count on both sides: 2,000,000 trials peak 8.7 MB above it, and int64
    # counts with tx.std's float64 copy, 16 bytes a trial, peaked 28 MB above it.
    def test_counts_take_four_bytes_a_trial(self):
        run = ("from xorcast import sim\n"
               "tx = sim.run_experiment(sim.ExperimentConfig(\n"
               "    k=2, p=0.0, policy='mds', trials={}, master_seed=1)).tx_counts\n"
               "print(tx.dtype, tx.min(), tx.max())")
        pool, pool_mb = run_measuring_peak(run.format(sim._BLOCK))
        many, many_mb = run_measuring_peak(run.format(2_000_000))
        assert pool == many == ["int32", "2", "2"]
        assert many_mb < pool_mb + 12


class TestRlDraws:
    # rl draws the top k bits of a hash word; scaling a 53-bit float by 2^k - 1
    # fixed the low bits at k >= 54, and k = 56 runs never reached full rank
    def test_k60_completes_and_matches_scalar(self):
        cfg = ExperimentConfig(k=60, p=0.3, policy="rl", trials=40, master_seed=8,
                               max_tx_per_trial=1000)
        res = run_experiment(cfg)
        assert np.array_equal(res.tx_counts, [run_trial(cfg, i) for i in range(cfg.trials)])
        assert res.tx_counts.min() >= 60

    @pytest.mark.parametrize("include_zero", [False, True])
    def test_k60_low_bits_uniform(self, include_zero):
        cfg = ExperimentConfig(k=60, p=0.5, policy="rl", trials=1, master_seed=1,
                               rl_include_zero=include_zero)
        h = engines._tx_base_np(engines._trial_base_np(1, np.arange(8000, dtype=np.uint64)), 0)
        w = engines._rl_vectors(h, cfg, np.uint64)
        assert [sim._rl_vector(int(x), cfg) for x in h[:500]] == w[:500].tolist()
        # 1000 expected per pattern; 150 is five binomial standard deviations
        counts = np.bincount((w & np.uint64(7)).astype(np.intp), minlength=8)
        assert np.all(np.abs(counts - 1000) < 150), counts

    @pytest.mark.parametrize("k", [1, 2])
    def test_zero_redrawn_at_small_k(self, k):
        cfg = ExperimentConfig(k=k, p=0.5, policy="rl", trials=1, master_seed=1)
        h = engines._tx_base_np(engines._trial_base_np(1, np.arange(4000, dtype=np.uint64)), 0)
        w = engines._rl_vectors(h, cfg, np.intp)
        assert w.min() >= 1 and w.max() < 1 << k
        assert [sim._rl_vector(int(x), cfg) for x in h] == w.tolist()


class TestSubspaceTable:
    @pytest.mark.parametrize("k, subspaces", [(1, 2), (2, 5), (3, 16), (4, 67)])
    def test_counts_and_absorption(self, k, subspaces):
        bases, _, nxt = gf2.subspace_table(k)
        nxt, full = np.array(nxt), len(bases) - 1
        assert nxt.shape == (subspaces, 1 << k)
        # the zero vector changes no span; the whole space absorbs every vector
        assert np.array_equal(nxt[:, 0], np.arange(subspaces))
        assert np.all(nxt[full] == full)


class TestPolicyOrdering:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75])
    def test_mds_greedy_rl_ordering(self, k, p):
        # common random numbers: reception draws depend only on
        # (seed, trial, transmission, client), not on the policy
        trials, seed = 3000, 1234
        res = {
            pol: run_experiment(ExperimentConfig(k=k, p=p, policy=pol, trials=trials,
                                                 master_seed=seed))
            for pol in ("mds", "greedy", "rl")
        }
        # per-trial: an always-innovative code finishes no later than greedy
        assert np.all(res["mds"].tx_counts <= res["greedy"].tx_counts)
        assert res["greedy"].mean_tx <= res["rl"].mean_tx

    def test_rl_strictly_worse_than_greedy(self):
        seed, trials = 5, 20_000
        rl = run_experiment(ExperimentConfig(k=3, p=0.25, policy="rl", trials=trials,
                                             master_seed=seed))
        greedy = run_experiment(ExperimentConfig(k=3, p=0.25, policy="greedy",
                                                 trials=trials, master_seed=seed))
        assert rl.mean_tx > greedy.mean_tx

    def test_rl_zero_vector_variant_wastes_more(self):
        base = ExperimentConfig(k=2, p=0.3, policy="rl", trials=20_000, master_seed=9)
        with_zero = ExperimentConfig(k=2, p=0.3, policy="rl", trials=20_000,
                                     master_seed=9, rl_include_zero=True)
        assert run_experiment(with_zero).mean_tx > run_experiment(base).mean_tx


class TestPathwise:
    """Each client's receptions fall at the same transmissions under every policy at one
    seed, and every policy needs k of them, so mds is a floor trial by trial, on every
    engine: greedy on the table (k = 3), span masks (k = 8) and run_trial (k = 16), rl
    on the subspace table (k = 3) and bases (k = 8, 33), and the counts engine."""

    SEED = 11

    @staticmethod
    def counts(policy, k, p, trials):
        config = ExperimentConfig(k=k, p=p, policy=policy, trials=trials,
                                  master_seed=TestPathwise.SEED)
        return run_experiment(config).tx_counts

    @pytest.mark.parametrize("p", [0.25, 0.8])
    @pytest.mark.parametrize("policy, k, trials", [
        ("greedy", 3, 2000), ("greedy", 8, 2000), ("greedy", 16, 20),
        ("rl", 3, 2000), ("rl", 8, 2000), ("rl", 33, 300), ("bound", 3, 2000),
    ])
    def test_no_trial_beats_mds(self, policy, k, p, trials):
        excess = self.counts(policy, k, p, trials) - self.counts("mds", k, p, trials)
        assert excess.min() >= 0

    # without losses the three spans stay equal, so every greedy codeword is innovative
    @pytest.mark.parametrize("k, trials", [(3, 2000), (8, 2000), (16, 20)])
    def test_lossless_greedy_is_mds(self, k, trials):
        assert np.all(self.counts("greedy", k, 0.0, trials) == k)
        assert np.all(self.counts("mds", k, 0.0, trials) == k)


class TestAgainstExactValues:
    def test_greedy_matches_chain_k2(self):
        cfg = ExperimentConfig(k=2, p=0.5, policy="greedy", trials=20_000, master_seed=42)
        res = run_experiment(cfg)
        exact = markov.expected_absorption_time(markov.build_chain(2), 0.5)
        assert abs(res.mean_tx - exact) <= 3 * res.stderr

    def test_mds_matches_closed_form(self):
        cfg = ExperimentConfig(k=2, p=0.25, policy="mds", trials=20_000, master_seed=43)
        res = run_experiment(cfg)
        exact = bounds.mds_expected(bounds.BoundQuery(k=2, p=0.25))
        assert abs(res.mean_tx - exact) <= 3 * res.stderr

    def test_bound_matches_ell(self):
        cfg = ExperimentConfig(k=3, p=0.25, policy="bound", trials=20_000, master_seed=44)
        res = run_experiment(cfg)
        exact = bounds.expected_ell(bounds.BoundQuery(k=3, p=0.25))
        assert abs(res.mean_tx - exact) <= 3 * res.stderr
