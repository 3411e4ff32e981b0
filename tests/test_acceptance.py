"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Tolerances are pinned as stated; a failing criterion reports its offending
points.
"""

import random

from xorcast import bounds, cli, markov, policy, sim

from conftest import random_state, span_of_rows

GRID = [round(0.05 * i, 2) for i in range(1, 19)]  # 0.05 .. 0.90


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_symbolic_conservation():
    bad = []
    for k in (2, 3):
        chain = markov.build_chain(k)
        for i in range(chain.n_states):
            coeffs = markov.row_sum_coeffs(chain, i)
            if coeffs[0] != 1 or any(coeffs[1:]):
                bad.append((k, i, coeffs))
    report(1, not bad,
           f"12x12 and 29x29 row sums identically 1 under p=1-s; violations={bad}")


def test_criterion_02_aggregated_vs_fine():
    violations = []
    worst = 0.0
    for k in (2, 3):
        chain = markov.build_chain(k)
        fine = markov.build_fine_chain(k)
        for p in (0.1, 0.25, 0.5, 0.75):
            diff = abs(markov.expected_absorption_time(chain, p)
                       - markov.absorption_time_fine(fine, p))
            worst = max(worst, diff)
            if diff > 1e-6:
                violations.append(f"k={k} p={p}: diff={diff:.3e}")
    report(2, not violations,
           f"|table - joint-state| <= 1e-6; worst={worst:.3e}; offending: "
           + ("; ".join(violations) if violations else "none"))


def test_criterion_03_markov_vs_simulation():
    failures = []
    zs = []
    for k in (2, 3):
        exact_chain = markov.build_chain(k)
        for p in (0.25, 0.5):
            cfg = sim.ExperimentConfig(k=k, p=p, policy="greedy", trials=100_000,
                                       master_seed=20150907)
            res = sim.run_experiment(cfg)
            exact = markov.expected_absorption_time(exact_chain, p)
            z = abs(res.mean_tx - exact) / res.stderr
            zs.append(f"k={k} p={p}: z={z:.2f}")
            if z > 3.0:
                failures.append(f"k={k} p={p}: mean={res.mean_tx:.6f} exact={exact:.6f} z={z:.2f}")
    report(3, not failures, f"greedy 1e5-trial means within 3 stderr; {', '.join(zs)}")


def test_criterion_04_degenerate_channel():
    bad = []
    for k in (2, 3, 8):
        if k <= 3:
            exact = markov.expected_absorption_time(markov.build_chain(k), 0.0)
            if abs(exact - k) > 1e-12:
                bad.append(f"exact k={k}: {exact}")
        q = bounds.BoundQuery(k=k, p=0.0)
        if bounds.mds_expected(q) != k:
            bad.append(f"mds k={k}: {bounds.mds_expected(q)}")
        if bounds.expected_ell(q) != k + 1:
            bad.append(f"ell k={k}: {bounds.expected_ell(q)}")
    if bounds.expected_delta(0.0) != 1.0:
        bad.append(f"delta: {bounds.expected_delta(0.0)}")
    report(4, not bad, f"p=0 gives E[t_x]=k, MDS=k, E[l]=k+1, E[delta]=1; bad={bad}")


def test_criterion_05_bound_ordering_and_gap():
    # "negligible" is relative: the absolute R_t gap grows like 1/(1-p) with E
    # itself (0.148 at k=2, p=0.9), so the bound is on the excess over MDS
    order_bad = []
    gap_bad = []
    max_gap = max_rel = 0.0
    for k in (2, 3):
        chain = markov.build_chain(k)
        for p in GRID:
            exact = markov.expected_absorption_time(chain, p)
            q = bounds.BoundQuery(k=k, p=p)
            mds = bounds.mds_expected(q)
            ell = bounds.expected_ell(q)
            if not (mds <= exact + 1e-9 and exact <= ell + 1e-9):
                order_bad.append(f"k={k} p={p}")
            gap = (exact - mds) / k
            rel = (exact - mds) / mds
            max_gap = max(max_gap, gap)
            max_rel = max(max_rel, rel)
            if rel > 1e-2:
                gap_bad.append(f"k={k} p={p}: rel={rel:.6f}")
    ok = not order_bad and not gap_bad
    report(5, ok,
           f"mds<=exact<=ell {'holds' if not order_bad else 'violated at ' + str(order_bad)}; "
           f"max (exact-mds)/mds={max_rel:.6f}; max R_t gap={max_gap:.6f}"
           + (f"; relative gap>1e-2 at: {'; '.join(gap_bad)}" if gap_bad else ""))


def test_criterion_06_gap_decreases_with_k():
    chain2, chain3 = markov.build_chain(2), markov.build_chain(3)
    bad = []
    exempt = []
    for p in GRID:
        gap2 = (markov.expected_absorption_time(chain2, p)
                - bounds.mds_expected(bounds.BoundQuery(k=2, p=p))) / 2
        gap3 = (markov.expected_absorption_time(chain3, p)
                - bounds.mds_expected(bounds.BoundQuery(k=3, p=p))) / 3
        if gap3 > gap2:
            entry = f"p={p}: gap3-gap2={gap3 - gap2:.3e}"
            # both gaps below 1e-4 are negligible and their order carries no claim
            if max(gap2, gap3) < 1e-4:
                exempt.append(entry)
            else:
                bad.append(entry)
    report(6, not bad,
           "R_t gap at k=3 <= gap at k=2 per grid point, or both gaps < 1e-4"
           + (f"; violated at: {'; '.join(bad)}" if bad else "")
           + (f"; unordered but negligible at: {'; '.join(exempt)}" if exempt else ""))


def test_criterion_07_lemma_guarantee_random_instances():
    rng = random.Random(0xACCE97)
    checked = 0
    for k in range(3, 9):
        for _ in range(10_000):
            ranks = [k - 1, k - 1, k - 2]
            rng.shuffle(ranks)
            state = random_state(k, ranks, rng)
            w = policy.lemma1_construct(state, k)
            assert all(w not in span_of_rows(rows) for rows in state)
            checked += 1
    report(7, checked == 60_000,
           f"{checked} random (k-1,k-1,k-2) instances all admit an all-client codeword")


def test_criterion_08_counterexample_coverage():
    bad = []
    for k in range(2, 11):
        state = policy.lemma1_counterexample(k)
        spans = [span_of_rows(rows) for rows in state]
        best = max(sum(1 for sp in spans if w not in sp) for w in range(1, 1 << k))
        if best != 2 or [len(rows) for rows in state] != [k - 1] * 3:
            bad.append(f"k={k}: coverage={best}")
    report(8, not bad, f"all-(k-1) counterexample caps coverage at 2 for k=2..10; bad={bad}")


def test_criterion_09_delta_series_consistency():
    worst = 0.0
    out_of_range = []
    for i in range(100):
        p = i / 100
        closed = bounds.expected_delta(p)
        if not 0.0 < closed <= 1.0:
            out_of_range.append(p)
        total, beta = 0.0, 1
        while True:
            term = beta * bounds.p_delta(beta, p)
            total += term
            beta += 1
            if term < 1e-13 and beta > 4:
                break
        worst = max(worst, abs(total - closed))
    ok = worst <= 1e-9 and not out_of_range
    report(9, ok, f"series vs closed form worst diff={worst:.3e}; "
                  f"E[delta] in (0,1] {'holds' if not out_of_range else out_of_range}")


def test_criterion_10_schedule_simulation_matches_ell():
    failures = []
    zs = []
    for p in (0.25, 0.5):
        cfg = sim.ExperimentConfig(k=3, p=p, policy="bound", trials=1_000_000,
                                   master_seed=424242)
        res = sim.run_experiment(cfg)
        ell = bounds.expected_ell(bounds.BoundQuery(k=3, p=p))
        z = abs(res.mean_tx - ell) / res.stderr
        zs.append(f"p={p}: z={z:.2f}")
        if z > 3.0:
            failures.append(f"p={p}: mean={res.mean_tx:.6f} ell={ell:.6f} z={z:.2f}")
    report(10, not failures, f"1e6-trial schedule means within 3 stderr; {', '.join(zs)}")


def test_criterion_11_figure_determinism(tmp_path, monkeypatch):
    args = ["figure", "--which", "fig1a", "--seed", "42", "--trials", "800"]
    paths = [tmp_path / f"fig1a_{i}.csv" for i in range(3)]
    assert cli.main(args + ["--out", str(paths[0])]) == 0
    assert cli.main(args + ["--out", str(paths[1])]) == 0
    monkeypatch.setenv("XORCAST_THREADS", "4")
    assert cli.main(args + ["--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2]
    report(11, ok, f"fig1a CSV byte-identical across reruns and thread counts "
                   f"({len(blobs[0])} bytes)")
