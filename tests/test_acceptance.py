"""End-to-end acceptance gate.

Each test pins one externally stated guarantee of the package at its
stated tolerance; frozen expectations are recomputed here by routes
independent of the implementation under test (closed forms, explicit
witnesses, off-the-shelf solvers, exhaustive enumeration).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.stats

from gamebox import bounds, diqkd, dpt, games
from gamebox.errors import BudgetExceededError

# ---------------------------------------------------------------------------
# 1. exact and variational game values
# ---------------------------------------------------------------------------


def test_exact_game_values_with_time_budget():
    start = time.monotonic()

    ms = games.magic_square()
    value = games.classical_value(ms).value
    assert abs(value * 9 - 8) < 9e-12  # rational-safe: compare 9v against 8
    assert abs(value - 8 / 9) < 1e-12

    strat = games.canonical_ms_strategy()
    assert games.evaluate_quantum_strategy(ms, strat) >= 1.0 - 1e-9

    assert games.classical_value(games.chsh()).value == pytest.approx(0.75, abs=1e-12)

    seesaw = games.seesaw(games.chsh(), (2, 2), restarts=5, seed=0)
    assert seesaw.value >= 0.8535
    assert seesaw.value <= math.cos(math.pi / 8) ** 2 + 1e-6

    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 2. partition-bound sandwich on the magic square
# ---------------------------------------------------------------------------


def test_partition_bound_sandwich_with_time_budget():
    start = time.monotonic()
    game = games.magic_square()
    for eps in (0.0, 0.1):
        for variant in bounds.VARIANTS:
            ns = bounds.eff_ns(game, eps, variant)
            local = bounds.eff_local(game, eps, variant)
            assert ns.eff <= local.eff + 1e-6, (variant, eps)
    assert bounds.eff_ns(game, 0.0, "average").eff == pytest.approx(1.0, abs=1e-6)
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 3. no-signalling cap on the input-guessing extension
# ---------------------------------------------------------------------------


def test_mse_no_signalling_cap():
    assert bounds.ns_game_value(games.mse()) <= 1 / 9 + 1e-6


# ---------------------------------------------------------------------------
# 4. discrepancy lower bound against the local partition bound
# ---------------------------------------------------------------------------


def test_discrepancy_lower_bounds_local_efficiency():
    rng = np.random.default_rng(41)
    cases = [(np.array([[0, 0], [0, 1]]), np.full((2, 2), 0.25))]
    while len(cases) < 21:
        f = rng.integers(0, 2, size=(2, 2))
        p = rng.dirichlet(np.ones(4)).reshape(2, 2)
        cases.append((f, p))
    for f, p in cases:
        for eps in (0.0, 0.1):
            chk = bounds.check_thm2(f, p, eps)
            alpha = (1 + 2 * eps) / (1 - 2 * eps)
            assert chk.alpha == pytest.approx(alpha, abs=1e-12)
            lower = (1 - 2 * eps) * bounds.gamma2_alpha(np.where(np.asarray(f) != 0, -1.0, 1.0), p, alpha).value
            assert lower == pytest.approx(chk.lower, abs=1e-9)
            assert lower <= bounds.eff_local(bounds.xor_game(f, p), eps, "average").eff + 1e-6
            assert chk.holds


# ---------------------------------------------------------------------------
# 6. classical substate inequality
# ---------------------------------------------------------------------------


def test_classical_substate_bound_with_time_budget():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    for i in range(100):
        k = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        q = (q + 0.02) / (1.0 + 0.02 * k)  # bounded below: finite divergence
        D = float(scipy.stats.entropy(p, q, base=2))
        for eps in (0.1, 0.3, 0.5):
            smoothed = dpt.smoothed_dmax_classical(p, q, eps)
            cap = (4 * D + 1) / eps**2 + math.log2(1 / (1 - eps**2 / 4))
            assert smoothed <= cap, (i, eps)
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 7. substate perturbation feasibility
# ---------------------------------------------------------------------------


def test_substate_perturbation_always_feasible_on_valid_inputs():
    rng = np.random.default_rng(707)
    feasible = 0
    for _ in range(100):
        ny, nz = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        table = rng.dirichlet(np.ones(ny * nz)).reshape(ny, nz)
        psi = table.sum(axis=1)
        sigma_B = table.sum(axis=0)
        ratio = table / np.outer(psi, sigma_B)
        c = math.log2(max(float(ratio.max()), 1.0)) + 0.05
        mix = float(rng.uniform(0.0, 0.1))
        rho = (1 - mix) * sigma_B + mix / nz
        delta1 = math.sqrt(max(0.0, 1.0 - float(np.sqrt(sigma_B * rho).sum()) ** 2)) + 1e-9
        report = dpt.substate_perturbation_check_classical(
            table, psi, rho, c=c, eps=float(rng.uniform(0.0, 0.2)),
            delta0=float(rng.uniform(0.1, 0.5)), delta1=delta1,
        )
        feasible += report.status == "feasible"
    assert feasible == 100


# ---------------------------------------------------------------------------
# 8. sampling-tail Monte Carlo at the worst threshold pattern
# ---------------------------------------------------------------------------


def test_serfling_tail_worst_threshold_pattern():
    n, gamma, eps, trials = 100, 0.2, 0.2, 10**5
    bound = 2.0 ** (-2 * eps**2 * gamma * n)
    # the whole string is "bad" only below 60 good rounds; push right up
    # against that edge, where fooling the sampled subset is easiest
    worst = 0.0
    for good in (40, 50, 55, 58, 59):
        pattern = np.concatenate([np.ones(good), np.zeros(n - good)])
        out = diqkd.serfling_mc(n, gamma, eps, pattern, trials=trials, seed=808)
        p_hat = out["empirical"]
        assert p_hat <= bound + 3 * math.sqrt(p_hat * (1 - p_hat) / trials), good
        worst = max(worst, p_hat)
    assert worst > 0.0  # the search actually found fooling events


# ---------------------------------------------------------------------------
# 9. honest protocol statistics
# ---------------------------------------------------------------------------


def test_honest_protocol_noiseless_and_noisy_statistics():
    # noiseless: no aborts, identical keys, one thousand times
    params0 = diqkd.ProtocolParams(n=200, alpha=0.5, gamma=0.5, delta=0.0, seed=909)
    for r in range(1000):
        rec = diqkd.run_protocol(params0, diqkd.honest_boxes(0.0, [909, r]), run_index=r)
        assert not rec.aborted
        np.testing.assert_array_equal(rec.K_A, rec.K_B)

    # noisy: abort frequency within the stated tail bound, QBER near delta
    delta, runs = 0.05, 400
    params = diqkd.ProtocolParams(n=2000, alpha=0.5, gamma=0.2, delta=delta, seed=910)
    t = params.t_size
    assert params.gamma * params.alpha * params.n >= 200
    aborts, qbers = 0, []
    for r in range(runs):
        rec = diqkd.run_protocol(params, diqkd.honest_boxes(delta, [910, r]), run_index=r)
        aborts += int(rec.aborted)
        if not rec.aborted:
            qbers.append(rec.qber)
    freq = aborts / runs
    tail = 2.0 ** (-2 * delta**2 * params.gamma * params.alpha * params.n)
    assert freq <= tail + 3 * math.sqrt(max(freq * (1 - freq), 1e-12) / runs)

    qber_mean = float(np.mean(qbers))
    sem = float(np.std(qbers, ddof=1)) / math.sqrt(len(qbers))
    assert abs(qber_mean - delta) <= 3 * max(sem, math.sqrt(delta * (1 - delta) / t / len(qbers)))


def test_honest_protocol_statistics_in_batches():
    # the same guarantees over batches of whole runs (run_batch)
    for n, runs in ((200, 1000), (5000, 50)):
        params0 = diqkd.ProtocolParams(n=n, alpha=0.5, gamma=0.5, delta=0.0, seed=909)
        batch = diqkd.run_batch(params0, diqkd.honest_boxes(0.0, [909, n]), runs)
        assert not batch.aborted.any()
        assert batch.keys_equal.all()  # K_A == K_B in every run
        assert (batch.mismatch_S == 0.0).all()

    delta, runs = 0.05, 400
    params = diqkd.ProtocolParams(n=2000, alpha=0.5, gamma=0.2, delta=delta, seed=910)
    t = params.t_size
    batch = diqkd.run_batch(params, diqkd.honest_boxes(delta, [910, 1]), runs)
    freq = float(batch.aborted.mean())
    tail = 2.0 ** (-2 * delta**2 * params.gamma * params.alpha * params.n)
    assert freq <= tail + 3 * math.sqrt(max(freq * (1 - freq), 1e-12) / runs)
    qbers = batch.qber[~batch.aborted]
    sem = float(np.std(qbers, ddof=1)) / math.sqrt(qbers.size)
    assert abs(float(qbers.mean()) - delta) <= 3 * max(sem, math.sqrt(delta * (1 - delta) / t / qbers.size))

    # the deterministic local cheater agrees in 2/3 of the probed cells,
    # far below the 0.9 threshold: caught in every run
    cheat = diqkd.run_batch(params, diqkd.baseline_cheating_boxes(), 200)
    assert cheat.aborted.all()
    assert not cheat.keys_equal.any()

    class LeakingBoxes(diqkd.BoxPair):
        def produce(self, xs, ys, channel):
            channel.send("bob_box", "alice_box", 2, "00")
            raise AssertionError("the send above must exceed the zero budget")

    with pytest.raises(BudgetExceededError):
        diqkd.run_batch(params, LeakingBoxes(), 10)


# ---------------------------------------------------------------------------
# 10. key-rate formula against independent arithmetic
# ---------------------------------------------------------------------------


def _h2(x):
    return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def _rate_by_hand(alpha, gamma, delta, c, n, nu, beta, PrE):
    return alpha * (nu - beta * (math.sqrt(c) + math.sqrt(alpha)) - 2 * _h2(4 * delta) - gamma) * n - math.log2(1 / PrE)


def test_key_rate_formula_grid():
    rng = np.random.default_rng(10)
    for _ in range(10):
        alpha = float(rng.uniform(0.01, 1.0))
        gamma = float(rng.uniform(0.0, 0.5))
        delta = float(rng.uniform(0.0, 0.125))
        c = float(rng.uniform(0.0, 0.5))
        n = int(rng.integers(10, 10**6))
        nu = float(rng.uniform(0.0, 1.0))
        beta = float(rng.uniform(0.0, 2.0))
        PrE = float(rng.uniform(0.1, 1.0))
        got = diqkd.key_rate(
            diqkd.KeyRateParams(alpha=alpha, gamma=gamma, delta=delta, c=c, n=n, nu=nu, beta=beta, PrE=PrE)
        )["hmin_minus_h0_bits"]
        expect = _rate_by_hand(alpha, gamma, delta, c, n, nu, beta, PrE)
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-9)

    # strictly decreasing in per-copy communication and in the test fraction
    base = dict(alpha=0.3, gamma=0.05, delta=0.01, n=10**5, nu=0.5, beta=0.8, PrE=1.0)
    rates_c = [
        diqkd.key_rate(diqkd.KeyRateParams(c=c, **base))["hmin_minus_h0_bits"]
        for c in (0.0, 0.01, 0.05, 0.2)
    ]
    assert all(a > b for a, b in zip(rates_c, rates_c[1:]))
    base_g = dict(alpha=0.3, delta=0.01, c=0.01, n=10**5, nu=0.5, beta=0.8, PrE=1.0)
    rates_g = [
        diqkd.key_rate(diqkd.KeyRateParams(gamma=g, **base_g))["hmin_minus_h0_bits"]
        for g in (0.0, 0.05, 0.1, 0.3)
    ]
    assert all(a > b for a, b in zip(rates_g, rates_g[1:]))

    # the delta dependence is exactly a -2 alpha n h2(4 delta) shift
    base_d = dict(alpha=0.3, gamma=0.05, c=0.01, n=10**5, nu=0.5, beta=0.8, PrE=1.0)
    shifted = [
        diqkd.key_rate(diqkd.KeyRateParams(delta=d, **base_d))["hmin_minus_h0_bits"]
        + 2 * 0.3 * 10**5 * _h2(4 * d)
        for d in (0.0, 0.01, 0.05, 0.1, 0.125)
    ]
    for v in shifted[1:]:
        assert v == pytest.approx(shifted[0], rel=1e-9)

    # a positive-rate operating point exists at the stated noise/leakage
    out = diqkd.key_rate(
        diqkd.KeyRateParams(alpha=0.04, gamma=0.01, delta=0.001, c=0.001, n=10**6, nu=0.3, beta=0.5, PrE=1.0)
    )
    assert out["rate_per_copy"] > 0


# ---------------------------------------------------------------------------
# 11. repetition probe targets
# ---------------------------------------------------------------------------


def test_repetition_probe_targets():
    ms = games.magic_square()
    with_comm = dpt.empirical_repeated_value(dpt.RepetitionProbe(ms, n=1, comm_bits=2))
    assert with_comm.kind == "exhaustive"
    assert with_comm.best_value == pytest.approx(1.0, abs=1e-12)

    two_copies = dpt.empirical_repeated_value(dpt.RepetitionProbe(ms, n=2, comm_bits=0, seed=0))
    assert two_copies.best_value >= (8 / 9) ** 2 - 1e-12


# ---------------------------------------------------------------------------
# 12. command-line determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("game", "value", "--builtin", "chsh", "--method", "seesaw", "--restarts", "2", "--seed", "7"),
        ("diqkd", "run", "--n", "150", "--alpha", "0.5", "--gamma", "0.3", "--delta", "0.05",
         "--runs", "5", "--seed", "13"),
        ("diqkd", "sweep", "--n", "100", "--alpha", "0.5", "--gamma", "0.2", "--delta", "0.0,0.05",
         "--runs", "2", "--seed", "3"),
        ("diqkd", "serfling", "--n", "60", "--gamma", "0.25", "--eps", "0.2",
         "--pattern", "threshold:35", "--trials", "2000", "--seed", "11"),
        ("dpt", "probe", "--builtin", "magic_square", "--n", "2", "--comm-bits", "0", "--seed", "2"),
    ],
    ids=["seesaw", "run", "sweep", "serfling", "probe"],
)
def test_cli_byte_determinism(argv):
    outputs = set()
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-m", "gamebox", *argv],
            capture_output=True,
            check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    (blob,) = outputs
    assert blob  # the runs actually printed something
