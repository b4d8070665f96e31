"""LP machinery, no-signalling values, partition bounds, factorization norms."""

import dataclasses
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from gamebox import bounds, games
from gamebox.errors import (
    BudgetExceededError,
    CapabilityError,
    DimensionMismatchError,
    GameboxError,
    LPInfeasibleError,
    LPUnboundedError,
    ValidationError,
)

# ---------------------------------------------------------------------------
# LP solver, cross-checked against scipy
# ---------------------------------------------------------------------------


def _scipy_solve(lp):
    senses = list(lp.senses)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, s, rhs in zip(lp.A, senses, lp.b):
        if s == "<=":
            A_ub.append(row)
            b_ub.append(rhs)
        elif s == ">=":
            A_ub.append(-row)
            b_ub.append(-rhs)
        else:
            A_eq.append(row)
            b_eq.append(rhs)
    ub = np.inf if lp.upper_bounds is None else lp.upper_bounds
    res = scipy.optimize.linprog(
        -lp.c if lp.maximize else lp.c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(0, u) for u in np.broadcast_to(ub, lp.c.shape)],
        method="highs",
    )
    return res


def test_solve_lp_known_optimum():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> vertex (8/5, 6/5), value 14/5
    lp = bounds.LinearProgram(
        c=np.array([1.0, 1.0]),
        A=np.array([[1.0, 2.0], [3.0, 1.0]]),
        senses=("<=", "<="),
        b=np.array([4.0, 6.0]),
    )
    res = bounds.solve_lp(lp)
    assert res.value == pytest.approx(14 / 5, abs=1e-9)
    np.testing.assert_allclose(res.x, [8 / 5, 6 / 5], atol=1e-9)


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_solve_lp_agrees_with_scipy_on_random_programs(seed):
    r = np.random.default_rng(seed)
    n, m = int(r.integers(2, 6)), int(r.integers(2, 7))
    A = r.normal(size=(m, n))
    x0 = r.uniform(0.1, 1.0, size=n)  # keep the program feasible by design
    senses = [("<=", ">=", "=")[int(r.integers(0, 3))] for _ in range(m)]
    slack = np.where([s == "<=" for s in senses], r.uniform(0, 1, m), 0.0) - np.where(
        [s == ">=" for s in senses], r.uniform(0, 1, m), 0.0
    )
    b = A @ x0 + slack
    c = r.normal(size=n)
    lp = bounds.LinearProgram(c=c, A=A, senses=senses, b=b, maximize=True, upper_bounds=np.full(n, 5.0))
    ours = bounds.solve_lp(lp)
    ref = _scipy_solve(lp)
    assert ref.status == 0
    assert ours.value == pytest.approx(-ref.fun, abs=1e-6)


def test_solve_lp_detects_infeasible():
    lp = bounds.LinearProgram(
        c=np.array([1.0]),
        A=np.array([[1.0], [1.0]]),
        senses=(">=", "<="),
        b=np.array([2.0, 1.0]),
    )
    with pytest.raises(LPInfeasibleError):
        bounds.solve_lp(lp)


def test_solve_lp_detects_unbounded():
    lp = bounds.LinearProgram(
        c=np.array([1.0, 0.0]),
        A=np.array([[0.0, 1.0]]),
        senses=("<=",),
        b=np.array([1.0]),
    )
    with pytest.raises(LPUnboundedError):
        bounds.solve_lp(lp)


# ---------------------------------------------------------------------------
# no-signalling game values
# ---------------------------------------------------------------------------


def test_ns_value_chsh_is_one_with_explicit_box():
    # the PR box wins every cell and signals nothing
    q = np.zeros((2, 2, 2, 2))
    for a, b, x, y in np.ndindex(2, 2, 2, 2):
        if (a ^ b) == (x & y):
            q[a, b, x, y] = 0.5
    box = games.Correlation(q=q, players=2)
    box.validate()
    game = games.chsh()
    witness = sum(
        float(game.p[x, y]) * q[a, b, x, y]
        for a, b, x, y in np.ndindex(2, 2, 2, 2)
        if game.win((a, b), (x, y))
    )
    assert witness == pytest.approx(1.0, abs=1e-12)
    # the interior-point optimum lies 7.4e-13 above 1; the value is cut to a probability
    assert bounds.ns_game_value(game) == 1.0


def test_ns_value_magic_square_is_one_with_explicit_box():
    # uniform over the 8 consistent (even row, odd column) pairs per cell
    game = games.magic_square()
    V = game.dense_V()
    q = np.zeros((4, 4, 3, 3))
    for x, y in np.ndindex(3, 3):
        wins = [(a, b) for a, b in np.ndindex(4, 4) if V[a, b, x, y]]
        assert len(wins) == 8
        for a, b in wins:
            q[a, b, x, y] = 1 / 8
    box = games.Correlation(q=q, players=2)
    box.validate()  # marginals input-independent: genuinely no-signalling
    # the interior-point optimum lies 4.4e-13 above 1; the value is cut to a probability
    assert bounds.ns_game_value(game) == 1.0


def test_ns_value_dominates_classical_on_random_games(rng):
    for _ in range(5):
        p = rng.dirichlet(np.ones(4)).reshape(2, 2)
        V = rng.random((2, 2, 2, 2)) < 0.4
        game = games.GamePredicate(inputs=((0, 1), (0, 1)), outputs=((0, 1), (0, 1)), p=p, V=V)
        assert bounds.ns_game_value(game) >= games.classical_value(game).value - 1e-8


def test_ns_value_single_player_reduction():
    # one player, pick the best output per input
    game = games.GamePredicate(
        inputs=((0, 1),),
        outputs=((0, 1, 2),),
        p=np.array([0.5, 0.5]),
        V=np.array([[True, False], [False, False], [False, True]]),
    )
    assert bounds.ns_game_value(game) == pytest.approx(1.0)


def test_ns_value_mse_inputless_player_decomposition():
    # the third player has one input, so the decomposition route is taken;
    # the cap is the content of the 1/9(1 - nu) form at nu = 0
    value = bounds.ns_game_value(games.mse())
    assert value <= 1 / 9 + 1e-6
    assert value >= 1 / 9 - 1e-6  # classical already achieves 1/9


def _subgames(game):
    """The sub-games of the decomposition on the first inputless player,
    one per output of that player, in output order."""
    l = game.players
    j = game.input_sizes.index(1)
    keep = [k for k in range(l) if k != j]
    p_rest = np.squeeze(game.p, axis=j)
    return [
        games.GamePredicate(
            inputs=tuple(game.inputs[k] for k in keep),
            outputs=tuple(game.outputs[k] for k in keep),
            p=p_rest,
            V=np.squeeze(np.take(game.V, e, axis=j), axis=(l - 1) + j),
        )
        for e in range(game.output_sizes[j])
    ]


def _ns_value_every_subgame(game):
    """The no-signalling value with every sub-game of the decomposition
    solved, none skipped."""
    if game.players >= 2 and 1 in game.input_sizes:
        best = 0.0
        for sub in _subgames(game):
            best = max(best, _ns_value_every_subgame(sub))
        return best
    return bounds.ns_game_value(game)  # no inputless player left: one LP, or one player


def _inputless_game(seed, outs, ins):
    """A random game with inputless players, a skewed p (some cells 0) and
    a win density that depends on the first inputless player's output, so
    that a later output can beat the first."""
    r = np.random.default_rng([83, seed])
    p = r.dirichlet(np.full(math.prod(ins), 0.5)) * (r.random(math.prod(ins)) < 0.8)
    p[0] += p.sum() == 0.0
    p /= p.sum()
    j = ins.index(1)
    density = np.moveaxis(r.uniform(0.05, 0.6, size=(outs[j],) + (1,) * (2 * len(outs) - 1)), 0, j)
    return games.GamePredicate(
        inputs=tuple(tuple(range(s)) for s in ins),
        outputs=tuple(tuple(range(s)) for s in outs),
        p=p.reshape(ins),
        V=r.random(tuple(outs) + tuple(ins)) < density,
    )


INPUTLESS_SHAPES = [
    ((2, 2, 3), (2, 2, 1)),
    ((2, 3, 2), (2, 1, 2)),
    ((4, 2, 2), (1, 2, 3)),
    ((2, 2, 3, 2), (2, 1, 2, 1)),
    ((3, 2, 2), (1, 3, 1)),
]


def _counting_solves(monkeypatch):
    """Route ``bounds.solve_lp`` through a recorder; returns the list that
    collects the stats of each solve."""
    solve = bounds.solve_lp
    solved = []

    def counted(lp):
        res = solve(lp)
        solved.append(res.stats)
        return res

    monkeypatch.setattr(bounds, "solve_lp", counted)
    return solved


def test_ns_value_skips_capped_subgames(monkeypatch):
    # a sub-game is skipped when its cap is within the LP check's 1e-9 of
    # the best so far, so the value is within 1e-9 of the full maximum
    solved = _counting_solves(monkeypatch)
    later_wins = pruned = 0
    for seed in range(8):
        for outs, ins in INPUTLESS_SHAPES:
            game = _inputless_game(seed, outs, ins)
            start = len(solved)
            reference = _ns_value_every_subgame(game)
            every = len(solved) - start
            value = bounds.ns_game_value(game)
            assert value == pytest.approx(reference, abs=1e-9)
            pruned += len(solved) - start - every < every
            sub_values = [_ns_value_every_subgame(sub) for sub in _subgames(game)]
            later_wins += max(sub_values[1:]) > sub_values[0]
    assert later_wins >= 10  # the best sub-game is often not the first
    assert pruned >= 10  # and the caps skip LPs


def test_ns_value_mse_solves_one_lp(monkeypatch):
    # every sub-game caps at 1/9 (its guess (x, y) has weight 2/18), which
    # the first one reaches within the LP's checked gap
    solved = _counting_solves(monkeypatch)
    value = bounds.ns_game_value(games.mse())
    assert len(solved) == 1
    solved.clear()
    reference = _ns_value_every_subgame(games.mse())
    assert len(solved) == 36
    assert value == pytest.approx(reference, abs=1e-9)


def test_ns_value_budget_is_checked_before_the_decomposition(monkeypatch):
    # every sub-game caps at 0, so none is solved, yet the LP it would need
    # (4 * 4 * 2 * 2 = 64 variables) is over the limit
    game = games.GamePredicate(
        inputs=((0, 1), (0, 1), (0,)),
        outputs=((0, 1, 2, 3), (0, 1, 2, 3), (0, 1)),
        p=np.full((2, 2, 1), 0.25),
        V=np.zeros((4, 4, 2, 2, 2, 1), dtype=bool),
    )
    monkeypatch.setattr(bounds, "_NS_VALUE_VARIABLE_LIMIT", 64)
    assert bounds.ns_game_value(game) == 0.0
    monkeypatch.setattr(bounds, "_NS_VALUE_VARIABLE_LIMIT", 63)
    with pytest.raises(BudgetExceededError, match="64 LP variables exceed the limit 63"):
        bounds.ns_game_value(game)


def test_ns_value_refuses_an_lp_over_its_limit_before_any_row(monkeypatch):
    # chsh^4's 65 536 variables and 7456 dense rows would take 3.64 GiB
    def reached(*args):
        raise AssertionError("rows built for an LP over the limit")

    game = games.repeat(games.chsh(), 4)
    monkeypatch.setattr(bounds, "_ns_constraint_rows", reached)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="65536 LP variables exceed the limit 25000"):
            bounds.ns_game_value(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# partition (efficiency) bounds
# ---------------------------------------------------------------------------


def test_eff_identities_on_magic_square():
    game = games.magic_square()
    # at eps=0 under the averaged variant, the NS relaxation is tight: the
    # game has a perfect no-signalling box, so nothing need ever abort
    res = bounds.eff_ns(game, 0.0, "average")
    assert res.eff == pytest.approx(1.0, abs=1e-6)
    assert res.eta == pytest.approx(1.0, abs=1e-6)
    # a local protocol errs on at least one cell, so it must abort sometimes
    local = bounds.eff_local(game, 0.0, "average")
    assert local.eff > 1.0 + 1e-6


def test_eff_local_zero_eps_matches_hand_argument():
    # keep only cells a best deterministic strategy wins (8 of 9) with equal
    # mass; eta = 8/9 * (9/8 scaling) ... the LP answers 2/3, i.e. eff 3/2:
    # abort everywhere the pair would lose, renormalising the mass you keep
    res = bounds.eff_local(games.magic_square(), 0.0, "worst_case")
    assert res.eff == pytest.approx(1.5, abs=1e-6)


def test_eff_sandwich_and_variant_order_random_games(rng):
    for _ in range(4):
        p = rng.dirichlet(np.ones(4)).reshape(2, 2)
        V = rng.random((2, 2, 2, 2)) < 0.5
        game = games.GamePredicate(inputs=((0, 1), (0, 1)), outputs=((0, 1), (0, 1)), p=p, V=V)
        for eps in (0.0, 0.15):
            results = {}
            for variant in bounds.VARIANTS:
                ns = bounds.eff_ns(game, eps, variant)
                local = bounds.eff_local(game, eps, variant)
                assert ns.eff <= local.eff + 1e-6  # relaxation ordering
                results[variant] = (ns.eff, local.eff)
            # constraint sets nest: worst_case implies tilde implies average
            for i in (0, 1):
                assert results["worst_case"][i] >= results["tilde"][i] - 1e-6
                assert results["tilde"][i] >= results["average"][i] - 1e-6


def test_eff_monotone_in_eps(rng):
    game = games.chsh()
    prev = math.inf
    for eps in (0.0, 0.1, 0.2, 0.4):
        eff = bounds.eff_local(game, eps, "average").eff
        assert eff <= prev + 1e-9
        prev = eff


def test_eff_certificate_is_a_correlation():
    res = bounds.eff_ns(games.chsh(), 0.1, "worst_case")
    res.certificate.validate()
    assert res.eff == pytest.approx(1.0 / res.eta, rel=1e-9)


def test_eff_validation():
    with pytest.raises(ValidationError):
        bounds.eff_ns(games.chsh(), 1.5)
    with pytest.raises(ValidationError):
        bounds.eff_local(games.chsh(), 0.1, "median")


@pytest.mark.parametrize("eff", [bounds.eff_ns, bounds.eff_local])
@pytest.mark.parametrize("eps,variant", [(0.1, "median"), (math.nan, "worst_case"), (1.5, "worst_case")])
def test_eff_checks_eps_and_variant_before_any_rows(eff, eps, variant, monkeypatch):
    def reached(*args):
        raise AssertionError("rows built before eps and variant were checked")

    monkeypatch.setattr(bounds, "_ns_constraint_rows", reached)
    monkeypatch.setattr(bounds, "_local_columns", reached)
    with pytest.raises(ValidationError):
        eff(games.repeat(games.chsh(), 2), eps, variant)


@pytest.mark.parametrize(
    "make,n_vars", [(games.mse, 16_650), (lambda: games.repeat(games.magic_square(), 2), 23_409)],
    ids=["mse", "magic_square^2"],
)
def test_eff_ns_refuses_an_lp_over_its_budget_before_any_row(make, n_vars, monkeypatch):
    # their dense LP rows would take ~650 MB and more
    def reached(*args):
        raise AssertionError("rows built for an LP over budget")

    game = make()
    monkeypatch.setattr(bounds, "_ns_constraint_rows", reached)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=f"{n_vars} LP variables exceed the limit 10000"):
            bounds.eff_ns(game, 0.1, "average")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_eff_ns_limit_counts_the_abort_augmented_entries(monkeypatch):
    # chsh: (2 + 1)^2 abort-augmented output pairs at 4 input pairs
    eta = bounds.eff_ns(games.chsh(), 0.1).eta
    monkeypatch.setattr(bounds, "_NS_LP_VARIABLE_LIMIT", 36)
    assert bounds.eff_ns(games.chsh(), 0.1).eta == eta
    monkeypatch.setattr(bounds, "_NS_LP_VARIABLE_LIMIT", 35)
    with pytest.raises(BudgetExceededError, match="36 LP variables exceed the limit 35"):
        bounds.eff_ns(games.chsh(), 0.1)


def test_eff_local_limit_counts_the_strategies_before_building_any(monkeypatch):
    # chsh: 3^2 abort-augmented maps per player, so 81 strategies
    eta = bounds.eff_local(games.chsh(), 0.1).eta
    monkeypatch.setattr(bounds, "_LOCAL_STRATEGY_LIMIT", 81)
    assert bounds.eff_local(games.chsh(), 0.1).eta == eta

    def reached(*args):
        raise AssertionError("strategies built over the limit")

    monkeypatch.setattr(bounds, "_LOCAL_STRATEGY_LIMIT", 80)
    monkeypatch.setattr(bounds, "_local_columns", reached)
    with pytest.raises(BudgetExceededError, match="81 deterministic abort-augmented strategies exceed the limit 80"):
        bounds.eff_local(games.chsh(), 0.1)
    # eps and variant are checked first
    with pytest.raises(ValidationError):
        bounds.eff_local(games.chsh(), 1.5)
    with pytest.raises(ValidationError):
        bounds.eff_local(games.chsh(), 0.1, "median")


# ---------------------------------------------------------------------------
# efficiency LPs rebuilt from the definitions and solved by HiGHS
# ---------------------------------------------------------------------------


def _random_game(seed, outs, ins):
    r = np.random.default_rng(seed)
    return games.GamePredicate(
        inputs=tuple(tuple(range(s)) for s in ins),
        outputs=tuple(tuple(range(s)) for s in outs),
        p=r.dirichlet(np.ones(int(np.prod(ins)))).reshape(ins),
        V=r.random(tuple(outs) + tuple(ins)) < 0.5,
        name=f"random{seed}",
    )


DIFFERENTIAL_GAMES = {
    "chsh": games.chsh,
    "magic_square": games.magic_square,
    # seeds picked for values below 1 and, for the 2-player games, a gap
    # between the two relaxations
    "random_2x3_3x2": lambda: _random_game(1, (2, 3), (3, 2)),
    "random_2x2_3x2": lambda: _random_game(6, (2, 2), (3, 2)),
    "random_3_player": lambda: _random_game(16, (2, 2, 2), (2, 2, 2)),
}


def _ns_columns(out_sizes, in_sizes):
    """Columns q(a|x), each listed as {input: output it answers with}."""
    return [
        {x: a}
        for a in itertools.product(*(range(s) for s in out_sizes))
        for x in itertools.product(*(range(s) for s in in_sizes))
    ]


def _ns_equalities(out_sizes, in_sizes):
    """Normalisation and no-signalling rows over the columns of _ns_columns,
    straight from the definition: for every player j, every pair of inputs
    differing only at j and every output of the others, j's marginals agree."""
    cols = _ns_columns(out_sizes, in_sizes)
    pos = {(a, x): k for k, col in enumerate(cols) for x, a in col.items()}
    outs = list(itertools.product(*(range(s) for s in out_sizes)))
    rows, rhs = [], []
    for x in itertools.product(*(range(s) for s in in_sizes)):
        row = np.zeros(len(cols))
        for a in outs:
            row[pos[a, x]] = 1.0
        rows.append(row)
        rhs.append(1.0)
        for j, xj in itertools.product(range(len(in_sizes)), range(max(in_sizes))):
            if xj >= in_sizes[j] or xj == x[j]:
                continue
            x2 = x[:j] + (xj,) + x[j + 1 :]
            for a_rest in {a[:j] + a[j + 1 :] for a in outs}:
                row = np.zeros(len(cols))
                for aj in range(out_sizes[j]):
                    a = a_rest[:j] + (aj,) + a_rest[j:]
                    row[pos[a, x]] += 1.0
                    row[pos[a, x2]] -= 1.0
                rows.append(row)
                rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def _ns_rows_by_loops(out_sizes, in_sizes, closed_rule=False):
    """Every normalisation and per-player no-signalling row, dependent ones
    included, by per-entry loops: one row per input x, then per player j
    with more than one input one row per (other inputs, other outputs,
    x_j >= 1), in that order.  With ``closed_rule`` only the rows that
    ``_ns_constraint_rows`` writes are kept: player j's row where some
    other player answers below its last output and every earlier player
    at its last output has input 0."""
    l = len(out_sizes)
    shape = tuple(out_sizes) + tuple(in_sizes)
    n = int(np.prod(shape))
    rows = []
    for x in np.ndindex(*in_sizes):
        row = np.zeros(n)
        for a in np.ndindex(*out_sizes):
            row[np.ravel_multi_index(a + x, shape)] = 1.0
        rows.append(row)
    for j in range(l):
        if in_sizes[j] == 1:
            continue
        for x_rest in np.ndindex(*(in_sizes[k] for k in range(l) if k != j)):
            for a_rest in np.ndindex(*(out_sizes[k] for k in range(l) if k != j)):
                last = [a_rest[i] == out_sizes[k] - 1 for i, k in enumerate(k for k in range(l) if k != j)]
                if closed_rule and (all(last) or any(last[i] and x_rest[i] != 0 for i in range(j))):
                    continue
                for xj in range(1, in_sizes[j]):
                    row = np.zeros(n)
                    for aj in range(out_sizes[j]):
                        a = a_rest[:j] + (aj,) + a_rest[j:]
                        row[np.ravel_multi_index(a + x_rest[:j] + (0,) + x_rest[j:], shape)] += 1.0
                        row[np.ravel_multi_index(a + x_rest[:j] + (xj,) + x_rest[j:], shape)] -= 1.0
                    rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize(
    "out_sizes,in_sizes",
    [((2, 2), (2, 2)), ((3, 5), (3, 2)), ((2, 3, 2), (2, 1, 3)), ((3, 3, 3), (2, 2, 2)), ((4,), (3,))],
)
def test_ns_rows_match_per_entry_loops(out_sizes, in_sizes):
    # the vectorised rows are bitwise the closed rule written entry by entry
    A, b = bounds._ns_constraint_rows(out_sizes, in_sizes)
    n_in = math.prod(in_sizes)
    assert np.array_equal(A.view(np.uint64), _ns_rows_by_loops(out_sizes, in_sizes, closed_rule=True).view(np.uint64))
    assert np.array_equal(b, np.r_[np.ones(n_in), np.zeros(A.shape[0] - n_in)])


def _random_ns_shapes(count, seed, max_entries=3000):
    """Seeded (out_sizes, in_sizes) of 1-4 players, 1-4 outputs and 1-3
    inputs each, with at most ``max_entries`` correlation entries."""
    rng = np.random.default_rng(seed)
    shapes = []
    while len(shapes) < count:
        l = int(rng.integers(1, 5))
        outs, ins = (tuple(int(v) for v in rng.integers(1, hi, l)) for hi in (5, 4))
        if math.prod(outs) * math.prod(ins) <= max_entries:
            shapes.append((outs, ins))
    return shapes


@pytest.mark.parametrize(
    "out_sizes,in_sizes",
    [((2, 2), (2, 2)), ((3, 5), (3, 2)), ((2, 3, 2), (2, 1, 3)), ((3, 3, 3), (2, 2, 2)), ((4,), (3,)),
     ((5, 5), (4, 4)), ((4, 4), (6, 3)),
     ((2, 2, 2, 2), (2, 2, 2, 2)), ((1, 3), (2, 2)), ((3, 3, 2), (1, 2, 1)), ((2, 1, 2), (2, 3, 2))]
    + _random_ns_shapes(50, seed=16),
)
def test_ns_rows_are_the_independent_rows_in_order(out_sizes, in_sizes):
    # the closed rule writes bitwise the rows that a row-order walk keeps
    # from every row of the per-entry loops
    A_all = _ns_rows_by_loops(out_sizes, in_sizes)
    n_in = math.prod(in_sizes)
    b_all = np.r_[np.ones(n_in), np.zeros(A_all.shape[0] - n_in)]
    keep = bounds._independent_rows(A_all)
    A, b = bounds._ns_constraint_rows(out_sizes, in_sizes)
    assert np.array_equal(A.view(np.uint64), A_all[keep].view(np.uint64))
    assert np.array_equal(b.view(np.uint64), b_all[keep].view(np.uint64))
    assert np.linalg.matrix_rank(A) == A.shape[0] == np.linalg.matrix_rank(A_all)
    # every dropped row, right-hand side included, is a combination of the kept rows
    dropped = np.setdiff1d(np.arange(A_all.shape[0]), keep)
    coef = np.linalg.lstsq(A.T, A_all[dropped].T, rcond=None)[0]
    assert np.abs(A.T @ coef - A_all[dropped].T).max(initial=0.0) <= 1e-12
    assert np.abs(b @ coef - b_all[dropped]).max(initial=0.0) <= 1e-12
    # up to 150 rows (the first seven shapes among them): the walk keeps a
    # row exactly when it raises the rank of the rows kept so far
    if A_all.shape[0] <= 150:
        walk = []
        for i in range(A_all.shape[0]):
            if np.linalg.matrix_rank(A_all[walk + [i]]) > len(walk):
                walk.append(i)
        assert keep.tolist() == walk


def test_ns_lps_carry_no_dependent_rows(monkeypatch):
    # the partition-lp benchmark grid, the eff_ns(chsh^2) solves and the
    # mse sub-LP that is solved; the 36 mse sub-LPs share one constraint
    # matrix.  Every first normal matrix factors, so solve_lp never scans
    # for dependent rows.
    solved = _counting_solves(monkeypatch)
    real = bounds._mehrotra
    unfactored = []

    def recorded(A, b, c):
        out = real(A, b, c)
        unfactored.append(out is None)
        return out

    monkeypatch.setattr(bounds, "_mehrotra", recorded)
    for game in (games.chsh(), games.magic_square()):
        for eps in PARTITION_LP_EPS:
            for variant in bounds.VARIANTS:
                bounds.eff_ns(game, eps, variant)
                bounds.eff_local(game, eps, variant)
    chsh2 = games.repeat(games.chsh(), 2)
    for variant in bounds.VARIANTS:
        bounds.eff_ns(chsh2, 0.1, variant)
    bounds.ns_game_value(chsh2)
    bounds.ns_game_value(games.mse())
    assert len(solved) == 2 * 2 * len(PARTITION_LP_EPS) * len(bounds.VARIANTS) + 3 + 1 + 1
    assert len(unfactored) == len(solved) and not any(unfactored)


def _reference_lp(game, relaxation):
    """The efficiency LP's ingredients: head rows fixing the column set, and
    per input x the columns' probability of no abort (mass) and of no abort
    and a win (win)."""
    V = game.dense_V()
    outs, ins = game.output_sizes, game.input_sizes
    aug = tuple(s + 1 for s in outs)
    xs = list(itertools.product(*(range(s) for s in ins)))
    if relaxation == "no_signalling":
        cols = _ns_columns(aug, ins)
        head, head_rhs = _ns_equalities(aug, ins)
    else:
        maps = [list(itertools.product(range(aug[j]), repeat=ins[j])) for j in range(len(ins))]
        cols = [{x: tuple(f[j][x[j]] for j in range(len(ins))) for x in xs} for f in itertools.product(*maps)]
        head, head_rhs = np.ones((1, len(cols))), np.ones(1)
    mass = np.zeros((len(xs), len(cols)))
    win = np.zeros((len(xs), len(cols)))
    for i, x in enumerate(xs):
        for k, col in enumerate(cols):
            a = col.get(x)
            if a is not None and all(a[j] < outs[j] for j in range(len(outs))):
                mass[i, k] = 1.0
                win[i, k] = float(V[a + x])
    return head, head_rhs, mass, win, np.array([game.p[x] for x in xs])


def _reference_eta(lp, eps, variant):
    """eta of the abort-augmented efficiency LP, by HiGHS."""
    head, head_rhs, mass, win, p = lp
    if variant == "average":
        mass = p[None, :] @ mass
    if variant in ("tilde", "average"):
        win = p[None, :] @ win
    # variables: column weights, then eta
    A_eq = np.vstack([
        np.hstack([head, np.zeros((head.shape[0], 1))]),
        np.hstack([mass, -np.ones((mass.shape[0], 1))]),
    ])
    b_eq = np.concatenate([head_rhs, np.zeros(mass.shape[0])])
    A_ub = -np.hstack([win, np.full((win.shape[0], 1), -(1.0 - eps))])
    c = np.zeros(head.shape[1] + 1)
    c[-1] = -1.0
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]), A_eq=A_eq, b_eq=b_eq,
        bounds=[(0, None)] * head.shape[1] + [(bounds.ETA_FLOOR, None)], method="highs",
    )
    assert res.status == 0
    return float(res.x[-1])


def _check_certificate(game, eps, variant, res, tol=1e-7):
    """The certificate correlation meets its variant's mass and win rows at
    the reported eta, is normalised and signals nothing."""
    q = res.certificate.q
    l, outs = game.players, game.output_sizes
    kept = q[tuple(slice(s) for s in outs)]  # entries with no abort
    p = game.p
    mass = kept.sum(axis=tuple(range(l)))
    win = np.where(game.dense_V(), kept, 0.0).sum(axis=tuple(range(l)))
    target = (1.0 - eps) * res.eta
    if variant == "average":
        assert float(np.sum(p * mass)) == pytest.approx(res.eta, abs=tol)
    else:
        np.testing.assert_allclose(mass, res.eta, atol=tol)
    if variant == "worst_case":
        assert np.all(win >= target - tol)
    else:
        assert float(np.sum(p * win)) >= target - tol
    assert np.all(q >= -tol)
    np.testing.assert_allclose(q.sum(axis=tuple(range(l))), 1.0, atol=tol)
    for j in range(l):
        marginal = q.sum(axis=j)
        np.testing.assert_allclose(marginal - np.take(marginal, [0], axis=l - 1 + j), 0.0, atol=tol)


@pytest.mark.parametrize("relaxation", ["no_signalling", "local"])
@pytest.mark.parametrize("name", list(DIFFERENTIAL_GAMES))
def test_eff_matches_highs_on_lp_from_definitions(name, relaxation):
    game = DIFFERENTIAL_GAMES[name]()
    fn = bounds.eff_ns if relaxation == "no_signalling" else bounds.eff_local
    lp = _reference_lp(game, relaxation)
    for eps in (0.0, 0.1):
        for variant in bounds.VARIANTS:
            res = fn(game, eps, variant)
            assert res.relaxation == relaxation
            assert res.eta == pytest.approx(_reference_eta(lp, eps, variant), abs=1e-7)
            assert res.eff == pytest.approx(1.0 / res.eta, rel=1e-12)
            _check_certificate(game, eps, variant, res)


def test_ns_value_matches_highs_on_three_player_game():
    game = DIFFERENTIAL_GAMES["random_3_player"]()
    V = game.dense_V()
    cols = _ns_columns(game.output_sizes, game.input_sizes)
    A_eq, b_eq = _ns_equalities(game.output_sizes, game.input_sizes)
    c = np.array([-game.p[x] * V[a + x] for col in cols for x, a in col.items()])
    ref = scipy.optimize.linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert bounds.ns_game_value(game) == pytest.approx(-ref.fun, abs=1e-7)


def _eff_local_every_strategy(game, eps, variant):
    """eff_local over every deterministic abort-augmented strategy, equal
    columns included; returns the result and the LP's mass and win rows.

    The rows are built the way eff_local built them before its integer
    keys: float gathers over the whole (input, strategy) table, laid out
    one contiguous column per strategy."""
    l = game.players
    out_sizes, in_sizes = game.output_sizes, game.input_sizes
    aug_sizes = tuple(s + 1 for s in out_sizes)
    map_counts = tuple(aug_sizes[j] ** in_sizes[j] for j in range(l))
    n_d = math.prod(map_counts)
    maps = [np.array(list(itertools.product(range(aug_sizes[j]), repeat=in_sizes[j])), dtype=np.int64)
            for j in range(l)]

    def on_axes(a, j):
        shape = [1] * (2 * l)
        shape[j], shape[l + j] = a.shape
        return a.reshape(shape)

    outs = [on_axes(maps[j], j) for j in range(l)]
    inputs = [on_axes(np.arange(in_sizes[j])[None, :], j) for j in range(l)]
    non_abort = tuple(slice(s) for s in out_sizes)
    kept = np.zeros(aug_sizes, dtype=bool)
    kept[non_abort] = True
    won = np.zeros(aug_sizes + in_sizes, dtype=bool)
    won[non_abort] = game.V
    mass = kept[tuple(outs)].reshape(n_d, -1).T.astype(float)
    win = won[tuple(outs + inputs)].reshape(n_d, -1).T.astype(float)
    mass, win = bounds._lp_rows(game.p, mass, win, variant)
    eta, w = bounds._efficiency_lp(np.ones((1, n_d)), np.ones(1), mass, win, eps)
    q = np.zeros(aug_sizes + in_sizes)
    ds = np.flatnonzero(w > 1e-12)
    d_idx = np.unravel_index(ds, map_counts)
    xs = np.indices(in_sizes).reshape(l, -1)
    np.add.at(q, tuple(maps[j][d_idx[j][:, None], xs[j]] for j in range(l)) + tuple(xs), w[ds][:, None])
    eff = math.inf if eta == bounds.ETA_FLOOR else 1.0 / eta  # no upper bound on eff* at the floor
    return (eta, eff, q), np.vstack([mass, win])


def _zero_p_game():
    game = _random_game(4, (2, 2), (3, 2))
    p = game.p.copy()
    p[1, 0] = 0.0
    return dataclasses.replace(game, p=p / p.sum())


LOCAL_DIFFERENTIAL_GAMES = {
    "chsh": games.chsh,
    "magic_square": games.magic_square,
    "xor_3x3": lambda: bounds.xor_game(np.array([[0, 0, 0], [0, 0, 1], [0, 1, 1]]), np.full((3, 3), 1 / 9)),
    "xor_2x4": lambda: bounds.xor_game(np.array([[0, 0, 0, 1], [0, 1, 1, 0]]), np.full((2, 4), 1 / 8)),
    "random_2x3_3x2": DIFFERENTIAL_GAMES["random_2x3_3x2"],
    "random_3_player": DIFFERENTIAL_GAMES["random_3_player"],
    "random_3x2_2x3": lambda: _random_game(9, (3, 2), (2, 3)),
    "random_zero_p": _zero_p_game,
}


def _assert_local_columns_match(game, eps, variant, rows):
    # the integer keys pick bitwise the columns, indices and rows that
    # _distinct_columns picks from the rows of every strategy
    cols = bounds._distinct_columns(rows)
    _, key_cols, mass, win = bounds._local_columns(game, variant)
    assert np.array_equal(key_cols, cols)
    assert np.array_equal(np.vstack([mass, win]).view(np.uint64), rows[:, cols].view(np.uint64))


@pytest.mark.parametrize("name", list(LOCAL_DIFFERENTIAL_GAMES))
def test_eff_local_distinct_columns_match_every_strategy(name, monkeypatch):
    # eta and eff are within 1e-9 of the LP over every strategy, which has
    # one column per strategy, and the certificate meets its rows
    solved = _counting_solves(monkeypatch)
    game = LOCAL_DIFFERENTIAL_GAMES[name]()
    for eps in PARTITION_LP_EPS:
        for variant in bounds.VARIANTS:
            reference, rows = _eff_local_every_strategy(game, eps, variant)
            res = bounds.eff_local(game, eps, variant)
            assert res.eta == pytest.approx(reference[0], abs=1e-9)
            assert res.eff == pytest.approx(reference[1], rel=1e-9)
            assert res.certificate.q.shape == reference[2].shape
            _check_certificate(game, eps, variant, res)
            every, distinct = solved[-2:]
            assert every["cols"] == rows.shape[1] + 1
            assert distinct["cols"] == np.unique(rows, axis=1).shape[1] + 1
            _assert_local_columns_match(game, eps, variant, rows)


def test_eff_local_keys_of_several_words():
    # 8 x 5 = 40 joint inputs, one base-3 digit each, need two int64 words
    # (39 digits fit in one); one output per player keeps it at 2^13
    # strategies, 7906 of them distinct.  worst_case sits at the floor (an
    # input that the one answer loses cannot be won), tilde at the floor
    # at eps 0.1 and at 1 at eps 0.2 (p.V = 0.82), average at 0.84 and 1
    r = np.random.default_rng(3)
    game = games.GamePredicate(
        inputs=(tuple(range(8)), tuple(range(5))), outputs=((0,), (0,)),
        p=r.dirichlet(np.ones(40)).reshape(8, 5), V=r.random((1, 1, 8, 5)) < 0.8,
    )
    assert math.prod(game.input_sizes) > bounds._KEY_DIGITS
    for eps in (0.1, 0.2):
        for variant in bounds.VARIANTS:
            reference, rows = _eff_local_every_strategy(game, eps, variant)
            res = bounds.eff_local(game, eps, variant)
            assert res.eta == pytest.approx(reference[0], abs=1e-9)
            assert res.eff == pytest.approx(reference[1], rel=1e-9)
            _check_certificate(game, eps, variant, res)
            _assert_local_columns_match(game, eps, variant, rows)


def test_eff_local_of_chsh_squared():
    # 390 625 strategies, 23 646 distinct worst_case columns; HiGHS gives
    # eta 0.3333333333333333 for worst_case and average
    chsh2 = games.repeat(games.chsh(), 2)
    for variant in bounds.VARIANTS:
        res = bounds.eff_local(chsh2, 0.1, variant)
        assert res.eta == pytest.approx(1 / 3, abs=1e-9)
        _check_certificate(chsh2, 0.1, variant, res)


def test_eff_local_magic_square_lp_columns(monkeypatch):
    # 15 625 strategies; the LP keeps the distinct columns and eta.  The
    # p-weighted rows of tilde and average are BLAS products, whose rounding
    # can tell apart columns with equal sums (summed in input order, they
    # gave 190 and 28)
    solved = _counting_solves(monkeypatch)
    for variant in bounds.VARIANTS:
        bounds.eff_local(games.magic_square(), 0.1, variant)
    assert [s["cols"] for s in solved] == [924, 191, 36]


@pytest.mark.parametrize("variant", ["worst_case", "tilde"])
def test_eff_ns_matches_highs_where_rounding_used_to_revisit_a_basis(variant):
    # with its dependent no-signalling rows, the tilde LP revisited a basis
    game = _random_game(13, (2, 2, 2), (2, 2, 2))
    eta = _reference_eta(_reference_lp(game, "no_signalling"), 0.0, variant)
    assert eta == pytest.approx(1 / 3, abs=1e-7)
    assert bounds.eff_ns(game, 0.0, variant).eta == pytest.approx(eta, abs=1e-9)


def test_eff_ns_solves_the_lp_the_dense_simplex_cycled_on():
    # the dense Bland tableau drifted on this LP until a basis recurred
    # (after 64 372 pivots); HiGHS gives eta = 0.4693887921...
    game = _random_game(13, (2, 2, 2), (2, 2, 2))
    assert _reference_eta(_reference_lp(game, "no_signalling"), 0.0, "average") == pytest.approx(0.4693887921, abs=1e-9)
    assert bounds.eff_ns(game, 0.0, "average").eta == pytest.approx(0.4693887921, abs=1e-9)


def test_ns_value_of_chsh_cubed(monkeypatch):
    # 848 x 4096 after the dependent no-signalling rows are left out; a
    # Popescu-Rohrlich box on each copy wins every cell
    solved = _counting_solves(monkeypatch)
    assert bounds.ns_game_value(games.repeat(games.chsh(), 3)) == pytest.approx(1.0, abs=1e-9)
    assert [(s["rows"], s["cols"]) for s in solved] == [(848, 4096)]
    assert abs(solved[0]["gap"]) <= 1e-9


@pytest.mark.parametrize("relaxation", ["no_signalling", "local"])
def test_efficiency_floor_when_an_input_cannot_be_won(relaxation):
    # input (1, 1) has no winning answer: at eps 0, worst_case and tilde
    # force eta = 0, reported at its floor; average aborts there only
    V = games.chsh().V.copy()
    V[..., 1, 1] = False
    game = games.GamePredicate(inputs=((0, 1), (0, 1)), outputs=((0, 1), (0, 1)), p=np.full((2, 2), 0.25), V=V)
    fn = bounds.eff_ns if relaxation == "no_signalling" else bounds.eff_local
    # at the floor eff_ns keeps 1 / ETA_FLOOR, a lower bound on eff*, and
    # eff_local gives inf, the only upper bound left
    floor_eff = 1.0 / bounds.ETA_FLOOR if relaxation == "no_signalling" else math.inf
    for variant in ("worst_case", "tilde"):
        res = fn(game, 0.0, variant)
        assert res.eta == bounds.ETA_FLOOR and res.eff == floor_eff
    eta = _reference_eta(_reference_lp(game, relaxation), 0.0, "average")
    assert eta > 0.25
    assert fn(game, 0.0, "average").eta == pytest.approx(eta, abs=1e-9)


# ---------------------------------------------------------------------------
# the interior-point solver and its certificates
# ---------------------------------------------------------------------------


PARTITION_LP_EPS = (0.0, 0.05, 0.1, 0.2)


@pytest.mark.parametrize("fn", [bounds.eff_ns, bounds.eff_local], ids=["ns", "local"])
@pytest.mark.parametrize("game", [games.chsh, games.magic_square], ids=["chsh", "magic_square"])
def test_partition_grid_matches_highs_with_checked_gaps(game, fn, monkeypatch):
    solved = _counting_solves(monkeypatch)
    game = game()
    lp = _reference_lp(game, "no_signalling" if fn is bounds.eff_ns else "local")
    for eps in PARTITION_LP_EPS:
        for variant in bounds.VARIANTS:
            assert fn(game, eps, variant).eta == pytest.approx(_reference_eta(lp, eps, variant), abs=1e-9)
    assert len(solved) == len(PARTITION_LP_EPS) * len(bounds.VARIANTS)
    assert all(abs(s["gap"]) <= 1e-9 and s["backend"] == "mehrotra" for s in solved)


def test_repeated_and_inputless_games_match_their_values(monkeypatch):
    solved = _counting_solves(monkeypatch)
    chsh2 = games.repeat(games.chsh(), 2)
    lp = _reference_lp(chsh2, "no_signalling")
    for variant in bounds.VARIANTS:
        assert bounds.eff_ns(chsh2, 0.1, variant).eta == pytest.approx(_reference_eta(lp, 0.1, variant), abs=1e-9)
    assert bounds.ns_game_value(chsh2) == pytest.approx(1.0, abs=1e-9)
    assert bounds.ns_game_value(games.mse()) == pytest.approx(1 / 9, abs=1e-9)
    assert len(solved) == 3 + 1 + 1
    # eff_ns(chsh^2, 0.1, "worst_case"): 112 independent head rows of 136
    # (see _ns_constraint_rows), 16 mass rows and 16 win rows
    assert max(s["rows"] for s in solved) == 144
    assert all(abs(s["gap"]) <= 1e-9 for s in solved)


def _random_program(seed):
    """Small integer programs, so that ties and degenerate vertices are
    common; odd seeds are feasible by construction."""
    r = np.random.default_rng([59, seed])
    n, m = int(r.integers(2, 7)), int(r.integers(2, 7))
    A = r.integers(-2, 3, size=(m, n)).astype(float)
    senses = [("<=", ">=", "=")[int(r.integers(0, 3))] for _ in range(m)]
    if seed % 2:
        b = A @ r.integers(0, 3, size=n) + np.where([s == "<=" for s in senses], 1.0, 0.0)
    else:
        b = r.integers(-2, 4, size=m).astype(float)
    ub = np.where(r.random(n) < 0.5, 3.0, np.inf) if seed % 3 else None
    c = r.integers(-2, 3, size=n).astype(float)
    return bounds.LinearProgram(c=c, A=A, senses=senses, b=b, maximize=bool(seed % 4), upper_bounds=ub)


def test_solve_lp_matches_highs_on_integer_programs():
    # 15 solve, 12 are infeasible and 3 unbounded; some have dependent rows
    outcomes = []
    for seed in range(30):
        lp = _random_program(seed)
        ref = _scipy_solve(lp)
        want = {0: "solved", 2: "LPInfeasibleError", 3: "LPUnboundedError"}[ref.status]
        try:
            res = bounds.solve_lp(lp)
        except GameboxError as err:
            assert type(err).__name__ == want, seed
            outcomes.append(want)
            continue
        assert want == "solved", seed
        assert res.value == pytest.approx(-ref.fun if lp.maximize else ref.fun, abs=1e-9), seed
        check = bounds.check_lp_certificate(lp, res.x, res.y)
        assert max(check["primal_residual"], check["dual_sign_error"], check["reduced_cost_violation"]) <= 1e-9
        assert check["gap"] == res.stats["gap"] and abs(check["gap"]) <= 1e-9
        outcomes.append(want)
    assert outcomes.count("solved") == 15
    assert outcomes.count("LPInfeasibleError") == 12 and outcomes.count("LPUnboundedError") == 3


def test_lp_certificate_measures_each_fault():
    # max x1 + x2  s.t.  x1 + x2 <= 2, x1 - x2 >= 0, x2 <= 1: optimum 2, with
    # y = (1, 0) and no positive reduced cost
    lp = bounds.LinearProgram(c=np.array([1.0, 1.0]), A=np.array([[1.0, 1.0], [1.0, -1.0]]), senses=("<=", ">="),
                              b=np.array([2.0, 0.0]), upper_bounds=np.array([np.inf, 1.0]))
    good = bounds.check_lp_certificate(lp, np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert good == {"primal_residual": 0.0, "dual_sign_error": 0.0, "reduced_cost_violation": 0.0, "gap": 0.0}
    res = bounds.solve_lp(lp)
    assert res.value == pytest.approx(2.0, abs=1e-9) and abs(res.stats["gap"]) <= 1e-9
    # a <= row exceeded, a >= row with a positive dual, a variable with no
    # upper bound left a positive reduced cost, a loose dual bound
    assert bounds.check_lp_certificate(lp, np.array([2.0, 0.5]), np.array([1.0, 0.0]))["primal_residual"] == 0.5
    assert bounds.check_lp_certificate(lp, np.array([1.0, 1.0]), np.array([1.0, 0.25]))["dual_sign_error"] == 0.25
    assert bounds.check_lp_certificate(lp, np.array([1.0, 1.0]), np.array([0.5, 0.0]))["reduced_cost_violation"] == 0.5
    assert bounds.check_lp_certificate(lp, np.array([1.0, 1.0]), np.array([1.5, 0.0]))["gap"] == 1.0
    # the same pair for the minimisation of -c: the duals change sign
    flipped = dataclasses.replace(lp, c=-lp.c, maximize=False)
    assert bounds.check_lp_certificate(flipped, np.array([1.0, 1.0]), np.array([-1.0, 0.0])) == good


def test_solve_lp_refuses_an_answer_that_fails_its_check(monkeypatch):
    lp = bounds.LinearProgram(c=np.array([1.0, 1.0]), A=np.array([[1.0, 2.0], [3.0, 1.0]]), senses=("<=", "<="),
                              b=np.array([4.0, 6.0]))
    real = bounds._mehrotra

    def off_by_1e_8(A, b, c):
        status, x, y, iterations = real(A, b, c)
        return status, x * (1 + 1e-8), y, iterations

    monkeypatch.setattr(bounds, "_mehrotra", off_by_1e_8)
    with pytest.raises(CapabilityError, match="fails its check"):
        bounds.solve_lp(lp)


def test_dependent_rows_are_scanned_only_when_the_normal_matrix_fails():
    # row 2 is twice row 1: the first normal matrix does not factor, the
    # row is left out and gets dual 0; with an inconsistent right-hand side
    # the program is infeasible
    lp = bounds.LinearProgram(
        c=np.array([1.0, 1.0]),
        A=np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]]),
        senses=("=", "=", "<="),
        b=np.array([1.0, 2.0, 0.5]),
    )
    res = bounds.solve_lp(lp)
    assert res.value == pytest.approx(1.0, abs=1e-9) and res.y[1] == 0.0
    with pytest.raises(LPInfeasibleError, match="dependent equality rows disagree"):
        bounds.solve_lp(dataclasses.replace(lp, b=np.array([1.0, 2.5, 0.5])))


def test_lp_stats_are_deterministic():
    lp = bounds.LinearProgram(
        c=np.array([1.0, 1.0]),
        A=np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]]),
        senses=("=", "=", "<="),
        b=np.array([1.0, 2.0, 0.5]),
    )
    first, second = bounds.solve_lp(lp), bounds.solve_lp(lp)
    assert first.stats == second.stats
    assert sorted(first.stats) == ["backend", "cols", "gap", "iterations", "rows"]
    assert (first.stats["rows"], first.stats["cols"], first.stats["backend"]) == (3, 2, "mehrotra")
    assert 0 < first.stats["iterations"] <= 20


def test_lp_solve_leaves_scipy_unimported():
    code = ("import sys\nfrom gamebox import bounds, games\n"
            "bounds.eff_ns(games.repeat(games.chsh(), 2), 0.1)\nassert 'scipy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True)


# ---------------------------------------------------------------------------
# factorization norms
# ---------------------------------------------------------------------------


def test_gamma2_star_single_row_is_l1():
    M = np.array([[0.5, -1.5, 2.0]])
    res = bounds.gamma2_star(M)
    assert res.kind == "exact"
    assert res.value == res.upper == pytest.approx(4.0, abs=1e-12)


def test_gamma2_star_chsh_sign_matrix():
    # the CHSH bias matrix: optimal value equals twice the Tsirelson bias,
    # 2 (cos^2(pi/8) - 1/2) = sqrt(2)/2
    F = np.array([[1.0, 1.0], [1.0, -1.0]]) / 4.0
    res = bounds.gamma2_star(F)
    oracle = 2.0 * (math.cos(math.pi / 8) ** 2 - 0.5)
    assert res.value == pytest.approx(oracle, abs=1e-9)
    assert res.kind == "lower_bound"
    assert res.value <= res.upper <= res.value * (1 + 1e-7)


def test_gamma2_star_scaling_and_transpose(rng):
    M = rng.normal(size=(2, 3))
    base = bounds.gamma2_star(M).value
    assert bounds.gamma2_star(3.0 * M).value == pytest.approx(3.0 * base, rel=1e-7)
    assert bounds.gamma2_star(M.T).value == pytest.approx(base, rel=1e-7)


@settings(max_examples=20)
@given(st.integers(0, 10**6))
def test_gamma2_star_bounded_by_entry_sum(seed):
    r = np.random.default_rng(seed)
    M = r.normal(size=(int(r.integers(1, 4)), int(r.integers(1, 4))))
    # |<u_x, v_y>| <= 1 for unit vectors, giving the entrywise-l1 cap
    assert bounds.gamma2_star(M).value <= float(np.sum(np.abs(M))) + 1e-7


def test_gamma2_star_large_matrices_report_lower_bound(rng):
    M = rng.normal(size=(3, 3))
    res = bounds.gamma2_star(M)
    assert res.kind == "lower_bound"
    # a valid lower bound can never exceed the entry sum either
    assert res.value <= float(np.sum(np.abs(M))) + 1e-7
    assert res.value <= res.upper


def test_gamma2_star_closed_forms_with_three_or_more_rows():
    # a 4 x 4 Hadamard matrix H has H H^T = 4 I, and gamma2*(H) = 8; a
    # rank-1 a b^T reaches ||a||_1 ||b||_1 with all vectors equal
    H = np.array([[1.0, 1.0], [1.0, -1.0]])
    res = bounds.gamma2_star(np.kron(H, H))
    assert abs(res.value - 8.0) <= 1e-7 and abs(res.upper - 8.0) <= 1e-7
    r = np.random.default_rng(3)
    for m, n in ((3, 3), (3, 5), (4, 4)):
        a, b = r.normal(size=m), r.normal(size=n)
        res = bounds.gamma2_star(np.outer(a, b))
        assert res.value == pytest.approx(np.sum(np.abs(a)) * np.sum(np.abs(b)), rel=1e-12)
        assert res.value <= res.upper <= res.value * (1 + 1e-7)


def _sign_norm(M):
    """||M||_{inf->1} = max over sign vectors s, t of s^T M t."""
    A = M if M.shape[0] <= M.shape[1] else M.T
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=A.shape[0])))
    return float(np.max(np.sum(np.abs(signs @ A), axis=1)))


def test_gamma2_star_bracket_lies_in_the_grothendieck_sandwich():
    # ||M||_{inf->1} <= gamma2*(M) <= K_G ||M||_{inf->1} (K_G < 1.783) and
    # gamma2*(M) <= sqrt(mn) ||M||_2.  Where gamma2* equals the sign norm,
    # ``value`` may stop below it inside the 1e-7 certified gap.
    r = np.random.default_rng(41)
    for _ in range(50):
        m, n = int(r.integers(3, 5)), int(r.integers(3, 6))
        M = r.normal(size=(m, n))
        res = bounds.gamma2_star(M)
        cut = _sign_norm(M)
        assert (1 - 1e-7) * cut <= res.value <= res.upper, M
        assert cut <= res.upper <= min(1.783 * cut, math.sqrt(m * n) * np.linalg.norm(M, 2)), M
        assert res.upper - res.value <= 1e-7 * res.upper, M


def test_gamma2_star_two_rows_brackets_a_dense_angle_scan():
    # an independent route: for unit u_0, u_1 with <u_0, u_1> = t and each
    # v_y aligned with its column, the objective is sum_y sqrt(r_y + s_y t);
    # its maximum on a dense grid of t can only lie below the optimum
    t = np.linspace(-1.0, 1.0, 20_001)
    r = np.random.default_rng(42)
    for _ in range(300):
        A = r.normal(size=(2, int(r.integers(2, 7))))
        rows, cross = A[0] ** 2 + A[1] ** 2, 2.0 * A[0] * A[1]
        best = float(np.max(np.sqrt(np.clip(rows + cross * t[:, None], 0.0, None)).sum(axis=1)))
        res = bounds.gamma2_star(A)
        assert res.kind == "lower_bound"
        assert best <= res.upper * (1 + 1e-12), A
        assert res.value >= best * (1 - 1e-7), A
    # the sign-flip class matrices that check_thm2 solves for the 2 x 4 game
    # and CHSH (uniform p), 8 + 2 classes: each bracket closes
    for n in (4, 2):
        for interior in itertools.product((1.0, -1.0), repeat=n - 1):
            canon = np.ones((2, n))
            canon[1, 1:] = interior
            res = bounds.gamma2_star(canon / (2 * n))
            assert res.upper - res.value <= 1e-12 * res.upper, (canon, res)


def test_gamma2_alpha_at_one_inverts_gamma2_star():
    # alpha = 1: the ratio reduces to <F, F' p> / gamma2*(F' p), maximised
    # by F' = F where it equals 1 / gamma2*(F p)
    F = np.array([[1.0, 1.0], [1.0, -1.0]])
    p = np.full((2, 2), 0.25)
    res = bounds.gamma2_alpha(F, p, 1.0)
    oracle = 1.0 / bounds.gamma2_star(F * p).value
    assert res.value == pytest.approx(oracle, abs=1e-9)


def test_gamma2_alpha_exhausts_small_and_refuses_large():
    F = np.ones((3, 5))
    with pytest.raises(BudgetExceededError):
        bounds.gamma2_alpha(F, np.full((3, 5), 1 / 15), 2.0)
    small = bounds.gamma2_alpha(np.ones((2, 2)), np.full((2, 2), 0.25), 2.0)
    assert small.kind == "lower_bound"


def test_gamma2_alpha_validation():
    with pytest.raises(DimensionMismatchError):
        bounds.gamma2_alpha(np.ones((2, 2)), np.full((2, 3), 1 / 6), 2.0)
    with pytest.raises(ValidationError):
        bounds.gamma2_alpha(np.ones((2, 2)), np.full((2, 2), 0.25), 0.5)  # alpha < 1


def _gamma2_alpha_full_loop(Fs, p, alphas):
    """Reference: the enumeration gamma2_alpha ran before the sign-flip
    class reduction, one gamma2_star solve per sign matrix in ``bits``
    order, a later matrix winning only on a strictly larger ratio.  It is
    batched over the matrices ``Fs`` (first axis) and ``alphas`` (second
    axis) so that all F of one shape share one pass; per (F, alpha) the
    arithmetic is the loop's (``np.sum`` over axis 1 adds each row in the
    order of the loop's 1-d sum).  Returns (values, kind, sign matrices)."""
    flat_p = p.reshape(-1)
    cells = flat_p.size
    flat_F = Fs.reshape(len(Fs), cells)
    alphas = np.asarray(alphas, dtype=float)[None, :]
    best = np.full((len(Fs), alphas.size), -math.inf)
    best_sign = np.full(best.shape + (cells,), np.nan)
    exact = True
    for bits in range(1 << cells):
        signs = np.array([1.0 if (bits >> k) & 1 == 0 else -1.0 for k in range(cells)])
        corr = np.sum(flat_F * signs * flat_p, axis=1)[:, None]
        g = bounds.gamma2_star((signs * flat_p).reshape(p.shape))
        if g.kind != "exact":
            exact = False
        denom = 2.0 * g.upper
        if denom <= 1e-15:
            continue
        cand = ((alphas + 1.0) * corr - (alphas - 1.0)) / denom
        better = cand > best
        best[better] = cand[better]
        best_sign[better] = signs
    return best, "exact" if exact else "lower_bound", best_sign.reshape(best.shape + p.shape)


def _memoized(fn):
    """``fn`` answering a repeated matrix from memory (gamma2_star is
    deterministic), so every F of a shape can be checked quickly."""
    seen = {}

    def wrapper(M):
        M = np.asarray(M, dtype=float)
        key = (M.shape, M.tobytes())
        if key not in seen:
            seen[key] = fn(M)
        return seen[key]

    return wrapper


@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_gamma2_alpha_matches_full_enumeration(shape, monkeypatch):
    cells = shape[0] * shape[1]
    Fs = np.array(list(itertools.product((1.0, -1.0), repeat=cells))).reshape(-1, *shape)
    ps = [np.full(shape, 1.0 / cells)]
    ps += [np.random.default_rng(seed).dirichlet(np.ones(cells)).reshape(shape) for seed in (1, 2)]
    alphas = (1.0, 1.5, 3.0)
    monkeypatch.setattr(bounds, "gamma2_star", _memoized(bounds.gamma2_star))
    for p in ps:
        values, kind, signs = _gamma2_alpha_full_loop(Fs, p, alphas)
        for i, F in enumerate(Fs):
            for j, alpha in enumerate(alphas):
                res = bounds.gamma2_alpha(F, p, alpha)
                assert abs(res.value - values[i, j]) <= 1e-12, (F, p, alpha)
                assert res.kind == kind
                assert np.array_equal(res.sign_matrix, signs[i, j]), (F, p, alpha)


def test_gamma2_star_is_constant_on_sign_flip_classes():
    # gamma2* itself is invariant under row and column flips, and the solve
    # brackets it: every member's value is below every member's upper
    rng = np.random.default_rng(33)
    for m, n in ((3, 3), (2, 3)):
        p = rng.dirichlet(np.ones(m * n)).reshape(m, n)
        for interior in itertools.product((1.0, -1.0), repeat=(m - 1) * (n - 1)):
            canon = np.ones((m, n))
            canon[1:, 1:] = np.reshape(interior, (m - 1, n - 1))
            results = []
            for _ in range(3):
                rows = rng.choice((-1.0, 1.0), size=(m, 1))
                cols = rng.choice((-1.0, 1.0), size=(1, n))
                results.append(bounds.gamma2_star(rows * canon * cols * p))
            assert max(g.value for g in results) <= min(g.upper for g in results), ((m, n), interior, results)


def test_gamma2_alpha_divides_by_the_upper_end(monkeypatch):
    # a bracket twice as wide above halves every ratio, and so the result
    F = np.random.default_rng(35).choice((-1.0, 1.0), size=(3, 3))
    p = np.full((3, 3), 1.0 / 9)
    want = bounds.gamma2_alpha(F, p, 1.5)
    assert want.upper is None
    real = bounds.gamma2_star
    monkeypatch.setattr(bounds, "gamma2_star",
                        lambda M: dataclasses.replace(real(M), upper=2.0 * real(M).upper))
    assert bounds.gamma2_alpha(F, p, 1.5).value == pytest.approx(want.value / 2.0, rel=1e-12)


def test_gamma2_alpha_at_its_cell_cap():
    # 3 x 4 = 12 cells: 64 sign-flip classes, each an alternating solve
    F = np.random.default_rng(34).choice((-1.0, 1.0), size=(3, 4))
    p = np.full((3, 4), 1.0 / 12)
    alpha = 1.5
    res = bounds.gamma2_alpha(F, p, alpha)
    assert res.kind == "lower_bound"
    at_F = ((alpha + 1.0) * np.sum(F * F * p) - (alpha - 1.0)) / (2.0 * bounds.gamma2_star(F * p).value)
    assert res.value >= at_F - 1e-12


# ---------------------------------------------------------------------------
# XOR games and the two-sided check
# ---------------------------------------------------------------------------


def test_xor_game_structure():
    f = np.array([[0, 0], [0, 1]])
    game = bounds.xor_game(f, np.full((2, 2), 0.25))
    np.testing.assert_array_equal(game.dense_V(), games.chsh().dense_V())


def test_check_thm2_chsh_zero_eps():
    f = np.array([[0, 0], [0, 1]])
    chk = bounds.check_thm2(f, np.full((2, 2), 0.25), 0.0)
    assert chk.holds
    assert chk.alpha == pytest.approx(1.0)
    assert chk.lower == pytest.approx(math.sqrt(2), abs=1e-9)  # 1/gamma2*(F/4)
    assert chk.lower <= chk.upper + 1e-6
    assert chk.upper == pytest.approx(2.0, abs=1e-6)


def test_check_thm2_half_eps_degenerates():
    f = np.array([[0, 0], [0, 1]])
    chk = bounds.check_thm2(f, np.full((2, 2), 0.25), 0.5)
    assert chk.lower == 0.0
    assert chk.alpha is None
    assert chk.holds


@settings(max_examples=15)
@given(st.integers(0, 10**6))
def test_check_thm2_random_predicates(seed):
    r = np.random.default_rng(seed)
    f = r.integers(0, 2, size=(2, 2))
    p = r.dirichlet(np.ones(4)).reshape(2, 2)
    for eps in (0.0, 0.1):
        assert bounds.check_thm2(f, p, eps).holds
