"""The shared input checks: every numeric parameter refuses NaN and +-inf
with ``ValidationError``, and the closed ends of every interval stay
accepted."""

import math

import numpy as np
import pytest

from gamebox import bounds, diqkd, dpt, entropy, games, qcore
from gamebox.errors import BudgetExceededError, ValidationError, check_distribution, check_range

_PROTOCOL = dict(n=100, alpha=0.5, gamma=0.2, delta=0.05, seed=0)
_RATE = dict(alpha=0.04, gamma=0.01, delta=0.001, c=0.001, n=10**6, nu=0.3, beta=0.5, PrE=1.0)
_DPT = dict(l=2, n=1000, c=0.0005, nu=0.3, eps=0.3, zeta=0.9, alphabet_sizes=(4, 4), C_size=1, PrE=1.0)
_CHERNOFF = dict(delta=0.05, gamma=0.2, alpha=0.5, n=1000)
_SERFLING = dict(n=20, gamma=0.2, eps=0.2, pattern=np.zeros(20), trials=10, seed=0)
_RANDV = dict(t=10, n=50, c=0.01, l=2, nu=0.3, beta_const=0.1, alphabet_sizes=(4, 4))
_DELTA_OF = dict(C_size=1, PrE=0.5, n=100, alphabet_sizes=(4, 4))
_SUBSTATE = dict(
    sigma_XB=np.full((2, 2), 0.25), psi_X=np.full(2, 0.5), rho_B=np.full(2, 0.5), c=0.5, eps=0.1, delta0=0.1, delta1=0.1
)
_XOR_F = np.array([[0, 0], [0, 1]])
_SWEEP_CELL = dict(n=100, alpha=0.5, gamma=0.2, delta=0.05, c=0.001, nu=0.3, beta=0.5)
_ABORT_TEST_ARRAYS = (np.zeros((4, 2), dtype=int), np.zeros((4, 2), dtype=int), np.zeros(4, dtype=int), np.zeros(4, dtype=int))
_UNIFORM = np.full((2, 2), 0.25)
_LP = dict(c=np.array([1.0, 0.0]), A=np.array([[1.0, 1.0]]), senses=("<=",), b=np.array([1.0]))
_CONSTANT = games.ClassicalStrategy(((0, 0), (0, 0)))


def _with(base, **changes):
    return {**base, **changes}


def _dpt_bound(**changes):
    """Build the parameters, then evaluate the bound that reads each field."""
    params = dpt.DPTParams(**_with(_DPT, **changes))
    return dpt.dpt_case_i_bound(params), dpt.delta_of(params.C_size, params.PrE, params.n, params.alphabet_sizes)


def _probe(seed, **changes):
    return dpt.RepetitionProbe(**_with(dict(game=games.chsh(), n=1, comm_bits=0, seed=seed), **changes))


def _cases():
    """(id, callable of one number) for every numeric input checked."""
    cases = [(f"ProtocolParams.{k}", lambda v, k=k: diqkd.ProtocolParams(**_with(_PROTOCOL, **{k: v})))
             for k in _PROTOCOL]
    cases += [(f"KeyRateParams.{k}", lambda v, k=k: diqkd.key_rate(diqkd.KeyRateParams(**_with(_RATE, **{k: v}))))
              for k in _RATE]
    cases += [(f"DPTParams.{k}", lambda v, k=k: _dpt_bound(**{k: v}))
              for k in ("l", "n", "c", "nu", "eps", "zeta", "C_size", "PrE", "exponent_const")]
    cases += [
        ("DPTParams.c_j", lambda v: _dpt_bound(c=None, c_j=(v, 0.0))),
        ("DPTParams.alphabet_sizes", lambda v: _dpt_bound(alphabet_sizes=(v, 4))),
        ("LeakageBudget.limit_bits", lambda v: diqkd.LeakageBudget(v)),
        ("LeakageBudget.used_bits", lambda v: diqkd.LeakageBudget(10, v)),
        ("HonestBoxes.delta", lambda v: diqkd.HonestBoxes(v, 0)),
        ("dpt_case_ii_bound.eff", lambda v: dpt.dpt_case_ii_bound(dpt.DPTParams(**_with(_DPT, l=1, c=1.5)), v)),
        ("gamma2_alpha.alpha", lambda v: bounds.gamma2_alpha(np.ones((2, 2)), _UNIFORM, v)),
        ("gamma2_alpha.p", lambda v: bounds.gamma2_alpha(np.ones((2, 2)), np.array([[v, 0.25], [0.25, 0.25]]), 2.0)),
        ("gamma2_star.M", lambda v: bounds.gamma2_star(np.array([[v, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]))),
        ("smoothed_dmax_classical.eps", lambda v: entropy.smoothed_dmax_classical([0.5, 0.5], [0.5, 0.5], v)),
        ("cond_h0.eps", lambda v: entropy.cond_h0(_UNIFORM, v)),
        ("binary_entropy.x", lambda v: entropy.binary_entropy(v)),
        ("eff_ns.eps", lambda v: bounds.eff_ns(games.chsh(), v)),
        ("eff_local.eps", lambda v: bounds.eff_local(games.chsh(), v)),
        ("check_thm2.eps", lambda v: bounds.check_thm2(_XOR_F, _UNIFORM, v)),
        ("ClassicalDistribution.tol", lambda v: entropy.ClassicalDistribution([0.5, 0.5], tol=v)),
        ("JointTable.tol", lambda v: entropy.JointTable(_UNIFORM, tol=v)),
        ("DensityOperator.tol", lambda v: qcore.DensityOperator(np.eye(2) / 2, tol=v)),
        ("PureState.tol", lambda v: qcore.PureState(np.array([1.0, 0.0]), tol=v)),
        ("QuantumStrategy.validate.tol",
         lambda v: games.canonical_ms_strategy().validate(games.magic_square(), v)),
        ("Correlation.validate.tol", lambda v: games.Correlation(np.full((2, 2, 2, 2), 0.25), 2).validate(v)),
        ("abort_test.delta", lambda v: diqkd.abort_test(*_ABORT_TEST_ARRAYS, v)),
        ("solve_lp.c", lambda v: bounds.solve_lp(bounds.LinearProgram(**_with(_LP, c=np.array([v, 0.0]))))),
        ("solve_lp.A", lambda v: bounds.solve_lp(bounds.LinearProgram(**_with(_LP, A=np.array([[v, 1.0]]))))),
        ("solve_lp.b", lambda v: bounds.solve_lp(bounds.LinearProgram(**_with(_LP, b=np.array([v]))))),
    ]
    cases += [(f"sweep.{k}", lambda v, k=k: diqkd.sweep([_with(_SWEEP_CELL, **{k: v})], 1, 0))
              for k in ("n", "alpha", "gamma", "delta", "c", "nu", "beta")]
    cases += [(f"chernoff_abort_bound.{k}", lambda v, k=k: diqkd.chernoff_abort_bound(**_with(_CHERNOFF, **{k: v})))
              for k in _CHERNOFF]
    cases += [(f"serfling_mc.{k}", lambda v, k=k: diqkd.serfling_mc(**_with(_SERFLING, **{k: v})))
              for k in ("n", "gamma", "eps", "trials", "seed")]
    cases += [(f"seesaw.{k}", lambda v, k=k: games.seesaw(games.chsh(), (2, 2), **{k: v}))
              for k in ("restarts", "max_iters", "tol", "seed")]
    cases.append(("RepetitionProbe.seed", lambda v: dpt.empirical_repeated_value(_probe(v))))
    cases += [(f"RepetitionProbe.{k}", lambda v, k=k: dpt.empirical_repeated_value(_probe(0, **{k: v})))
              for k in ("n", "comm_bits", "search_budget")]
    cases += [
        ("classical_value.budget", lambda v: games.classical_value(games.chsh(), budget=v)),
        ("ns_game_value.budget", lambda v: bounds.ns_game_value(games.chsh(), budget=v)),
        ("eff_local.budget", lambda v: bounds.eff_local(games.chsh(), 0.1, budget=v)),
        ("repeat.budget", lambda v: games.repeat(games.chsh(), 2, budget=v)),
    ]
    cases += [(f"randv_bound.{k}", lambda v, k=k: dpt.randv_bound(**_with(_RANDV, **{k: v})))
              for k in ("t", "n", "c", "l", "nu", "beta_const")]
    cases += [(f"delta_of.{k}", lambda v, k=k: dpt.delta_of(**_with(_DELTA_OF, **{k: v})))
              for k in ("C_size", "PrE", "n")]
    cases += [
        (f"substate_perturbation_check_classical.{k}",
         lambda v, k=k: dpt.substate_perturbation_check_classical(**_with(_SUBSTATE, **{k: v})))
        for k in ("c", "eps", "delta0", "delta1")
    ]
    return cases


_CASES = _cases()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [c for _, c in _CASES], ids=[i for i, _ in _CASES])
def test_non_finite_number_is_refused(call, value):
    with pytest.raises(ValidationError):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: games.seesaw(games.chsh(), (2, 2), restarts=0),
        lambda: games.seesaw(games.chsh(), (2, 2), restarts=-1),
        lambda: games.seesaw(games.chsh(), (2, 2), max_iters=0),
        lambda: games.seesaw(games.chsh(), (2, 2), tol=-1e-12),
        lambda: games.seesaw(games.chsh(), (2, 2), seed=-5),
        lambda: diqkd.serfling_mc(**_with(_SERFLING, seed=-1)),
        lambda: dpt.empirical_repeated_value(_probe(-1)),
        lambda: games.seesaw(games.chsh(), (2, 2), restarts=2.5),
        lambda: games.seesaw(games.chsh(), (2, 2), max_iters=2.5),
        lambda: games.random_subset_value(games.chsh(), 2.5, 1, _CONSTANT),
        lambda: games.random_subset_value(games.chsh(), 2, 1, _CONSTANT, trials=10.5),
        lambda: dpt.empirical_repeated_value(_probe(0, n=1.5)),
        lambda: dpt.empirical_repeated_value(_probe(0, comm_bits=1.5)),
        lambda: dpt.empirical_repeated_value(_probe(1.5)),
        lambda: games.repeat(games.chsh(), 1.5),
        lambda: diqkd.serfling_mc(**_with(_SERFLING, trials=10.5)),
        lambda: dpt.empirical_repeated_value(_probe(0, search_budget=-5)),
        lambda: games.classical_value(games.chsh(), budget=-1),
        lambda: games.classical_value(games.chsh(), budget=1e8),
        lambda: bounds.ns_game_value(games.chsh(), budget=-1),
        lambda: bounds.eff_local(games.chsh(), 0.1, budget=-1),
        lambda: games.repeat(games.chsh(), 2, budget=-1),
        lambda: diqkd.ProtocolParams(**_with(_PROTOCOL, n=100.5)),
        lambda: diqkd.ProtocolParams(**_with(_PROTOCOL, seed=1.5)),
        lambda: diqkd.run_protocol(diqkd.ProtocolParams(**_PROTOCOL), diqkd.baseline_cheating_boxes(), run_index=1.5),
        lambda: diqkd.sweep([_SWEEP_CELL], 2.5, 0),
        lambda: diqkd.sweep([_with(_SWEEP_CELL, n=100.7)], 0, 0),
        lambda: diqkd.sweep([_SWEEP_CELL], 0, -1),
        lambda: diqkd.sweep([_SWEEP_CELL], 0, 1.5),
        lambda: diqkd.test_set_cheating_boxes(2.5),
        lambda: diqkd.LeakageBudget(10.5),
        lambda: diqkd.LeakageBudget(10, 0.5),
    ],
    ids=["seesaw-restarts-0", "seesaw-restarts-neg", "seesaw-max_iters-0", "seesaw-tol-neg", "seesaw-seed-neg",
         "serfling-seed-neg", "probe-seed-neg", "seesaw-restarts-float", "seesaw-max_iters-float",
         "subset-n-float", "subset-trials-float", "probe-n-float", "probe-comm_bits-float", "probe-seed-float",
         "repeat-n-float", "serfling-trials-float", "probe-budget-neg",
         "classical-budget-neg", "classical-budget-float", "ns-budget-neg", "eff_local-budget-neg",
         "repeat-budget-neg", "protocol-n-float", "protocol-seed-float", "run_index-float", "sweep-runs-float",
         "sweep-cell-n-float", "sweep-seed-neg", "sweep-seed-float", "test_set-guess-float",
         "budget-limit-float", "budget-used-float"],
)
def test_out_of_range_count_or_seed_is_refused(call):
    # each of these crashed inside numpy, returned a wrong result or ran
    # with no cap; counts, seeds and budgets must be integers
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: games.classical_value(games.chsh(), budget=0),
        lambda: bounds.ns_game_value(games.chsh(), budget=0),
        lambda: bounds.eff_local(games.chsh(), 0.1, budget=0),
        lambda: games.repeat(games.chsh(), 2, budget=0),
    ],
    ids=["classical", "ns", "eff_local", "repeat"],
)
def test_zero_budget_is_a_valid_budget(call):
    with pytest.raises(BudgetExceededError):
        call()


@pytest.mark.parametrize("value", [math.nan, -math.inf], ids=["nan", "-inf"])
def test_lp_upper_bound_must_be_a_number_or_plus_inf(value):
    lp = bounds.LinearProgram(**_with(_LP, upper_bounds=np.array([value, 1.0])))
    with pytest.raises(ValidationError):
        bounds.solve_lp(lp)


@pytest.mark.parametrize(
    "call",
    [
        lambda: diqkd.ProtocolParams(n=1, alpha=1.0, gamma=1.0, delta=0.0, seed=0),
        lambda: diqkd.KeyRateParams(alpha=1.0, gamma=0.0, delta=0.0, c=0.0, n=1, nu=0.0, beta=0.0, PrE=1.0),
        lambda: diqkd.KeyRateParams(alpha=0.5, gamma=1.0, delta=0.125, c=0.1, n=10, nu=1.0, beta=1.0),
        lambda: dpt.DPTParams(l=1, n=1, c=0.0, eps=0.0, zeta=0.0, nu=0.0, C_size=0, PrE=1.0),
        lambda: dpt.DPTParams(l=2, n=1, c_j=(0.0, 0.0), eps=1.0, zeta=1.0, nu=1.0),
        lambda: diqkd.LeakageBudget(0, 0),
        lambda: diqkd.HonestBoxes(0.0, 0),
        lambda: diqkd.HonestBoxes(0.5, 0),
        lambda: diqkd.chernoff_abort_bound(0.0, 1.0, 1.0, 1),
        lambda: diqkd.serfling_mc(1, 1.0, 0.5, np.ones(1), 1, 0),
        lambda: dpt.randv_bound(0, 1, 0.0, 1, 0.0, 0.0, (2,)),
        lambda: dpt.randv_bound(1, 1, 0.0, 1, 1.0, 0.0, (2,)),
        lambda: dpt.delta_of(0, 1.0, 1, (2,)),
        lambda: dpt.substate_perturbation_check_classical(**_with(_SUBSTATE, c=0.0, eps=0.0, delta1=0.0)),
        lambda: dpt.substate_perturbation_check_classical(**_with(_SUBSTATE, eps=1.0)),
        lambda: bounds.gamma2_alpha(np.ones((2, 2)), np.array([[0.0, 0.5], [0.25, 0.25]]), 1.0),
        lambda: qcore.DensityOperator(np.eye(2) / 2, tol=0.0),
        lambda: qcore.PureState(np.array([1.0, 0.0]), tol=0.0),
        lambda: games.Correlation(np.full((2, 2, 2, 2), 0.25), 2).validate(0.0),
        lambda: diqkd.abort_test(*_ABORT_TEST_ARRAYS, 0.0),
        lambda: diqkd.abort_test(*_ABORT_TEST_ARRAYS, 0.5),
        lambda: entropy.smoothed_dmax_classical([0.5, 0.5], [0.5, 0.5], 0.0),
        lambda: entropy.cond_h0(_UNIFORM, 0.0),
        lambda: entropy.binary_entropy(0.0),
        lambda: entropy.binary_entropy(1.0),
        lambda: bounds.eff_ns(games.chsh(), 1.0),
        lambda: bounds.eff_local(games.chsh(), 0.0),
        lambda: bounds.check_thm2(_XOR_F, _UNIFORM, 0.0),
        lambda: bounds.check_thm2(_XOR_F, _UNIFORM, 0.5),
        lambda: games.repeat(games.chsh(), 1),
        lambda: games.seesaw(games.chsh(), (2, 2), restarts=1, max_iters=1, tol=0.0, seed=0),
        lambda: dpt.empirical_repeated_value(_probe(0)),
        lambda: bounds.solve_lp(bounds.LinearProgram(**_with(_LP, upper_bounds=np.array([math.inf, 1.0])))),
        lambda: games.random_subset_value(games.chsh(), 2, 0, games.ClassicalStrategy(((0, 0), (0, 0))), trials=1),
        lambda: games.random_subset_value(games.chsh(), 2, 2, games.ClassicalStrategy(((0, 0), (0, 0))), trials=1),
        lambda: dpt.empirical_repeated_value(_probe(0, search_budget=0)),
    ],
)
def test_closed_interval_ends_are_accepted(call):
    call()


def test_check_range_ends_and_types():
    assert check_range("x", 0.0, 0.0, 1.0) == 0.0
    assert check_range("x", np.float64(1.0), 0.0, 1.0) == 1.0
    assert check_range("n", 10**400, 1, math.inf) == 10**400  # an int is never rounded
    assert check_range("n", np.int64(3), 1, math.inf, integer=True) == 3
    for value in (2.0, 2.5, "2", None, math.nan):
        with pytest.raises(ValidationError, match="integer"):
            check_range("n", value, 1, math.inf, integer=True)
    for value, kw in [(0.0, dict(lo_open=True)), (1.0, dict(hi_open=True)), ("0.5", {}), (None, {})]:
        with pytest.raises(ValidationError):
            check_range("x", value, 0.0, 1.0, **kw)


def test_check_distribution_tolerances():
    np.testing.assert_array_equal(check_distribution("p", [0.5, 0.5], neg_tol=0.0, sum_tol=0.0), [0.5, 0.5])
    check_distribution("p", [-1e-10, 1.0], neg_tol=1e-9, sum_tol=1e-9)
    for table in ([], [-1e-10, 1.0], [0.5, 0.49], [math.nan, 1.0]):
        with pytest.raises(ValidationError):
            check_distribution("p", table, neg_tol=1e-12, sum_tol=1e-9)
