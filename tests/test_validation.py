"""The shared input checks: every numeric parameter refuses NaN and +-inf
with ``ValidationError``, and the closed ends of every interval stay
accepted."""

import math

import numpy as np
import pytest

from gamebox import bounds, diqkd, dpt, games
from gamebox.errors import BudgetExceededError, ValidationError, check_distribution, check_range

_PROTOCOL = dict(n=100, alpha=0.5, gamma=0.2, delta=0.05, seed=0)
_RATE = dict(alpha=0.04, gamma=0.01, delta=0.001, c=0.001, n=10**6, nu=0.3, beta=0.5, PrE=1.0)
_CASE_I = dict(l=2, n=1000, c=0.0005, nu=0.3, alphabet_sizes=(4, 4))
_CASE_II = dict(l=1, n=1000, c=1.5, eps=0.3, zeta=0.9, eff=1000.0, alphabet_sizes=(4, 4))
_SERFLING = dict(n=20, gamma=0.2, eps=0.2, pattern=np.zeros(20), trials=10, seed=0)
_RANDV = dict(t=10, n=50, c=0.01, l=2, nu=0.3, beta_const=0.1, alphabet_sizes=(4, 4))
_SUBSTATE = dict(
    sigma_XB=np.full((2, 2), 0.25), psi_X=np.full(2, 0.5), rho_B=np.full(2, 0.5), c=0.5, eps=0.1, delta0=0.1, delta1=0.1
)
_XOR_F = np.array([[0, 0], [0, 1]])
_SWEEP_CELL = dict(n=100, alpha=0.5, gamma=0.2, delta=0.05, c=0.001, nu=0.3, beta=0.5)
_UNIFORM = np.full((2, 2), 0.25)
_LP = dict(c=np.array([1.0, 0.0]), A=np.array([[-1.0, -1.0]]), senses=(">=",), b=np.array([-1.0]))


def _with(base, **changes):
    return {**base, **changes}


def _probe(seed, **changes):
    return dpt.RepetitionProbe(**_with(dict(game=games.chsh(), n=1, comm_bits=0, seed=seed), **changes))


def _cases():
    """(id, callable of one number) for every numeric input checked."""
    cases = [(f"ProtocolParams.{k}", lambda v, k=k: diqkd.ProtocolParams(**_with(_PROTOCOL, **{k: v})))
             for k in _PROTOCOL]
    cases += [(f"KeyRateParams.{k}", lambda v, k=k: diqkd.key_rate(diqkd.KeyRateParams(**_with(_RATE, **{k: v}))))
              for k in _RATE]
    cases += [(f"dpt_case_i_bound.{k}", lambda v, k=k: dpt.dpt_case_i_bound(**_with(_CASE_I, **{k: v})))
              for k in ("l", "n", "c", "nu", "exponent_const")]
    cases += [(f"dpt_case_ii_bound.{k}", lambda v, k=k: dpt.dpt_case_ii_bound(**_with(_CASE_II, **{k: v})))
              for k in ("l", "n", "c", "eps", "zeta", "eff", "exponent_const")]
    cases += [
        ("dpt_case_i_bound.alphabet_sizes", lambda v: dpt.dpt_case_i_bound(**_with(_CASE_I, alphabet_sizes=(v, 4)))),
        ("LeakageBudget.limit_bits", lambda v: diqkd.LeakageBudget(v)),
        ("LeakageBudget.used_bits", lambda v: diqkd.LeakageBudget(10, v)),
        ("HonestBoxes.delta", lambda v: diqkd.HonestBoxes(v, 0)),
        ("gamma2_alpha.alpha", lambda v: bounds.gamma2_alpha(np.ones((2, 2)), _UNIFORM, v)),
        ("gamma2_alpha.p", lambda v: bounds.gamma2_alpha(np.ones((2, 2)), np.array([[v, 0.25], [0.25, 0.25]]), 2.0)),
        ("gamma2_star.M", lambda v: bounds.gamma2_star(np.array([[v, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]))),
        ("binary_entropy.x", lambda v: diqkd.binary_entropy(v)),
        ("eff_ns.eps", lambda v: bounds.eff_ns(games.chsh(), v)),
        ("eff_local.eps", lambda v: bounds.eff_local(games.chsh(), v)),
        ("check_thm2.eps", lambda v: bounds.check_thm2(_XOR_F, _UNIFORM, v)),
        ("solve_lp.c", lambda v: bounds.solve_lp(bounds.LinearProgram(**_with(_LP, c=np.array([v, 0.0]))))),
        ("solve_lp.A", lambda v: bounds.solve_lp(bounds.LinearProgram(**_with(_LP, A=np.array([[v, 1.0]]))))),
        ("solve_lp.b", lambda v: bounds.solve_lp(bounds.LinearProgram(**_with(_LP, b=np.array([v]))))),
    ]
    cases += [(f"sweep.{k}", lambda v, k=k: diqkd.sweep([_with(_SWEEP_CELL, **{k: v})], 1, 0))
              for k in ("n", "alpha", "gamma", "delta", "c", "nu", "beta")]
    cases += [(f"serfling_mc.{k}", lambda v, k=k: diqkd.serfling_mc(**_with(_SERFLING, **{k: v})))
              for k in ("n", "gamma", "eps", "trials", "seed")]
    cases.append(("serfling_mc.pattern", lambda v: diqkd.serfling_mc(**_with(_SERFLING, pattern=np.full(20, v)))))
    cases += [(f"seesaw.{k}", lambda v, k=k: games.seesaw(games.chsh(), (2, 2), **{k: v}))
              for k in ("restarts", "seed")]
    cases.append(("seesaw.local_dims", lambda v: games.seesaw(games.chsh(), (2, v))))
    cases.append(("RepetitionProbe.seed", lambda v: dpt.empirical_repeated_value(_probe(v))))
    cases += [(f"RepetitionProbe.{k}", lambda v, k=k: dpt.empirical_repeated_value(_probe(0, **{k: v})))
              for k in ("n", "comm_bits", "search_budget")]
    cases += [
        ("classical_value.budget", lambda v: games.classical_value(games.chsh(), budget=v)),
        ("repeat.budget", lambda v: games.repeat(games.chsh(), 2, budget=v)),
    ]
    cases += [(f"randv_bound.{k}", lambda v, k=k: dpt.randv_bound(**_with(_RANDV, **{k: v})))
              for k in ("t", "n", "c", "l", "nu", "beta_const")]
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
        lambda: games.seesaw(games.chsh(), (2, 2), seed=-5),
        lambda: diqkd.serfling_mc(**_with(_SERFLING, seed=-1)),
        lambda: dpt.empirical_repeated_value(_probe(-1)),
        lambda: games.seesaw(games.chsh(), (2, 2), restarts=2.5),
        lambda: dpt.empirical_repeated_value(_probe(0, n=1.5)),
        lambda: dpt.empirical_repeated_value(_probe(0, comm_bits=1.5)),
        lambda: dpt.empirical_repeated_value(_probe(1.5)),
        lambda: games.repeat(games.chsh(), 1.5),
        lambda: diqkd.serfling_mc(**_with(_SERFLING, trials=10.5)),
        lambda: dpt.empirical_repeated_value(_probe(0, search_budget=-5)),
        lambda: games.classical_value(games.chsh(), budget=-1),
        lambda: games.classical_value(games.chsh(), budget=1e8),
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
        lambda: dpt.dpt_case_i_bound(**_with(_CASE_I, l=2.5)),
        lambda: dpt.dpt_case_ii_bound(**_with(_CASE_II, n=10.5)),
        lambda: dpt.randv_bound(**_with(_RANDV, t=0.5)),
        lambda: dpt.randv_bound(**_with(_RANDV, n=50.5)),
        lambda: dpt.randv_bound(**_with(_RANDV, l=2.5)),
        lambda: dpt.dpt_case_i_bound(**_with(_CASE_I, alphabet_sizes=(4.5, 4))),
        lambda: diqkd.KeyRateParams(**_with(_RATE, n=1000.5)),
        lambda: diqkd.AdversaryRound("eve", "alice_box", 2.5),
        lambda: diqkd.load_adversary({"rounds": [{"from": "eve", "to": "alice_box", "bits": 2.5, "function_id": "ones"}]}),
        lambda: diqkd.load_adversary({"rounds": [{"from": "eve", "to": "alice_box", "bits": "3", "function_id": "ones"}]}),
    ],
    ids=["seesaw-restarts-0", "seesaw-restarts-neg", "seesaw-seed-neg",
         "serfling-seed-neg", "probe-seed-neg", "seesaw-restarts-float",
         "probe-n-float", "probe-comm_bits-float", "probe-seed-float",
         "repeat-n-float", "serfling-trials-float", "probe-budget-neg",
         "classical-budget-neg", "classical-budget-float",
         "repeat-budget-neg", "protocol-n-float", "protocol-seed-float", "run_index-float", "sweep-runs-float",
         "sweep-cell-n-float", "sweep-seed-neg", "sweep-seed-float", "test_set-guess-float",
         "budget-limit-float", "budget-used-float", "dpt-l-float", "dpt-n-float", "randv-t-float",
         "randv-n-float", "randv-l-float", "alphabet-size-float",
         "keyrate-n-float", "adversary-bits-float", "load-adversary-bits-float",
         "load-adversary-bits-string"],
)
def test_out_of_range_count_or_seed_is_refused(call):
    # each of these crashed inside numpy, returned a wrong result or ran
    # with no cap; counts, seeds and budgets must be integers
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize(
    "value", [0.5, math.nan, 2.0, -1.0, 257], ids=["array-half", "array-nan", "array-two", "array-minus-one", "array-257"]
)
def test_serfling_pattern_entries_must_be_bits(monkeypatch, value):
    # a string with 10 good rounds of 20 is bad and can fool T, so a valid
    # pattern is checked for the sampler and sampled; one entry off {0, 1}
    # is refused before that
    draws = []
    monkeypatch.setattr(diqkd, "_check_population", lambda *args: draws.append(args))
    valid = np.concatenate([np.ones(10), np.zeros(10)])
    diqkd.serfling_mc(**_with(_SERFLING, pattern=valid))
    assert len(draws) == 1
    bad = valid.copy()
    bad[-1] = value
    draws.clear()
    with pytest.raises(ValidationError, match="only bits 0 and 1"):
        diqkd.serfling_mc(**_with(_SERFLING, pattern=bad, trials=2))
    assert draws == []


@pytest.mark.parametrize("prob", [math.nan, 2.0, -1.0, 257, math.inf], ids=["nan", "two", "minus-one", "257", "inf"])
def test_serfling_iid_probability_must_lie_in_the_unit_interval(monkeypatch, prob):
    # a scalar pattern is the P of i.i.d. Bernoulli(P) bits, refused before
    # any draw unless 0 <= P <= 1
    draws = []
    monkeypatch.setattr(diqkd.np.random, "default_rng", lambda *args: draws.append(args))
    with pytest.raises(ValidationError, match="iid probability"):
        diqkd.serfling_mc(**_with(_SERFLING, pattern=prob))
    assert draws == []


@pytest.mark.parametrize(
    "xs,ys",
    [([0], [-1]), ([0], [3]), ([0], [0.0]), ([2.0], [0]), ([True], [0]), ([0, 1], [0])],
    ids=["y-minus-1", "y-three", "y-float", "x-float", "x-bool", "lengths"],
)
def test_boxes_refuse_inputs_off_the_grid(xs, ys):
    # a negative input would wrap to another cell of a row
    channel = diqkd.LeakageChannel(diqkd.LeakageBudget(0))
    with pytest.raises(ValidationError):
        diqkd.HonestBoxes(0.1, 0).produce(xs, ys, channel)


@pytest.mark.parametrize(
    "call",
    [
        lambda: games.classical_value(games.chsh(), budget=0),
        lambda: games.repeat(games.chsh(), 2, budget=0),
    ],
    ids=["classical", "repeat"],
)
def test_zero_budget_is_a_valid_budget(call):
    with pytest.raises(BudgetExceededError):
        call()


@pytest.mark.parametrize("sense", ["<=", "=="])
def test_lp_refuses_a_sense_other_than_eq_or_ge(sense, monkeypatch):
    # the solver states max c.x over = and >= rows only; a <= row is refused
    # before any work, not solved as some other row
    calls = []
    monkeypatch.setattr(bounds, "_mehrotra", lambda *args: calls.append(args))
    with pytest.raises(ValidationError, match="senses"):
        bounds.solve_lp(bounds.LinearProgram(**_with(_LP, senses=(sense,))))
    assert calls == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: diqkd.ProtocolParams(n=1, alpha=1.0, gamma=1.0, delta=0.0, seed=0),
        lambda: diqkd.KeyRateParams(alpha=1.0, gamma=0.0, delta=0.0, c=0.0, n=1, nu=0.0, beta=0.0, PrE=1.0),
        lambda: diqkd.KeyRateParams(alpha=0.5, gamma=1.0, delta=0.125, c=0.1, n=10, nu=1.0, beta=1.0),
        lambda: dpt.dpt_case_i_bound(l=1, n=1, c=0.0, nu=0.0, alphabet_sizes=(2,)),
        lambda: dpt.dpt_case_ii_bound(l=1, n=1, c=1.0, eps=1.0, zeta=1.0, eff=1000.0, alphabet_sizes=(2,)),
        lambda: diqkd.LeakageBudget(0, 0),
        lambda: diqkd.HonestBoxes(0.0, 0),
        lambda: diqkd.HonestBoxes(0.5, 0),
        lambda: diqkd.ProtocolParams(n=diqkd._ROUNDS_LIMIT, alpha=0.5, gamma=0.2, delta=0.05),
        lambda: diqkd.serfling_mc(1, 1.0, 0.5, np.ones(1), 1, 0),
        lambda: dpt.randv_bound(0, 1, 0.0, 1, 0.0, 0.0, (2,)),
        lambda: dpt.randv_bound(1, 1, 0.0, 1, 1.0, 0.0, (2,)),
        lambda: dpt.dpt_case_i_bound(l=1, n=1, c=0.0, nu=0.0, alphabet_sizes=(1, 2)),
        lambda: dpt.substate_perturbation_check_classical(**_with(_SUBSTATE, c=0.0, eps=0.0, delta1=0.0)),
        lambda: dpt.substate_perturbation_check_classical(**_with(_SUBSTATE, eps=1.0)),
        lambda: bounds.gamma2_alpha(np.ones((2, 2)), np.array([[0.0, 0.5], [0.25, 0.25]]), 1.0),
        lambda: dpt.dpt_case_i_bound(l=2, n=1, c=0.0, nu=1.0, alphabet_sizes=(2,)),
        lambda: diqkd.serfling_mc(**_with(_SERFLING, pattern=0.0)),
        lambda: diqkd.serfling_mc(**_with(_SERFLING, pattern=1.0)),
        lambda: diqkd.binary_entropy(0.0),
        lambda: diqkd.binary_entropy(1.0),
        lambda: bounds.eff_ns(games.chsh(), 1.0),
        lambda: bounds.eff_local(games.chsh(), 0.0),
        lambda: bounds.check_thm2(_XOR_F, _UNIFORM, 0.0),
        lambda: bounds.check_thm2(_XOR_F, _UNIFORM, 0.5),
        lambda: games.repeat(games.chsh(), 1),
        lambda: games.seesaw(games.chsh(), (2, 2), restarts=1, seed=0),
        lambda: dpt.empirical_repeated_value(_probe(0)),
        lambda: bounds.eff_local(games.chsh(), 1.0),
        lambda: diqkd.sweep([_SWEEP_CELL], 0, 0),
        lambda: games.classical_value(games.chsh(), budget=16),
        lambda: dpt.empirical_repeated_value(_probe(0, search_budget=0)),
        lambda: dpt.dpt_case_ii_bound(l=1, n=1, c=1.0, eps=0.0, zeta=1.0, eff=1000.0, alphabet_sizes=(2,)),
        lambda: diqkd.LeakageBudget(0).debit(0),
    ],
)
def test_closed_interval_ends_are_accepted(call):
    call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: games.seesaw(games.chsh(), (2, 2), restarts=True),
        lambda: games.seesaw(games.chsh(), (2, 2), seed=False),
        lambda: games.seesaw(games.chsh(), (True, 2)),
        lambda: diqkd.ProtocolParams(**_with(_PROTOCOL, n=True)),
        lambda: diqkd.sweep([_with(_SWEEP_CELL, n=True)], 1, 0),
        lambda: games.repeat(games.chsh(), True),
        lambda: check_range("n", np.True_, 0, math.inf, integer=True),
    ],
    ids=["seesaw-restarts", "seesaw-seed", "seesaw-dims", "protocol-n", "sweep-n", "repeat-n", "numpy-bool"],
)
def test_bool_is_not_an_integer(call):
    # True ran as 1: one seesaw restart, a protocol of one round
    with pytest.raises(ValidationError, match="integer"):
        call()


@pytest.mark.parametrize("dims", [(2.9, 2), (2, 2.0), (2, "2"), (2, None)])
def test_seesaw_local_dimensions_must_be_integers(dims):
    # (2.9, 2) ran as (2, 2)
    with pytest.raises(ValidationError, match="local dimension must be an integer"):
        games.seesaw(games.chsh(), dims)


def test_seesaw_accepts_numpy_integer_dimensions():
    res = games.seesaw(games.chsh(), (np.int64(2), np.int32(2)), restarts=2, seed=0)
    assert res.certificate.local_dims == (2, 2)
    assert all(type(d) is int for d in res.certificate.local_dims)
    assert res.value == games.seesaw(games.chsh(), (2, 2), restarts=2, seed=0).value


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


def test_check_distribution_messages_print_plain_numbers():
    with pytest.raises(ValidationError) as bad_sum:
        check_distribution("p", np.array([0.45, 0.45]), neg_tol=1e-9, sum_tol=1e-9)
    assert str(bad_sum.value) == "p sums to 0.9, not 1"
    with pytest.raises(ValidationError) as negative:
        check_distribution("p", np.array([-0.5, 1.5]), neg_tol=1e-9, sum_tol=1e-9)
    assert str(negative.value) == "p has negative entry -0.5"
