"""Closed-form product bounds, the repetition probe, and the classical
substate perturbation check."""

import itertools
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from gamebox import dpt, games
from gamebox.errors import (
    CapabilityError,
    GateViolationError,
    ValidationError,
)

# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

_CASE_I = dict(l=2, n=10, c=0.0001, nu=0.5, alphabet_sizes=(2, 2))
_CASE_II = dict(l=1, n=50, c=2.0, eps=0.5, zeta=0.9, eff=1e6, alphabet_sizes=(2, 2))


def test_params_validation():
    # each bound checks its own arguments, the alphabet too where the
    # bound is vacuous (case i) or its gate fails (case ii)
    for bad in (dict(l=0), dict(n=0), dict(l=1.5), dict(c=-0.1), dict(nu=1.5), dict(exponent_const=0.0),
                dict(c=0.5, alphabet_sizes=(0, 4)), dict(c=0.5, alphabet_sizes=())):
        with pytest.raises(ValidationError):
            dpt.dpt_case_i_bound(**{**_CASE_I, **bad})
    for bad in (dict(l=0), dict(n=0), dict(c=-1.0), dict(eps=1.5), dict(zeta=-0.1), dict(exponent_const=-1.0),
                dict(c=0.5, alphabet_sizes=(0, 4))):
        with pytest.raises(ValidationError):
            dpt.dpt_case_ii_bound(**{**_CASE_II, **bad})


def test_delta_of_arithmetic():
    # (|C| log2 prod|A| + log2(1/PrE)) / n, recomputed by hand:
    # (2*4 + 2) / 20 = 0.5
    assert dpt.delta_of(2, 0.25, 20, (4, 4)) == pytest.approx(0.5, abs=1e-15)
    assert dpt.delta_of(0, 1.0, 7, (2,)) == 0.0
    with pytest.raises(ValidationError):
        dpt.delta_of(2, 0.0, 20, (4, 4))


def test_case_i_bound_arithmetic():
    params = dict(l=2, n=400, c=0.001, nu=0.4, alphabet_sizes=(4, 4))
    base = 1 - 0.4 / 2 + 4 * math.sqrt(2 * 0.001)
    exponent = math.floor(0.4**2 * 400 / (4 * math.log2(16)))
    assert dpt.dpt_case_i_bound(**params) == pytest.approx(base**exponent, rel=1e-12)
    assert dpt.dpt_case_i_bound(**params) < 1.0
    # exponent_const scales the exponent before the floor
    assert dpt.dpt_case_i_bound(**params, exponent_const=2.0) == pytest.approx(
        base ** math.floor(2 * 0.4**2 * 400 / (4 * math.log2(16))), rel=1e-12
    )


def test_case_i_bound_vacuous_when_communication_dominates():
    # 4 sqrt(l c) >= nu/2 pushes the base to 1: nothing is certified
    params = dict(l=2, n=100, c=0.01, nu=0.3, alphabet_sizes=(4, 4))
    assert 1 - 0.3 / 2 + 4 * math.sqrt(0.02) > 1.0
    assert dpt.dpt_case_i_bound(**params) == 1.0


def test_case_i_bound_requires_small_communication():
    with pytest.raises(ValidationError):
        dpt.dpt_case_i_bound(l=2, n=100, c=1.5, nu=0.3, alphabet_sizes=(4, 4))


def test_case_i_bound_decreasing_in_n():
    values = [dpt.dpt_case_i_bound(l=2, n=n, c=0.0001, nu=0.5, alphabet_sizes=(4, 4)) for n in (100, 400, 1600)]
    assert values[0] > values[1] > values[2]


def test_case_ii_bound_arithmetic_and_gate():
    eff = _CASE_II["eff"]
    assert 1.0 <= 2.0 < 0.9**2 * eff / 270.0
    expected = 0.5 ** math.floor(50 / math.log2(4))
    assert dpt.dpt_case_ii_bound(**_CASE_II) == pytest.approx(expected, rel=1e-12)
    assert expected == 0.5**25

    with pytest.raises(GateViolationError):
        dpt.dpt_case_ii_bound(**{**_CASE_II, "c": 0.5})  # c below 1
    with pytest.raises(GateViolationError):
        dpt.dpt_case_ii_bound(**{**_CASE_II, "eff": 100.0})  # ceiling too low
    with pytest.raises(ValidationError):
        dpt.dpt_case_ii_bound(**{**_CASE_II, "eff": 0.5})  # eff below 1


def test_randv_bound_mse_mode_arithmetic():
    # base (1 - 0 + 1*(0 + sqrt(10/1000)))/9 = 1.1/9 over t = 10 copies
    got = dpt.randv_bound(10, 1000, 0.0, 2, 0.0, 1.0, mode="mse")
    assert got == pytest.approx((1.1 / 9) ** 10, rel=1e-12)


def test_randv_bound_generic_arithmetic():
    t, n, c, l, nu, beta = 4, 64, 0.01, 2, 0.9, 0.05
    base = 1 - nu + beta * (math.sqrt(l * c) + l * math.sqrt(t * math.log2(16) / n))
    got = dpt.randv_bound(t, n, c, l, nu, beta, alphabet_sizes=(4, 4))
    assert got == pytest.approx(base**t, rel=1e-12)


def test_randv_bound_edges():
    assert dpt.randv_bound(0, 10, 0.0, 2, 0.5, 1.0, alphabet_sizes=(4, 4)) == 1.0
    # a base driven negative clamps to zero
    assert dpt.randv_bound(5, 10, 0.0, 1, 1.0, 0.0, alphabet_sizes=(2, 2)) == 0.0
    with pytest.raises(ValidationError):
        dpt.randv_bound(11, 10, 0.0, 2, 0.5, 1.0, alphabet_sizes=(4, 4))
    with pytest.raises(ValidationError):
        dpt.randv_bound(2, 10, 0.0, 2, 0.5, 1.0, mode="bogus")
    # alphabet sizes are checked whenever given, also where the bound does
    # not read them; generic mode needs them even at t = 0
    for t, mode in [(0, "generic"), (0, "mse"), (2, "mse")]:
        with pytest.raises(ValidationError, match="alphabet size"):
            dpt.randv_bound(t, 10, 0.0, 2, 0.5, 1.0, alphabet_sizes=(0, -3), mode=mode)
    with pytest.raises(ValidationError, match="alphabet_sizes required"):
        dpt.randv_bound(0, 10, 0.0, 2, 0.5, 1.0)
    assert dpt.randv_bound(0, 10, 0.0, 2, 0.5, 1.0, mode="mse") == 1.0


@given(st.integers(1, 8), st.floats(0.0, 0.4), st.floats(0.0, 0.2))
def test_randv_bound_monotone_in_slope_and_communication(t, nu, c):
    # a stronger certified slope tightens the bound; extra communication
    # loosens it
    mid = dpt.randv_bound(t, 16, c, 2, nu, 0.1, alphabet_sizes=(4, 4))
    harder = dpt.randv_bound(t, 16, c, 2, nu + 0.1, 0.1, alphabet_sizes=(4, 4))
    leakier = dpt.randv_bound(t, 16, c + 0.1, 2, nu, 0.1, alphabet_sizes=(4, 4))
    assert harder <= mid + 1e-12
    assert leakier >= mid - 1e-12


# ---------------------------------------------------------------------------
# repetition probe
# ---------------------------------------------------------------------------


def _replay_certificate(game, n, cert):
    """Evaluate a message-passing certificate by direct enumeration,
    independent of the vectorised scoring used inside the search."""
    nx, ny = game.input_sizes
    ma, mb = game.output_sizes
    f_A, f_B = np.asarray(cert["f_A"]), np.asarray(cert["f_B"])
    g_A, g_B = np.asarray(cert["g_A"]), np.asarray(cert["g_B"])
    total = 0.0
    for X in itertools.product(range(nx), repeat=n):
        xi = int(np.ravel_multi_index(X, (nx,) * n)) if n > 1 else X[0]
        for Y in itertools.product(range(ny), repeat=n):
            yi = int(np.ravel_multi_index(Y, (ny,) * n)) if n > 1 else Y[0]
            a = np.unravel_index(int(f_A[xi, g_B[yi]]), (ma,) * n)
            b = np.unravel_index(int(f_B[yi, g_A[xi]]), (mb,) * n)
            if all(game.win((a[c], b[c]), (X[c], Y[c])) for c in range(n)):
                total += math.prod(float(game.p[X[c], Y[c]]) for c in range(n))
    return total


def test_probe_single_copy_no_communication_is_classical_value():
    for game in (games.chsh(), games.magic_square()):
        probe = dpt.empirical_repeated_value(dpt.RepetitionProbe(game, n=1, comm_bits=0))
        assert probe.kind == "exhaustive"
        assert probe.best_value == pytest.approx(games.classical_value(game).value, abs=1e-12)
        assert _replay_certificate(game, 1, probe.certificate) == pytest.approx(
            probe.best_value, abs=1e-12
        )


def test_probe_one_bit_wins_chsh():
    # Alice forwards her input; Bob answers x & y while Alice answers 0
    probe = dpt.empirical_repeated_value(dpt.RepetitionProbe(games.chsh(), n=1, comm_bits=1))
    assert probe.kind == "exhaustive"
    assert probe.best_value == pytest.approx(1.0, abs=1e-12)


def test_probe_two_bits_win_magic_square():
    probe = dpt.empirical_repeated_value(dpt.RepetitionProbe(games.magic_square(), n=1, comm_bits=2))
    assert probe.kind == "exhaustive"
    assert probe.best_value == pytest.approx(1.0, abs=1e-12)
    assert _replay_certificate(games.magic_square(), 1, probe.certificate) == pytest.approx(1.0, abs=1e-12)


def test_probe_two_copies_magic_square_beats_product():
    game = games.magic_square()
    probe = dpt.empirical_repeated_value(dpt.RepetitionProbe(game, n=2, comm_bits=0, seed=0))
    assert probe.kind == "lower_bound"
    assert probe.best_value >= (8 / 9) ** 2 - 1e-12
    # the hill climb's claim must replay exactly
    assert _replay_certificate(game, 2, probe.certificate) == pytest.approx(
        probe.best_value, abs=1e-12
    )


def test_probe_deterministic_for_fixed_seed():
    game = games.magic_square()
    a = dpt.empirical_repeated_value(dpt.RepetitionProbe(game, n=2, comm_bits=0, seed=3))
    b = dpt.empirical_repeated_value(dpt.RepetitionProbe(game, n=2, comm_bits=0, seed=3))
    assert a.best_value == b.best_value
    assert a.certificate == b.certificate


def test_probe_validation():
    with pytest.raises(ValidationError):
        dpt.empirical_repeated_value(dpt.RepetitionProbe(games.chsh(), n=1, comm_bits=7))
    with pytest.raises(ValidationError):
        dpt.empirical_repeated_value(dpt.RepetitionProbe(games.chsh(), n=0, comm_bits=0))
    with pytest.raises(CapabilityError):
        dpt.empirical_repeated_value(dpt.RepetitionProbe(games.mse(), n=1, comm_bits=0))


def test_probe_budget_switches_to_hill_climb():
    # a tiny budget forces the variational route even at n=1; it may not be
    # exact but must stay a valid lower bound and a replayable protocol
    game = games.chsh()
    probe = dpt.empirical_repeated_value(
        dpt.RepetitionProbe(game, n=1, comm_bits=0, search_budget=1)
    )
    assert probe.kind == "lower_bound"
    assert probe.best_value <= 1.0
    assert probe.best_value >= games.classical_value(game).value - 1e-12  # product start
    assert _replay_certificate(game, 1, probe.certificate) == pytest.approx(
        probe.best_value, abs=1e-12
    )


def test_probe_ascent_runs_past_the_product_start_budget():
    # 10^16 single-copy strategies: no product start, only the seeded ones
    r = np.random.default_rng(5)
    game = games.GamePredicate(
        inputs=(tuple(range(8)),) * 2, outputs=(tuple(range(10)),) * 2, p=np.full((8, 8), 1 / 64),
        V=r.random((10, 10, 8, 8)) < 0.3,
    )
    probe = dpt.empirical_repeated_value(dpt.RepetitionProbe(game, n=1, comm_bits=0))
    assert probe.kind == "lower_bound"
    assert _replay_certificate(game, 1, probe.certificate) == pytest.approx(probe.best_value, abs=1e-12)


def _protocol_wins(PV, g_A, g_B, f_A, f_B):
    """Values of a batch of protocols, each map with a leading batch axis."""
    NX, NY = PV.shape[:2]
    x, y, k = np.arange(NX)[:, None], np.arange(NY)[None, :], np.arange(len(f_A))[:, None, None]
    return PV[x, y, f_A[k, x, g_B[:, None, :]], f_B[k, y, g_A[:, :, None]]].sum(axis=(1, 2))


def _block_gain(PV, cert, name):
    """How much more than ``cert`` the best choice of its block ``name``
    wins, the other three maps fixed, over every table of that block."""
    NX, NY, MA, MB = PV.shape
    mA, mB = 2 ** cert["kA"], 2 ** cert["kB"]
    shapes = {"g_A": (mA, (NX,)), "g_B": (mB, (NY,)), "f_A": (MA, (NX, mB)), "f_B": (MB, (NY, mA))}
    maps = {block: np.asarray(cert[block]).reshape(shape)[None] for block, (_, shape) in shapes.items()}
    choices, shape = shapes[name]
    tables = np.array(list(itertools.product(range(choices), repeat=math.prod(shape)))).reshape(-1, *shape)
    batch = {block: np.broadcast_to(m, (len(tables), *m.shape[1:])) for block, m in maps.items()}
    return _protocol_wins(PV, **{**batch, name: tables}).max() - _protocol_wins(PV, **maps)[0]


@pytest.mark.parametrize("seed", range(20))
def test_best_response_helpers_reach_the_block_maximum(seed):
    # Alice's blocks on PV, Bob's on the transposed tensor, at random maps
    # with one bit each way (at most 3^(3*2) tables per block)
    game = _random_two_player_game(seed)
    PV = dpt._repeated_tensors(game, 1)
    PVt = PV.transpose(1, 0, 3, 2)
    NX, NY, MA, MB = PV.shape
    r = np.random.default_rng([seed, 5])
    maps = {"g_A": r.integers(0, 2, NX), "g_B": r.integers(0, 2, NY),
            "f_A": r.integers(0, MA, (NX, 2)), "f_B": r.integers(0, MB, (NY, 2))}
    g_A, g_B, f_A, f_B = maps.values()
    responses = {
        "f_A": dpt._best_outputs(PV, f_A, f_B, g_A, g_B),
        "f_B": dpt._best_outputs(PVt, f_B, f_A, g_B, g_A),
        "g_A": dpt._best_messages(PV, f_A, f_B, g_B),
        "g_B": dpt._best_messages(PVt, f_B, f_A, g_A),
    }
    for name, response in responses.items():
        assert _block_gain(PV, {"kA": 1, "kB": 1, **maps, name: response}, name) <= 1e-12, name
    # an answer column for a message nobody sends keeps its entries
    for f, f_new, g_other in ((f_A, responses["f_A"], g_B), (f_B, responses["f_B"], g_A)):
        unsent = np.bincount(g_other, minlength=2) == 0
        assert np.array_equal(f_new[:, unsent], f[:, unsent])


def _ref_ascend(PV, g_A, g_B, f_A, f_B, mA, mB, max_passes=200):
    """The block ascent as loops over each input and message, as the probe
    ran it before its array best responses; updates the maps in place and
    returns the value."""
    NX, NY, MA, MB = PV.shape
    value = dpt._protocol_value(PV, g_A, g_B, f_A, f_B)
    for _ in range(max_passes):
        b_sel = f_B[:, g_A].T
        for x in range(NX):
            T = np.take_along_axis(PV[x], b_sel[x][:, None, None], axis=2)[:, :, 0]
            for m in range(mB):
                mask = g_B == m
                if mask.any():
                    f_A[x, m] = int(np.argmax(T[mask].sum(axis=0)))
        a_sel = f_A[np.arange(NX)[:, None], g_B[None, :]]
        for y in range(NY):
            T = np.take_along_axis(PV[:, y], a_sel[:, y][:, None, None], axis=1)[:, 0, :]
            for m in range(mA):
                mask = g_A == m
                if mask.any():
                    f_B[y, m] = int(np.argmax(T[mask].sum(axis=0)))
        a_sel = f_A[np.arange(NX)[:, None], g_B[None, :]]
        for x in range(NX):
            g_A[x] = int(np.argmax([float(PV[x, np.arange(NY), a_sel[x], f_B[:, m]].sum()) for m in range(mA)]))
        b_sel = f_B[:, g_A].T
        for y in range(NY):
            g_B[y] = int(np.argmax([float(PV[np.arange(NX), y, f_A[:, m], b_sel[:, y]].sum()) for m in range(mB)]))
        new_value = dpt._protocol_value(PV, g_A, g_B, f_A, f_B)
        if new_value <= value + 1e-15:
            value = max(value, new_value)
            break
        value = new_value
    return value


@pytest.mark.parametrize("seed", range(40))
def test_ascent_matches_the_loop_reference_bitwise(seed):
    # two copies of a 3-input game give message groups of up to 9 inputs
    game = _random_two_player_game(seed)
    PV = dpt._repeated_tensors(game, 1 + seed % 2)
    NX, NY, MA, MB = PV.shape
    for kA, kB in ((2, 0), (1, 1), (0, 2)):
        mA, mB = 2**kA, 2**kB
        r = np.random.default_rng([seed, kA, 7])
        for _ in range(3):
            start = (r.integers(0, mA, NX), r.integers(0, mB, NY),
                     r.integers(0, MA, (NX, mB)), r.integers(0, MB, (NY, mA)))
            value, protocol = dpt._ascend(PV, *(m.copy() for m in start))
            assert value == _ref_ascend(PV, *start, mA, mB)
            assert all(np.array_equal(new, ref) for new, ref in zip(protocol, start))


@pytest.mark.parametrize("seed", range(30))
def test_probe_ascent_ends_at_a_best_response_in_every_block(seed):
    # one bit keeps every block small enough to enumerate (at most 3^(3*2)
    # answer tables)
    game = _random_two_player_game(seed)
    got = dpt.empirical_repeated_value(dpt.RepetitionProbe(game, n=1, comm_bits=1, search_budget=1, seed=seed))
    assert got.kind == "lower_bound"
    PV = dpt._repeated_tensors(game, 1)
    for name in ("f_A", "f_B", "g_A", "g_B"):
        assert _block_gain(PV, got.certificate, name) <= 1e-12, name
    assert _replay_certificate(game, 1, got.certificate) == pytest.approx(got.best_value, abs=1e-12)


# The exhaustive search before it became games.best_deterministic on a
# message-augmented game: the player with the smaller output-map space is
# enumerated in chunks (Bob only when his is strictly smaller, through a
# swapped table) and the other best-responds per (input, message) cell.


def _ref_score_candidates(PV, g_A, g_B, cands):
    n_msgs_a = int(g_A.max()) + 1 if g_A.size else 1
    a_sel = cands[:, np.arange(PV.shape[0])[:, None], g_B[None, :]]  # (count, NX, NY)
    gathered = np.take_along_axis(PV[None], a_sel[:, :, :, None, None], axis=3)[:, :, :, 0, :]
    total = np.zeros(cands.shape[0])
    for m in range(n_msgs_a):
        mask = g_A == m
        if not mask.any():
            continue
        grouped = gathered[:, mask].sum(axis=1)  # (count, NY, MB)
        total += grouped.max(axis=2).sum(axis=1)
    return total


def _ref_best_response_maps(PV, g_A, g_B, f_A, mA):
    NX, NY = PV.shape[:2]
    MB = PV.shape[3]
    f_B = np.zeros((NY, mA), dtype=np.int64)
    a_sel = f_A[np.arange(NX)[:, None], g_B[None, :]]  # (NX, NY)
    gathered = np.take_along_axis(PV, a_sel[:, :, None, None], axis=2)[:, :, 0, :]  # (NX, NY, MB)
    for m in range(mA):
        mask = g_A == m
        grouped = gathered[mask].sum(axis=0) if mask.any() else np.zeros((NY, MB))
        f_B[:, m] = np.argmax(grouped, axis=1)
    return f_B


def _ref_exhaustive_split(PV, kA, kB):
    NX, NY, MA, MB = PV.shape
    mA, mB = 2**kA, 2**kB
    swap = MB ** (NY * mA) < MA ** (NX * mB)
    work_PV = np.transpose(PV, (1, 0, 3, 2)) if swap else PV
    nX, nY, mA_out, _ = work_PV.shape
    msgs_a, msgs_b = (mB, mA) if swap else (mA, mB)
    cells = nX * msgs_b
    n_cands = mA_out**cells
    best, best_cert = -1.0, None
    for g_a in itertools.product(range(msgs_a), repeat=nX):
        g_a = np.asarray(g_a, dtype=np.int64)
        for g_b in itertools.product(range(msgs_b), repeat=nY):
            g_b = np.asarray(g_b, dtype=np.int64)
            for start in range(0, n_cands, 65536):
                stop = min(start + 65536, n_cands)
                cands = np.stack(np.unravel_index(np.arange(start, stop), (mA_out,) * cells), axis=1)
                cands = cands.reshape(stop - start, nX, msgs_b)
                scores = _ref_score_candidates(work_PV, g_a, g_b, cands)
                top = int(np.argmax(scores))
                if scores[top] > best + 1e-15:
                    best = float(scores[top])
                    f_a = cands[top]
                    f_b = _ref_best_response_maps(work_PV, g_a, g_b, f_a, msgs_a)
                    if swap:
                        g_a_, g_b_, f_a_, f_b_ = g_b, g_a, f_b, f_a
                    else:
                        g_a_, g_b_, f_a_, f_b_ = g_a, g_b, f_a, f_b
                    best_cert = {"kA": kA, "kB": kB, "g_A": g_a_.tolist(), "g_B": g_b_.tolist(),
                                 "f_A": f_a_.tolist(), "f_B": f_b_.tolist()}
                if best >= 1.0 - dpt._WIN_EPS:
                    return best, best_cert
    return best, best_cert


def _ref_exhaustive(game, n, comm_bits):
    PV = dpt._repeated_tensors(game, n)
    best, best_cert = -1.0, None
    for kA in range(comm_bits, -1, -1):
        value, cert = _ref_exhaustive_split(PV, kA, comm_bits - kA)
        if value > best + 1e-15:
            best, best_cert = value, cert
        if best >= 1.0 - dpt._WIN_EPS:
            break
    return min(best, 1.0), best_cert


def _check_against_reference(game, n, comm_bits, budget):
    got = dpt.empirical_repeated_value(dpt.RepetitionProbe(game, n=n, comm_bits=comm_bits, search_budget=budget))
    assert _replay_certificate(game, n, got.certificate) == pytest.approx(got.best_value, abs=1e-12)
    if got.kind == "exhaustive":
        value, cert = _ref_exhaustive(game, n, comm_bits)
        assert got.best_value == pytest.approx(value, abs=1e-12)
        assert got.certificate == cert
    return got


@pytest.mark.parametrize("comm_bits", range(4))
@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("name", ("chsh", "magic_square"))
def test_exhaustive_probe_matches_reference_search(name, n, comm_bits):
    # a budget wide enough that every chsh case and every one-copy magic
    # square case is exhaustive; two copies of magic square stay beyond it
    got = _check_against_reference(games.builtin_game(name), n, comm_bits, 10**9)
    assert got.kind == ("lower_bound" if (name, n) == ("magic_square", 2) else "exhaustive")


def _random_two_player_game(seed):
    r = np.random.default_rng([seed, 2])
    ins = tuple(int(v) for v in r.integers(1, 4, 2))
    outs = tuple(int(v) for v in r.integers(1, 4, 2))
    p = r.random(ins)
    if seed % 2 == 0:  # zero-probability cells
        p[r.random(ins) < 0.4] = 0.0
        p.flat[r.integers(p.size)] += 0.1
    p /= p.sum()
    V = r.random(outs + ins) < 0.25
    return games.GamePredicate(
        inputs=tuple(tuple(range(k)) for k in ins), outputs=tuple(tuple(range(m)) for m in outs), p=p, V=V
    )


@pytest.mark.parametrize("seed", range(40))
def test_exhaustive_probe_matches_reference_on_random_games(seed):
    got = _check_against_reference(_random_two_player_game(seed), 1, seed % 3, 10**6)
    assert got.kind == "exhaustive"


@pytest.mark.parametrize("seed, comm_bits", [(18, 1), (72, 1), (237, 1), (237, 2), (273, 2)])
def test_exhaustive_probe_keeps_first_of_protocols_tied_up_to_rounding(seed, comm_bits):
    # with p in tenths, protocols winning different cells of equal mass tie
    # up to the last bit; the 1e-15 margin keeps the first of them, between
    # message maps (seed 18) and between splits (seed 72)
    r = np.random.default_rng([seed, 9])
    ins = tuple(int(v) for v in r.integers(1, 4, 2))
    outs = tuple(int(v) for v in r.integers(1, 4, 2))
    p = r.integers(0, 4, ins) / 10
    p.flat[0] += 1.0
    game = games.GamePredicate(
        inputs=tuple(tuple(range(k)) for k in ins), outputs=tuple(tuple(range(m)) for m in outs),
        p=p / p.sum(), V=r.random(outs + ins) < 0.3,
    )
    assert _check_against_reference(game, 1, comm_bits, 10**6).kind == "exhaustive"


# ---------------------------------------------------------------------------
# capped-fidelity subproblem and the substate check
# ---------------------------------------------------------------------------


def _fidelity_oracle(sigma, caps):
    """Maximise sum_i sqrt(sigma_i r_i) subject to 0 <= r <= caps,
    sum r = 1, with an off-the-shelf solver (lower-bounds the optimum)."""
    k = sigma.size
    r0 = caps / caps.sum()

    def neg_f(r):
        return -float(np.sqrt(sigma * np.clip(r, 0, None)).sum())

    res = scipy.optimize.minimize(
        neg_f,
        r0,
        method="SLSQP",
        bounds=[(0.0, float(c)) for c in caps],
        constraints=[{"type": "eq", "fun": lambda r: float(r.sum()) - 1.0}],
        options={"maxiter": 200, "ftol": 1e-12},
    )
    # project back into the feasible set (SLSQP tolerates tiny violations
    # that would otherwise overstate the optimum), then evaluate honestly
    point = np.clip(res.x, 0.0, caps)
    if point.sum() > 1.0:
        point = point / point.sum()
    return -neg_f(point)


def test_max_fidelity_capped_closed_forms():
    # unconstrained: r = sigma, perfect fidelity
    sigma = np.array([0.6, 0.4])
    F, r = dpt._max_fidelity_capped(sigma, np.array([2.0, 2.0]))
    assert F == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(r, sigma, atol=1e-12)

    # one binding cap: r = (0.5, 0.5), F = sqrt(0.4) + sqrt(0.1)
    F, r = dpt._max_fidelity_capped(np.array([0.8, 0.2]), np.array([0.5, 1.0]))
    assert F == pytest.approx(math.sqrt(0.4) + math.sqrt(0.1), abs=1e-12)
    np.testing.assert_allclose(r, [0.5, 0.5], atol=1e-12)

    # residual mass parked on a zero-probability cell
    F, r = dpt._max_fidelity_capped(np.array([1.0, 0.0]), np.array([0.4, 0.7]))
    assert F == pytest.approx(math.sqrt(0.4), abs=1e-12)
    assert r.sum() == pytest.approx(1.0, abs=1e-12)

    # caps too small for any distribution
    assert dpt._max_fidelity_capped(np.array([1.0, 0.0]), np.array([0.3, 0.3])) is None


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_max_fidelity_capped_dominates_nlp_solver(seed):
    r = np.random.default_rng(seed)
    k = int(r.integers(2, 7))
    sigma = r.dirichlet(np.ones(k))
    caps = r.uniform(0.05, 0.8, size=k)
    if caps.sum() < 1.0:
        caps = caps * (1.05 / caps.sum())
    got = dpt._max_fidelity_capped(sigma, caps)
    assert got is not None
    F, point = got
    # claimed point is feasible and achieves the claimed value
    assert point.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(point <= caps + 1e-12)
    assert F == pytest.approx(float(np.sqrt(sigma * point).sum()), abs=1e-12)
    # and the exact optimum is never beaten by the numerical solver
    assert F >= _fidelity_oracle(sigma, caps) - 1e-6


def _valid_instance(rng, shape=(3, 4)):
    table = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
    psi = table.sum(axis=1)
    sigma_B = table.sum(axis=0)
    ref = np.outer(psi, sigma_B)
    with np.errstate(divide="ignore"):
        ratio = np.where(table > 0, table / np.where(ref > 0, ref, 1.0), 0.0)
    c = math.log2(max(float(ratio.max()), 1.0)) + 0.1
    rho = 0.95 * sigma_B + 0.05 / shape[1]
    delta1 = math.sqrt(max(0.0, 1.0 - float(np.sqrt(sigma_B * rho).sum()) ** 2)) + 1e-9
    return table, psi, rho, c, delta1


def test_substate_check_valid_instances_feasible(rng):
    for _ in range(20):
        table, psi, rho, c, delta1 = _valid_instance(rng)
        report = dpt.substate_perturbation_check_classical(
            table, psi, rho, c=c, eps=0.05, delta0=0.3, delta1=delta1
        )
        assert report.status == "feasible"
        assert report.conclusion_pd <= report.conclusion_threshold + 1e-9
        # the witness is a genuine distribution under the stated caps
        w = report.witness
        assert w.sum() == pytest.approx(1.0, abs=1e-8)
        caps = report.conclusion_factor * np.outer(psi, rho)
        assert np.all(w <= caps + 1e-9)


def test_substate_check_reports_marginal_mismatch():
    table = np.full((2, 2), 0.25)
    rho_far = np.array([0.999, 0.001])
    report = dpt.substate_perturbation_check_classical(
        table, np.array([0.5, 0.5]), rho_far, c=1.0, eps=0.1, delta0=0.2, delta1=0.01
    )
    assert report.status == "hypothesis_failed"
    assert report.marginal_pd > 0.01


def test_substate_check_reports_failed_substate_hypothesis():
    # perfectly correlated table cannot sit under a small product cap
    table = np.array([[0.5, 0.0], [0.0, 0.5]])
    psi = np.array([0.5, 0.5])
    rho = np.array([0.5, 0.5])
    report = dpt.substate_perturbation_check_classical(
        table, psi, rho, c=0.0, eps=0.01, delta0=0.2, delta1=0.5
    )
    assert report.status == "hypothesis_failed"
    assert report.smoothing_pd > 0.01


def test_substate_check_validation():
    table = np.full((2, 2), 0.25)
    u = np.array([0.5, 0.5])
    with pytest.raises(ValidationError):
        dpt.substate_perturbation_check_classical(table, u, u, c=-1.0, eps=0.1, delta0=0.1, delta1=0.1)
    with pytest.raises(ValidationError):
        dpt.substate_perturbation_check_classical(table, u, u, c=1.0, eps=0.1, delta0=0.0, delta1=0.1)
    with pytest.raises(ValidationError):
        dpt.substate_perturbation_check_classical(table, np.array([1.0]), u, c=1.0, eps=0.1, delta0=0.1, delta1=0.1)


def test_substate_check_names_the_argument_that_is_not_a_distribution():
    u = np.full(2, 0.5)
    ok = dict(sigma_XB=np.full((2, 2), 0.25), psi_X=u, rho_B=u)
    bad = {"sigma_XB": np.full((2, 2), 0.225), "psi_X": np.array([0.45, 0.45]), "rho_B": np.array([0.45, 0.45])}
    for name, table in bad.items():
        with pytest.raises(ValidationError, match=f"^{name} sums to 0.9, not 1$"):
            dpt.substate_perturbation_check_classical(**{**ok, name: table}, c=1.0, eps=0.1, delta0=0.1, delta1=0.1)
    with pytest.raises(ValidationError, match="^sigma_XB must be a 2-d array, got 1 dimensions$"):
        dpt.substate_perturbation_check_classical(np.full(4, 0.25), u, u, c=1.0, eps=0.1, delta0=0.1, delta1=0.1)


# ---------------------------------------------------------------------------
# smoothed max-divergence
# ---------------------------------------------------------------------------


def _random_simplex(rng, k, floor=0.0):
    p = rng.dirichlet(np.ones(k))
    if floor:
        p = (p + floor) / (1.0 + k * floor)
    return p


def test_smoothed_dmax_binary_closed_form():
    # P=(3/4,1/4) against uniform: the optimum shaves eps/2 off the heavy
    # outcome, so lambda(eps) = 2 (3/4 - eps/2) until it reaches 1
    P, Q = [0.75, 0.25], [0.5, 0.5]
    for eps in (0.0, 0.1, 0.2, 0.3, 0.4):
        expected = math.log2(2 * (0.75 - eps / 2))
        assert dpt.smoothed_dmax_classical(P, Q, eps) == pytest.approx(expected, abs=1e-9)
    assert dpt.smoothed_dmax_classical(P, Q, 0.5) == pytest.approx(0.0, abs=1e-9)


def test_smoothed_dmax_zero_eps_equals_dmax(rng):
    # at eps = 0 it is the max-divergence, log2 max(p/q) for distributions
    for _ in range(20):
        p = _random_simplex(rng, 5)
        q = _random_simplex(rng, 5, floor=0.02)
        plain = math.log2(float(np.max(p / q)))
        smoothed = dpt.smoothed_dmax_classical(p, q, 0.0)
        assert smoothed == pytest.approx(plain, abs=1e-8)


def test_smoothed_dmax_optimality_certificate(rng):
    # independent check of the returned level: feasible there, infeasible
    # just below (the defining threshold condition, not the bisection path)
    for _ in range(30):
        p = _random_simplex(rng, 6)
        q = _random_simplex(rng, 6, floor=0.01)
        eps = float(rng.uniform(0.05, 0.6))
        lam = dpt.smoothed_dmax_classical(p, q, eps)

        def shave(level):
            return float(np.clip(p - 2.0**level * q, 0.0, None).sum())

        assert 2 * shave(lam) <= eps + 1e-6
        if lam > 1e-7:
            assert 2 * shave(lam - 1e-6) > eps - 1e-9


@given(st.integers(0, 10**6))
def test_smoothed_dmax_monotone_in_eps(seed):
    r = np.random.default_rng(seed)
    p = _random_simplex(r, 4)
    q = _random_simplex(r, 4, floor=0.02)
    levels = [dpt.smoothed_dmax_classical(p, q, e) for e in (0.0, 0.1, 0.3, 0.5)]
    for a, b in zip(levels, levels[1:]):
        assert b <= a + 1e-9


def test_smoothed_dmax_domain_errors():
    P, Q = [0.75, 0.25], [0.5, 0.5]
    with pytest.raises(ValidationError):
        dpt.smoothed_dmax_classical(P, Q, 1.0)
    with pytest.raises(ValidationError):
        dpt.smoothed_dmax_classical(P, Q, -0.1)
    # mass outside supp(Q) beyond the smoothing budget
    with pytest.raises(ValidationError):
        dpt.smoothed_dmax_classical([0.5, 0.5], [1.0, 0.0], 0.3)
    # ... but within budget it is allowed
    lam = dpt.smoothed_dmax_classical([0.9, 0.1], [1.0, 0.0], 0.25)
    assert math.isfinite(lam)
