"""Game predicates, exact classical values, and variational quantum values."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamebox import dpt, games, qcore
from gamebox.errors import BudgetExceededError, ValidationError


def _brute_force_two_player(game):
    """Full enumeration of deterministic map pairs (independent of the
    best-response reduction used by the library)."""
    nx, ny = game.input_sizes
    ma, mb = game.output_sizes
    best = 0.0
    for amap in itertools.product(range(ma), repeat=nx):
        for bmap in itertools.product(range(mb), repeat=ny):
            total = sum(
                float(game.p[x, y])
                for x in range(nx)
                for y in range(ny)
                if game.win((amap[x], bmap[y]), (x, y))
            )
            best = max(best, total)
    return best


# ---------------------------------------------------------------------------
# builtin structure
# ---------------------------------------------------------------------------


def test_magic_square_predicate_rederived():
    # rebuild the parity table from first principles: Alice announces an
    # even-parity row, Bob an odd-parity column, they must agree where the
    # row and column cross
    even = [s for s in itertools.product("01", repeat=3) if s.count("1") % 2 == 0]
    odd = [s for s in itertools.product("01", repeat=3) if s.count("1") % 2 == 1]
    game = games.magic_square()
    assert game.outputs[0] == tuple("".join(s) for s in even)
    assert game.outputs[1] == tuple("".join(s) for s in odd)
    np.testing.assert_allclose(game.p, np.full((3, 3), 1 / 9))
    V = game.dense_V()
    for ai, bi, x, y in np.ndindex(4, 4, 3, 3):
        assert V[ai, bi, x, y] == (even[ai][y] == odd[bi][x])


def test_chsh_predicate():
    game = games.chsh()
    V = game.dense_V()
    for a, b, x, y in np.ndindex(2, 2, 2, 2):
        assert V[a, b, x, y] == ((a + b) % 2 == x * y)
    assert game.input_sizes == (2, 2)


def test_mse_table_matches_per_cell_loop():
    # the per-cell loop the broadcast table replaced
    game = games.mse()
    alice_inputs = tuple((x, z) for x in range(3) for z in range(2))
    eve_outputs = tuple(itertools.product(range(3), range(3), range(2), range(2)))
    assert game.inputs == (alice_inputs, (0, 1, 2), (0,))
    assert game.outputs == (games.EVEN_STRINGS, games.ODD_STRINGS, eve_outputs)
    V = np.zeros((4, 4, 36, 6, 3, 1), dtype=bool)
    for ai, bi, ei, xa, y in np.ndindex(4, 4, 36, 6, 3):
        x, z = alice_inputs[xa]
        xp, yp, zp, c = eve_outputs[ei]
        a_bit = int(games.EVEN_BITS[ai, y])
        b_bit = int(games.ODD_BITS[bi, x])
        V[ai, bi, ei, xa, y, 0] = x == xp and y == yp and a_bit == c and (a_bit == b_bit or z == zp)
    assert game.V.dtype == bool
    assert np.array_equal(game.V, V)
    assert game.p.tobytes() == np.full((6, 3, 1), 1.0 / 18.0).tobytes()


def test_builtin_lookup():
    assert games.builtin_game("chsh").name == "chsh"
    with pytest.raises(ValidationError):
        games.builtin_game("no-such-game")


def test_game_predicate_validation():
    with pytest.raises(ValidationError):
        games.GamePredicate(
            inputs=((0, 1), (0, 1)),
            outputs=((0, 1), (0, 1)),
            p=np.array([[0.5, 0.5], [0.5, 0.5]]),  # sums to 2
            V=np.ones((2, 2, 2, 2), dtype=bool),
        )


def test_callable_predicate_is_refused():
    calls = []
    with pytest.raises(ValidationError):
        games.GamePredicate(
            inputs=((0, 1), (0, 1)),
            outputs=((0, 1), (0, 1)),
            p=np.full((2, 2), 0.25),
            V=lambda a, x: calls.append(a) or (a[0] ^ a[1]) == (x[0] & x[1]),
        )
    assert calls == []  # refused without evaluating a cell


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(games.BUILTIN_GAMES))
def test_game_json_round_trip(name):
    game = games.BUILTIN_GAMES[name]()
    doc = games.game_to_json(game)
    back = games.game_from_json(doc)
    assert back.input_sizes == game.input_sizes
    assert back.output_sizes == game.output_sizes
    np.testing.assert_allclose(back.p, game.p)
    np.testing.assert_array_equal(back.dense_V(), game.dense_V())


def test_game_from_json_builtin_predicate_reuse():
    doc = games.game_to_json(games.chsh())
    doc["V"] = "chsh"
    tilted = dict(doc, p=[0.7, 0.1, 0.1, 0.1])
    game = games.game_from_json(tilted)
    assert game.p[0, 0] == pytest.approx(0.7)
    np.testing.assert_array_equal(game.dense_V(), games.chsh().dense_V())


def test_game_from_json_rejects_garbage():
    with pytest.raises(ValidationError):
        games.game_from_json({"players": 2})
    doc = games.game_to_json(games.chsh())
    bad = dict(doc, p=[1.0])  # wrong length
    with pytest.raises(ValidationError):
        games.game_from_json(bad)
    with pytest.raises(ValidationError):
        games.game_from_json(dict(doc, V="magic_square"))  # alphabet mismatch


# ---------------------------------------------------------------------------
# classical values
# ---------------------------------------------------------------------------


def test_classical_value_chsh_exhaustive():
    game = games.chsh()
    res = games.classical_value(game)
    assert res.value == pytest.approx(_brute_force_two_player(game), abs=1e-15)
    assert res.value == pytest.approx(0.75, abs=1e-12)
    assert res.kind == "exact"
    # the certificate replays to the claimed value
    assert games.strategy_value(game, res.certificate) == pytest.approx(res.value, abs=1e-15)


def test_classical_value_magic_square_exhaustive():
    game = games.magic_square()
    res = games.classical_value(game)
    assert res.value == pytest.approx(_brute_force_two_player(game), abs=1e-15)
    assert abs(res.value - 8 / 9) < 1e-12
    assert games.strategy_value(game, res.certificate) == pytest.approx(res.value, abs=1e-15)


def test_classical_value_mse_two_routes():
    # explicit witness: constant outputs plus Eve betting on one input cell
    game = games.mse()
    res = games.classical_value(game)
    # Alice answers "000" always, Bob "001" always, so the crossing bits agree
    # for x=0; Eve bets (x=0, y=0, z=0, key bit 0) and wins exactly when that
    # input cell comes up: probability 2/18 = 1/9
    eve_guess = game.outputs[2].index((0, 0, 0, 0))
    witness = games.ClassicalStrategy(((0,) * 6, (0,) * 3, (eve_guess,)))
    lower = games.strategy_value(game, witness)
    assert lower == pytest.approx(1 / 9, abs=1e-15)
    assert res.value >= lower - 1e-15
    assert res.value == pytest.approx(1 / 9, abs=1e-12)
    assert games.strategy_value(game, res.certificate) == pytest.approx(res.value, abs=1e-15)


def test_classical_value_budget():
    with pytest.raises(BudgetExceededError):
        games.classical_value(games.magic_square(), budget=10)


@settings(max_examples=25)
@given(st.integers(0, 10**6))
def test_classical_value_matches_brute_force_on_random_games(seed):
    r = np.random.default_rng(seed)
    p = r.dirichlet(np.ones(4)).reshape(2, 2)
    V = r.random((2, 2, 2, 2)) < 0.5
    game = games.GamePredicate(inputs=((0, 1), (0, 1)), outputs=((0, 1), (0, 1)), p=p, V=V)
    assert games.classical_value(game).value == pytest.approx(_brute_force_two_player(game), abs=1e-12)


def _brute_force(game):
    """Best winning probability over every tuple of deterministic maps,
    straight from the definition sum_x p(x) V(f_1(x_1), ..., f_l(x_l) | x)."""
    per_player = [
        list(itertools.product(range(m), repeat=k)) for m, k in zip(game.output_sizes, game.input_sizes)
    ]
    best = -1.0
    for maps in itertools.product(*per_player):
        total = 0.0
        for x in np.ndindex(*game.input_sizes):
            a = tuple(f[xj] for f, xj in zip(maps, x))
            if game.V[a + x]:
                total += float(game.p[x])
        best = max(best, total)
    return best


def _reference_search(game):
    """The search classical_value makes, one map combination and one cell at a
    time: the player with the largest strategy space (the last one on ties)
    best-responds with the first best output per input, the other players'
    maps run in lexicographic order, and the first best combination is kept."""
    l = game.players
    spaces = [m**k for m, k in zip(game.output_sizes, game.input_sizes)]
    r = max(range(l), key=lambda j: (spaces[j], j))
    others = [j for j in range(l) if j != r]
    best_value, best_maps = -1.0, None
    for combo in itertools.product(
        *(itertools.product(range(game.output_sizes[j]), repeat=game.input_sizes[j]) for j in others)
    ):
        maps = dict(zip(others, combo))
        margins = [[0.0] * game.output_sizes[r] for _ in range(game.input_sizes[r])]
        for x in np.ndindex(*game.input_sizes):
            for o in range(game.output_sizes[r]):
                a = tuple(o if j == r else maps[j][x[j]] for j in range(l))
                if game.V[a + x]:
                    margins[x[r]][o] += float(game.p[x])
        value = 0.0
        for row in margins:
            value += max(row)
        if value > best_value:
            maps[r] = tuple(row.index(max(row)) for row in margins)
            best_value, best_maps = value, tuple(maps[j] for j in range(l))
    return best_value, best_maps


@pytest.mark.parametrize("name", sorted(games.BUILTIN_GAMES))
def test_classical_value_equals_reference_search(name, monkeypatch):
    game = games.BUILTIN_GAMES[name]()
    want = _reference_search(game)
    res = games.classical_value(game)
    assert (res.value, res.certificate.maps) == want
    # ties between chunks also keep the first optimum
    monkeypatch.setattr(games, "_GATHER_ENTRIES", 5)
    assert games.classical_value(game) == res


@pytest.mark.parametrize("seed", range(12))
def test_classical_value_matches_brute_force_on_random_three_player_games(seed, monkeypatch):
    r = np.random.default_rng([seed, 3])
    ins = tuple(int(v) for v in r.integers(1, 4, 3))
    outs = tuple(int(v) for v in r.integers(1, 3, 3))
    if seed % 3 == 0:  # a player with one input and one output
        ins, outs = (1,) + ins[1:], (1,) + outs[1:]
    p = r.random(ins)
    p[r.random(ins) < 0.3] = 0.0  # zero-probability cells
    p.flat[r.integers(p.size)] += 0.1
    p /= p.sum()
    V = r.random(outs + ins) < 0.4
    game = games.GamePredicate(
        inputs=tuple(tuple(range(k)) for k in ins), outputs=tuple(tuple(range(m)) for m in outs), p=p, V=V
    )
    res = games.classical_value(game)
    assert res.value == pytest.approx(_brute_force(game), abs=1e-12)
    assert games.strategy_value(game, res.certificate) == pytest.approx(res.value, abs=1e-12)
    assert (res.value, res.certificate.maps) == _reference_search(game)
    # scoring the maps a few at a time keeps the same first optimum
    monkeypatch.setattr(games, "_GATHER_ENTRIES", 5)
    assert games.classical_value(game) == res


def _table_value(W, maps):
    l = W.ndim // 2
    return sum(float(W[tuple(f[xj] for f, xj in zip(maps, x)) + x]) for x in np.ndindex(*W.shape[l:]))


@pytest.mark.parametrize("seed", range(18))
def test_best_deterministic_matches_brute_force_on_real_tables(seed):
    # real tables with negative entries, for 1, 2 and 3 players; a third of
    # them entirely negative, so the optimum lies below -1
    r = np.random.default_rng([seed, 5])
    l = seed % 3 + 1
    ins = tuple(int(v) for v in r.integers(1, 4, l))
    outs = tuple(int(v) for v in r.integers(1, 4 if l < 3 else 3, l))
    W = r.normal(size=outs + ins)
    if seed % 3 == 1:
        W = -np.abs(W) - 1.0
    value, maps = games.best_deterministic(W)
    every = itertools.product(*(itertools.product(range(m), repeat=k) for m, k in zip(outs, ins)))
    want = max(_table_value(W, f) for f in every)
    assert value == pytest.approx(want, abs=1e-12)
    assert _table_value(W, maps) == pytest.approx(value, abs=1e-12)


def test_best_deterministic_below_minus_one():
    W = np.full((2, 2, 2, 2), -1.0)
    W[1, 0] = -0.5  # Alice answering 1 and Bob 0 costs 0.5 on each of the 4 inputs
    assert games.best_deterministic(W) == (-2.0, ((1, 1), (0, 0)))
    assert games.best_deterministic(W[:, 0, :, 0] - 1.0) == (-3.0, ((1, 1),))


def _gather_loop(pV):
    """best_deterministic as it ran before the prefix tree: margins
    ``(maps, |X_r|, |A_r|)``, each input gathering every map's cells."""
    l = pV.ndim // 2
    out_sizes, in_sizes = pV.shape[:l], pV.shape[l:]
    space_sizes = [out_sizes[j] ** in_sizes[j] for j in range(l)]
    r = max(range(l), key=lambda j: (space_sizes[j], j))
    others = [j for j in range(l) if j != r]
    n_in_r, n_out_r = in_sizes[r], out_sizes[r]
    out_o = [out_sizes[j] for j in others]
    in_o = [in_sizes[j] for j in others]
    T = pV.transpose(others + [l + j for j in others] + [l + r, r])
    T = T.reshape(math.prod(out_o), math.prod(in_o), n_in_r, n_out_r)
    sizes = [space_sizes[j] for j in others]
    stride = [math.prod(out_o[t + 1 :]) for t in range(len(others))]

    def output(t, x_j, ids):
        m = ids // math.prod(sizes[t + 1 :]) % sizes[t]
        return m // out_o[t] ** (in_o[t] - 1 - x_j) % out_o[t]

    n_combos = math.prod(sizes)
    chunk = max(1, games._GATHER_ENTRIES // (n_in_r * n_out_r))
    best_val, best_id, best_r_map = -math.inf, 0, None
    for start in range(0, n_combos, chunk):
        ids = np.arange(start, min(start + chunk, n_combos), dtype=np.int64)
        margins = np.zeros((ids.size, n_in_r, n_out_r))
        for c, x_o in enumerate(np.ndindex(*in_o)):
            a_o = np.zeros(ids.size, dtype=np.int64)
            for t, x_j in enumerate(x_o):
                a_o += output(t, x_j, ids) * stride[t]
            margins += T[a_o, c]
        best = margins.max(axis=2)
        vals = np.zeros(ids.size)
        for i in range(n_in_r):
            vals += best[:, i]
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_id = int(ids[k])
            best_r_map = tuple(margins[k].argmax(axis=1).tolist())
    maps = {r: best_r_map}
    for t, j in enumerate(others):
        maps[j] = tuple(output(t, x_j, best_id) for x_j in range(in_o[t]))
    return best_val, tuple(maps[j] for j in range(l))


def _assert_bitwise_the_gather_loop(W):
    value, maps = games.best_deterministic(W)
    want_value, want_maps = _gather_loop(W)
    assert (float(value).hex(), maps) == (float(want_value).hex(), want_maps)


def _differential_table(kind, seed):
    r = np.random.default_rng([seed, 38])
    l = 3 if seed % 3 == 0 else 2
    shape = tuple(int(v) for v in r.integers(1, 4, l)) + tuple(int(v) for v in r.integers(1, 4, l))
    if kind == "real":  # negative entries, a third of the tables below -1
        W = r.normal(size=shape)
        return -np.abs(W) - 1.0 if seed % 3 == 1 else W
    if kind == "dyadic":  # few distinct values: ties within and across maps
        return r.integers(-2, 3, size=shape) / 4.0
    return np.where(r.random(shape) < 0.5, 0.0, -0.0)  # "signed_zeros"


@pytest.mark.parametrize("gather_entries", [games._GATHER_ENTRIES, 5])
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", ["real", "dyadic", "signed_zeros"])
def test_best_deterministic_is_bitwise_the_gather_loop(kind, seed, gather_entries, monkeypatch):
    monkeypatch.setattr(games, "_GATHER_ENTRIES", gather_entries)
    _assert_bitwise_the_gather_loop(_differential_table(kind, seed))


def test_best_deterministic_is_bitwise_the_gather_loop_on_signed_zeros():
    # from zeros, every margin and value is +0.0, as the gather loop's are
    for l in (1, 2, 3):
        W = np.full((2,) * (2 * l), -0.0)
        value, _ = games.best_deterministic(W)
        assert float(value).hex() == "0x0.0p+0"
        _assert_bitwise_the_gather_loop(W)


@pytest.mark.parametrize("gather_entries", [games._GATHER_ENTRIES, 5])
@pytest.mark.parametrize(
    "name,n,comm", [("chsh", 2, 1), ("chsh", 1, 2), ("magic_square", 1, 1)], ids=["chsh-2-1", "chsh-1-2", "ms-1-1"]
)
def test_best_deterministic_is_bitwise_the_gather_loop_on_probe_tables(name, n, comm, gather_entries, monkeypatch):
    tables, plain = [], games.best_deterministic

    def recorded(aug):
        tables.append(aug)
        return plain(aug)

    monkeypatch.setattr(games, "best_deterministic", recorded)
    monkeypatch.setattr(games, "_GATHER_ENTRIES", gather_entries)
    dpt.empirical_repeated_value(dpt.RepetitionProbe(games.builtin_game(name), n=n, comm_bits=comm, seed=0))
    monkeypatch.setattr(games, "best_deterministic", plain)
    assert tables
    for aug in tables:
        _assert_bitwise_the_gather_loop(aug)


def test_best_deterministic_is_bitwise_the_gather_loop_in_chunks():
    # 4^9 maps of 36 margin entries each: 64 prefix-tree chunks of 4^6 maps
    W = np.random.default_rng(38).normal(size=(4, 4, 9, 9))
    assert 4**9 * 36 > games._GATHER_ENTRIES
    _assert_bitwise_the_gather_loop(W)


# ---------------------------------------------------------------------------
# quantum strategies
# ---------------------------------------------------------------------------


def test_canonical_ms_strategy_is_perfect():
    game = games.magic_square()
    strat = games.canonical_ms_strategy()
    strat.validate(game)
    assert games.evaluate_quantum_strategy(game, strat) >= 1.0 - 1e-9


def test_ms_observables_commute_and_multiply_correctly():
    # row observables commute and multiply to +I, column ones to -I
    obs = games.ms_observables()
    eye = np.eye(4)
    for i in range(3):
        row = obs[i]
        np.testing.assert_allclose(row[0] @ row[1], row[1] @ row[0], atol=1e-12)
        np.testing.assert_allclose(row[0] @ row[1] @ row[2], eye, atol=1e-12)
    for j in range(3):
        col = [obs[i][j] for i in range(3)]
        np.testing.assert_allclose(col[0] @ col[1] @ col[2], -eye, atol=1e-12)


def test_seesaw_chsh_reaches_tsirelson():
    game = games.chsh()
    res = games.seesaw(game, (2, 2), restarts=5, seed=0)
    tsirelson = math.cos(math.pi / 8) ** 2
    assert res.value >= 0.8535
    assert res.value <= tsirelson + 1e-6
    assert res.kind == "lower_bound"


def test_seesaw_never_below_shared_randomness_floor():
    # with 1-dimensional systems the optimum is the best deterministic point
    game = games.chsh()
    res = games.seesaw(game, (1, 1), restarts=3, seed=1)
    assert res.value == pytest.approx(0.75, abs=1e-9)


def test_seesaw_deterministic_given_seed():
    game = games.chsh()
    a = games.seesaw(game, (2, 2), restarts=2, seed=11).value
    b = games.seesaw(game, (2, 2), restarts=2, seed=11).value
    assert a == b


# ---------------------------------------------------------------------------
# batched seesaw kernels against the one-matrix-at-a-time loops they replaced
# ---------------------------------------------------------------------------


def _ref_winning_sets(game):
    out = {}
    for x in np.ndindex(*game.input_sizes):
        if float(game.p[x]) == 0.0:
            continue
        out[x] = [tuple(a) for a in np.argwhere(game.V[(..., *x)]).tolist()]
    return out


def _ref_kron_all(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _ref_build_game_operator(game, povms, win_sets, dim_total):
    W = np.zeros((dim_total, dim_total), dtype=complex)
    for x, winners in win_sets.items():
        px = float(game.p[x])
        for a in winners:
            W += px * _ref_kron_all([povms[j][x[j]][a[j]] for j in range(game.players)])
    return (W + W.conj().T) / 2


def _ref_effective_operator(psi_t, ops, j):
    chi = psi_t
    for k, M in ops.items():
        chi = np.moveaxis(np.tensordot(M, chi, axes=([1], [k])), 0, k)
    axes = [k for k in range(psi_t.ndim) if k != j]
    E = np.tensordot(psi_t.conj(), chi, axes=(axes, axes))
    return E.T


def _ref_effective_operators(game, povms, win_sets, psi_t, j, ix):
    """The G list of player j on input ix, built winning tuple by winning tuple."""
    d = psi_t.shape[j]
    G = [np.zeros((d, d), dtype=complex) for _ in game.outputs[j]]
    for x, winners in win_sets.items():
        if x[j] != ix:
            continue
        px = float(game.p[x])
        by_rest = {}
        for a in winners:
            rest = tuple(a[k] for k in range(game.players) if k != j)
            by_rest.setdefault(rest, []).append(a[j])
        for rest, ajs in by_rest.items():
            others = [k for k in range(game.players) if k != j]
            ops = {k: povms[k][x[k]][r] for k, r in zip(others, rest)}
            E = _ref_effective_operator(psi_t, ops, j)
            for aj in ajs:
                G[aj] = G[aj] + px * E
    return G


def _ref_positive_projector(mat, cutoff=1e-12):
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    cols = v[:, w > cutoff]
    return cols @ cols.conj().T


def _ref_optimize_povm(G, current, tol, sweeps=1):
    """The POVM update one input at a time.  ``sweeps=1`` is the kernel's
    update; more sweeps repeat it until a sweep gains at most ``tol``, the
    converged inner loop (60 sweeps at most) the kernel used to run."""
    d = current[0].shape[0]
    n = len(current)
    if n == 1:
        return [np.eye(d, dtype=complex)]
    if n == 2:
        P = _ref_positive_projector(G[0] - G[1])
        return [P, np.eye(d, dtype=complex) - P]
    ms = [m.astype(complex) for m in current]
    for _ in range(sweeps):
        improved = 0.0
        # the kernel's round-robin order, one pair at a time, with the
        # general update that needs no projective S
        for alpha, beta in itertools.chain.from_iterable(games._pair_rounds(n)):
            S = ms[alpha] + ms[beta]
            delta = G[alpha] - G[beta]
            shalf = qcore.psd_power(S, 0.5)
            P = _ref_positive_projector(shalf @ delta @ shalf)
            new_alpha = shalf @ P @ shalf
            gain = float(np.real(np.trace((new_alpha - ms[alpha]) @ delta)))
            if gain > tol:
                improved += gain
                ms[alpha] = (new_alpha + new_alpha.conj().T) / 2
                ms[beta] = S - ms[alpha]
        if improved <= tol:
            break
    return ms


def _ref_haar_unitary(d, rng):
    """One Haar-random unitary: the Q of the QR decomposition of a complex
    Gaussian matrix (real part, then imaginary part), its phases fixed."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ref_random_povms(game, local_dims, rng):
    """One restart's draw, one matrix at a time."""
    povms = []
    for j in range(game.players):
        d = local_dims[j]
        n_out = len(game.outputs[j])
        per_input = []
        for _ in range(len(game.inputs[j])):
            U = _ref_haar_unitary(d, rng)
            sizes = [d // n_out + (1 if k < d % n_out else 0) for k in range(n_out)]
            elems = []
            start = 0
            for s in sizes:
                cols = U[:, start : start + s]
                elems.append(cols @ cols.conj().T)
                start += s
            per_input.append(elems)
        povms.append(per_input)
    return povms


def _ref_restart(game, local_dims, win_sets, rng, max_iters, tol, sweeps):
    """One restart of the sequential seesaw, one input of one player at a
    time, each POVM update ``sweeps`` round-robin sweeps at most; returns
    its value and POVMs."""
    D = int(np.prod(local_dims))
    povms = _ref_random_povms(game, local_dims, rng)
    prev = -1.0
    for _ in range(max_iters):
        W = _ref_build_game_operator(game, povms, win_sets, D)
        psi = np.linalg.eigh(W)[1][:, -1]
        psi_t = psi.reshape(local_dims)
        for j in range(game.players):
            for ix in range(len(game.inputs[j])):
                G = _ref_effective_operators(game, povms, win_sets, psi_t, j, ix)
                povms[j][ix] = _ref_optimize_povm(G, povms[j][ix], tol * 0.1, sweeps)
        W = _ref_build_game_operator(game, povms, win_sets, D)
        val = float(np.real(psi.conj() @ (W @ psi)))
        if val - prev < tol:
            break
        prev = val
    return val, povms


def _ref_seesaw(game, local_dims, restarts=20, max_iters=500, tol=1e-9, seed=0, sweeps=1):
    """The sequential seesaw's value: the restarts one at a time."""
    win_sets = _ref_winning_sets(game)
    best_val = -1.0
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        best_val = max(best_val, _ref_restart(game, tuple(local_dims), win_sets, rng, max_iters, tol, sweeps)[0])
        if best_val >= 1.0 - 1e-9:
            break
    return min(best_val, 1.0)


def _random_game(seed, players):
    """A seeded random game with zero-probability cells."""
    r = np.random.default_rng([seed, players, 8])
    ins = tuple(int(v) for v in r.integers(1, 4, players))
    outs = tuple(int(v) for v in r.integers(1, 5, players))
    p = r.random(ins)
    p[r.random(ins) < 0.3] = 0.0
    p.flat[r.integers(p.size)] += 0.1
    p /= p.sum()
    V = r.random(outs + ins) < 0.5
    game = games.GamePredicate(
        inputs=tuple(tuple(range(k)) for k in ins), outputs=tuple(tuple(range(m)) for m in outs), p=p, V=V
    )
    return game, tuple(int(d) for d in r.integers(1, 5, players))


def _random_povm_stack(n_in, n_out, d, rng):
    """Projective POVMs, the POVM update's contract: per input, the columns
    of one Haar unitary split at random edges (some elements may be 0)."""
    M = np.empty((n_in, n_out, d, d), dtype=complex)
    for x in range(n_in):
        U = _ref_haar_unitary(d, rng)
        edges = np.concatenate([[0], np.sort(rng.integers(0, d + 1, n_out - 1)), [d]])
        for a in range(n_out):
            cols = U[:, edges[a] : edges[a + 1]]
            M[x, a] = cols @ cols.conj().T
    return M


_KERNEL_CASES = {
    "chsh": (games.chsh(), (2, 2)),
    "magic_square": (games.magic_square(), (4, 4)),
    "chsh^2": (games.repeat(games.chsh(), 2), (4, 4)),
    "mse": (games.mse(), (2, 2, 2)),
    "random_3_player": _random_game(5, 3),
    "random_2_player": _random_game(2, 2),
}


@pytest.mark.parametrize("name", list(_KERNEL_CASES))
def test_game_and_effective_operators_match_reference(name):
    game, dims = _KERNEL_CASES[name]
    rng = np.random.default_rng(len(name))
    R = 3
    sizes = list(zip(game.input_sizes, game.output_sizes, dims))
    stacks = [np.array([_random_povm_stack(n, m, d, rng) for _ in range(R)]) for n, m, d in sizes]
    win_sets = _ref_winning_sets(game)
    pV = (game.p * game.V).astype(complex)
    D = math.prod(dims)
    psi = rng.normal(size=(R, D)) + 1j * rng.normal(size=(R, D))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    W = games._game_operator(pV, stacks)
    G = [games._effective_operators(pV, stacks, psi, j) for j in range(game.players)]
    assert W.shape == (R, D, D)
    for r in range(R):
        # the kernels on one restart alone (R = 1): bitwise its slice of the group
        solo = [M[r : r + 1] for M in stacks]
        assert games._game_operator(pV, solo).tobytes() == W[r : r + 1].tobytes()
        lists = [[list(M[r, x]) for x in range(M.shape[1])] for M in stacks]
        np.testing.assert_allclose(W[r], _ref_build_game_operator(game, lists, win_sets, D), rtol=0, atol=1e-12)
        psi_t = psi[r].reshape(dims)
        for j in range(game.players):
            assert G[j].shape == (R, game.input_sizes[j], game.output_sizes[j], dims[j], dims[j])
            assert games._effective_operators(pV, solo, psi[r : r + 1], j).tobytes() == G[j][r : r + 1].tobytes()
            for ix in range(game.input_sizes[j]):
                want = _ref_effective_operators(game, lists, win_sets, psi_t, j, ix)
                np.testing.assert_allclose(G[j][r, ix], np.array(want), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", list(_KERNEL_CASES))
def test_batched_haar_draw_is_bitwise_the_per_matrix_draw(name):
    game, dims = _KERNEL_CASES[name]
    for rs in (range(0, 1), range(1, 3), range(3, 7)):
        got = games._random_povms(game, dims, 11, rs)
        assert [M.shape for M in got] == [
            (len(rs), n, m, d, d) for n, m, d in zip(game.input_sizes, game.output_sizes, dims)
        ]
        for i, r in enumerate(rs):
            want = _ref_random_povms(game, dims, np.random.default_rng([11, r]))
            for M, per_input in zip(got, want):
                assert M[i].tobytes() == np.array(per_input).tobytes()


@pytest.mark.parametrize("name", list(_KERNEL_CASES))
def test_random_povms_are_projective_measurements(name):
    game, dims = _KERNEL_CASES[name]
    for M, d in zip(games._random_povms(game, dims, 0, range(4)), dims):
        np.testing.assert_allclose(M.sum(axis=2), np.broadcast_to(np.eye(d), M.shape[:2] + (d, d)), atol=1e-12)
        np.testing.assert_allclose(M @ M, M, atol=1e-12)
        # each element projects onto its share of the columns
        ranks = np.linalg.matrix_rank(M, hermitian=True)
        assert np.array_equal(ranks.sum(axis=2), np.full(M.shape[:2], d))


def _count_decomposed_matrices(monkeypatch):
    """Count the matrices that pass through np.linalg.eigh."""
    seen = [0]
    plain = np.linalg.eigh

    def counted(mat, *args):
        seen[0] += math.prod(mat.shape[:-2])
        return plain(mat, *args)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return seen


@pytest.mark.parametrize("n_out", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_batched_povm_update_matches_per_input_reference(n_out, d, monkeypatch):
    rng = np.random.default_rng([n_out, d])
    k = 5
    seen = _count_decomposed_matrices(monkeypatch)
    for tol in (1e-10, 1e-3):
        current = _random_povm_stack(k, n_out, d, rng)
        g = rng.normal(size=(k, n_out, d, d)) + 1j * rng.normal(size=(k, n_out, d, d))
        G = g @ g.conj().swapaxes(-1, -2)
        G[1] = G[0]  # two inputs on the same problem
        seen[0] = 0
        want = [_ref_optimize_povm(list(G[x]), list(current[x]), tol) for x in range(k)]
        ref_eighs = seen[0]
        seen[0] = 0
        got = games._optimize_povm(G, current, tol)
        assert got.shape == current.shape
        np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-12)
        # one sweep, and a pair step decomposes one matrix where the
        # reference's decomposes two
        assert seen[0] == (k * math.comb(n_out, 2) if n_out > 1 else 0)
        assert seen[0] <= ref_eighs


@pytest.mark.parametrize("n", range(1, 10))
def test_pair_rounds_are_a_round_robin(n):
    rounds = games._pair_rounds(n)
    assert len(rounds) == (n - 1 if n % 2 == 0 else n)
    for pairs in rounds:
        touched = [i for pair in pairs for i in pair]
        assert len(touched) == len(set(touched))
    flat = [pair for pairs in rounds for pair in pairs]
    assert sorted(flat) == list(itertools.combinations(range(n), 2))


def test_pair_rounds_for_four_outputs():
    assert games._pair_rounds(4) == [[(0, 3), (1, 2)], [(0, 2), (1, 3)], [(0, 1), (2, 3)]]


_SEESAW_CASES = [
    (games.chsh(), (2, 2), 20),
    (games.magic_square(), (4, 4), 20),
    (games.repeat(games.chsh(), 2), (4, 4), 5),
    (games.mse(), (2, 2, 2), 2),
] + [(*_random_game(s, 2 + s % 2), 3) for s in range(8)]


@pytest.mark.parametrize("game,dims,restarts", _SEESAW_CASES, ids=lambda v: getattr(v, "name", None))
def test_seesaw_matches_sequential_reference(game, dims, restarts):
    res = games.seesaw(game, dims, restarts=restarts, seed=7)
    want = _ref_seesaw(game, dims, restarts=restarts, seed=7)
    assert res.value == pytest.approx(want, abs=1e-9)
    assert games.evaluate_quantum_strategy(game, res.certificate) == pytest.approx(res.value, abs=1e-9)


@pytest.mark.parametrize("game,dims,restarts", _SEESAW_CASES, ids=lambda v: getattr(v, "name", None))
def test_seesaw_no_worse_than_the_converged_povm_update(game, dims, restarts):
    # the POVM update used to repeat its round-robin sweep until an input
    # gained at most 1e-10 (60 sweeps at most); one sweep per iteration
    # ends no lower on these games
    res = games.seesaw(game, dims, restarts=restarts, seed=7)
    assert res.value >= _ref_seesaw(game, dims, restarts=restarts, seed=7, sweeps=60) - 1e-9


@pytest.mark.parametrize("game,dims,restarts", _SEESAW_CASES, ids=lambda v: getattr(v, "name", None))
def test_seesaw_povms_stay_projective(game, dims, restarts):
    res = games.seesaw(game, dims, restarts=restarts, seed=7)
    for povm in res.certificate.povms:
        M = np.array(povm)
        assert np.max(np.abs(M @ M - M)) <= 1e-12


@pytest.mark.parametrize("max_iters", [1, 2, 3])
@pytest.mark.parametrize("case", [0, 2, 4, 7, 9], ids=lambda c: f"case{c}")
def test_seesaw_early_iterations_match_reference(case, max_iters, monkeypatch):
    # a few iterations leave the strategy far from any optimum, so the
    # players' update order shows in the POVMs and the value.  Where an
    # effective operator is nearly degenerate the optimal POVM is nearly
    # free, and rounding moves it by up to ~1e-8 while the value stays put.
    # Each restart's POVMs are compared on their own: two restarts can end
    # on one value up to rounding (case 7 at two iterations), and rounding
    # then picks which of them is the best.
    game, dims, _ = _SEESAW_CASES[case]
    monkeypatch.setattr(games, "_SEESAW_ITERS", max_iters)
    res = games.seesaw(game, dims, restarts=2, seed=3)
    want = _ref_seesaw(game, dims, restarts=2, max_iters=max_iters, seed=3)
    assert res.value == pytest.approx(want, abs=1e-9)
    assert games.evaluate_quantum_strategy(game, res.certificate) == pytest.approx(res.value, abs=1e-9)
    pV = (game.p * game.V).astype(complex)
    win_sets = _ref_winning_sets(game)
    for r in range(2):
        ((val, _, got),) = games._lockstep(pV, game, dims, range(r, r + 1), 3, max_iters, games._SEESAW_TOL)
        want, povms = _ref_restart(game, dims, win_sets, np.random.default_rng([3, r]), max_iters, 1e-9, 1)
        assert val == pytest.approx(want, abs=1e-9)
        for j, per_input in enumerate(povms):
            np.testing.assert_allclose(got[j], np.array(per_input), rtol=0, atol=1e-6)


def _sequential_seesaw(game, local_dims, restarts, max_iters, seed, tol=1e-9):
    """The restart loop seesaw ran before restarts ran in lockstep: one
    restart at a time, on the package's kernels.  Also returns the restart
    at which the search stopped."""
    pV = (game.p * game.V).astype(complex)
    best_val, best_state, best_povms = -1.0, None, None
    for r in range(restarts):
        # the kernels on a group of one restart
        povms = games._random_povms(game, local_dims, seed, range(r, r + 1))
        W = games._game_operator(pV, povms)
        prev = -1.0
        for _ in range(max_iters):
            psi = np.linalg.eigh(W)[1][..., -1]
            for j in range(game.players):
                shape = povms[j].shape
                G = games._effective_operators(pV, povms, psi, j).reshape(-1, *shape[2:])
                povms[j] = games._optimize_povm(G, povms[j].reshape(-1, *shape[2:]), tol * 0.1).reshape(shape)
            W = games._game_operator(pV, povms)
            val = float(np.real(psi[0].conj() @ (W[0] @ psi[0])))
            if val - prev < tol:
                break
            prev = val
        if val > best_val:
            best_val, best_state, best_povms = val, psi[0].copy(), [M[0] for M in povms]
        if best_val >= 1.0 - 1e-9:
            break
    return min(best_val, 1.0), best_state, best_povms, r


def _assert_lockstep_is_sequential(game, dims, restarts, seed):
    """Value, state and POVMs of seesaw bitwise those of the sequential loop
    at ``games._SEESAW_ITERS`` iterations; returns the sequential value and
    the restart it stopped at."""
    res = games.seesaw(game, dims, restarts=restarts, seed=seed)
    val, state, povms, stop = _sequential_seesaw(game, dims, restarts, games._SEESAW_ITERS, seed)
    assert res.value == val
    assert res.certificate.state.tobytes() == state.tobytes()
    for j, M in enumerate(povms):
        assert np.array(res.certificate.povms[j]).tobytes() == M.tobytes()
    return val, stop


@pytest.mark.parametrize("max_iters", [1, 2, 3, 500])
@pytest.mark.parametrize("case", range(len(_SEESAW_CASES)), ids=lambda c: f"case{c}")
def test_seesaw_lockstep_is_bitwise_the_sequential_loop(case, max_iters, monkeypatch):
    game, dims, restarts = _SEESAW_CASES[case]
    monkeypatch.setattr(games, "_SEESAW_ITERS", max_iters)
    _assert_lockstep_is_sequential(game, dims, restarts, seed=7)


@pytest.mark.parametrize(
    "game,dims,restarts,seed,stop",
    [(*_random_game(12, 2), 3, 0, 1), (games.magic_square(), (4, 4), 20, 128, 1)],
    ids=["random", "magic_square"],
)
def test_seesaw_stop_inside_the_lockstep_group_is_bitwise(game, dims, restarts, seed, stop):
    # restart 0 stays below 1 - 1e-9 and restart `stop` of the group of
    # restarts 1 and 2 reaches it.  In the magic_square case restart 2
    # reaches it too, and first (10 iterations against 13), so taking
    # restarts as they finish instead of in index order would return another
    # strategy.
    val, stopped_at = _assert_lockstep_is_sequential(game, dims, restarts, seed)
    assert val >= 1.0 - 1e-9
    assert stopped_at == stop


def _count_calls(monkeypatch, name):
    seen = [0]
    plain = getattr(games, name)

    def counted(*args):
        seen[0] += 1
        return plain(*args)

    monkeypatch.setattr(games, name, counted)
    return seen


def _count_drawn_restarts(monkeypatch):
    """Count the restarts whose POVMs _random_povms draws, over all calls."""
    seen = [0]
    plain = games._random_povms

    def counted(game, local_dims, seed, rs):
        seen[0] += len(rs)
        return plain(game, local_dims, seed, rs)

    monkeypatch.setattr(games, "_random_povms", counted)
    return seen


@pytest.mark.parametrize("seed,stop,drawn", [(7, 0, 2), (15, 2, 6), (2, 3, 6)])
def test_seesaw_runs_restarts_in_doubling_groups(monkeypatch, seed, stop, drawn):
    # magic_square reaches 1 - 1e-9 in restart `stop`: only the groups up to
    # its own (restarts 0-1, then 2-5, then 6-13) draw their POVMs
    assert _sequential_seesaw(games.magic_square(), (4, 4), 20, 500, seed)[3] == stop
    draws = _count_drawn_restarts(monkeypatch)
    res = games.seesaw(games.magic_square(), (4, 4), restarts=20, seed=seed)
    assert res.value >= 1.0 - 1e-9
    assert draws[0] == drawn


def test_seesaw_lockstep_shares_povm_updates(monkeypatch):
    # five restarts of chsh^2, none reaching 1, of 15, 5, 16, 16 and 14
    # iterations, in groups 0-1 and 2-4 of 15 and 16 iterations (the longest
    # member's); two players, one _optimize_povm call each per iteration of
    # a group, against 132 for the 66 iterations of the restarts one at a time
    calls = _count_calls(monkeypatch, "_optimize_povm")
    draws = _count_drawn_restarts(monkeypatch)
    groups = _count_calls(monkeypatch, "_random_povms")
    games.seesaw(games.repeat(games.chsh(), 2), (4, 4), restarts=5, seed=7)
    assert draws[0] == 5
    assert groups[0] == 2  # one draw per group
    assert calls[0] == 2 * (15 + 16)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize(
    "game,dims,restarts",
    [(games.repeat(games.chsh(), 2), (4, 4), 5), (games.magic_square(), (4, 4), 20)],
    ids=["chsh^2", "magic_square"],
)
def test_seesaw_lockstep_is_bitwise_the_sequential_loop_at_seeds_0_to_9(game, dims, restarts, seed):
    # the group schedule is not fitted to one seed
    _assert_lockstep_is_sequential(game, dims, restarts, seed)


def test_lockstep_result_holds_only_its_own_restart():
    # a finished restart's state and POVMs own their data: no view keeps
    # its group's stacks alive
    game = games.repeat(games.chsh(), 2)
    pV = (game.p * game.V).astype(complex)
    results = list(games._lockstep(pV, game, (4, 4), range(2, 6), 7, 500, games._SEESAW_TOL))
    assert len(results) == 4
    for _, psi, povms in results:
        assert psi.base is None and psi.shape == (16,)
        for M in povms:
            assert M.base is None and M.shape == (4, 4, 4, 4)


# ---------------------------------------------------------------------------
# parallel repetition helpers
# ---------------------------------------------------------------------------


def _digits(idx, base, n):
    """Per-copy indices of a repeated-game index, copy 0 most significant."""
    return [(idx // base ** (n - 1 - c)) % base for c in range(n)]


def test_repeat_structure():
    game = games.chsh()
    rep = games.repeat(game, 2)
    assert rep.input_sizes == (4, 4)
    assert rep.output_sizes == (4, 4)
    np.testing.assert_allclose(rep.p, np.full((4, 4), 1 / 16))
    # the AND structure against the per-copy predicate, on every cell
    for game, n in ((games.chsh(), 2), (games.magic_square(), 2), (games.chsh(), 3)):
        rep = games.repeat(game, n)
        assert rep.name == f"{game.name}^{n}"
        assert rep.V.shape == tuple(s**n for s in game.V.shape)
        bases = game.V.shape
        for idx in np.ndindex(*rep.V.shape):
            per_axis = [_digits(i, b, n) for i, b in zip(idx, bases)]
            copies = [[d[c] for d in per_axis] for c in range(n)]
            joint = all(game.win(cell[:2], cell[2:]) for cell in copies)
            assert rep.V[idx] == joint
            assert rep.win(idx[:2], idx[2:]) == joint
        for x in np.ndindex(*rep.p.shape):
            per_axis = [_digits(i, b, n) for i, b in zip(x, game.p.shape)]
            joint_p = math.prod(game.p[tuple(d[c] for d in per_axis)] for c in range(n))
            assert rep.p[x] == pytest.approx(joint_p, abs=1e-15)
    # magic_square^3 (about 3 million cells) is dense; mse^2 is over budget
    big = games.repeat(games.magic_square(), 3)
    assert isinstance(big.V, np.ndarray)
    assert big.V.shape == (64, 64, 27, 27)
    with pytest.raises(BudgetExceededError):
        games.repeat(games.mse(), 2)


def test_repeated_chsh_classical_value():
    rep = games.repeat(games.chsh(), 2)
    res = games.classical_value(rep)

    # vectorised full enumeration over both players' 256 maps
    V = rep.dense_V().astype(float)  # (MA, MB, NX, NY)
    amaps = np.array(list(itertools.product(range(4), repeat=4)))
    partial = V[amaps[:, np.arange(4)], :, np.arange(4)[None, :], :]  # (256, 4, MB, NY)
    per_b = partial.sum(axis=1)  # (256, MB, NY)
    bmaps = np.array(list(itertools.product(range(4), repeat=4)))
    scores = per_b[:, bmaps[:, np.arange(4)], np.arange(4)[None, :]].sum(axis=2) / 16.0
    oracle = float(scores.max())

    assert res.value == pytest.approx(oracle, abs=1e-12)
    assert res.value >= (3 / 4) ** 2 - 1e-12  # product strategies remain available


def test_repeat_validates_count():
    with pytest.raises(ValidationError):
        games.repeat(games.chsh(), 0)
    game = games.chsh()
    assert games.repeat(game, 1) is game  # single copy passes through


def test_repeat_refuses_a_huge_count_without_computing_its_size():
    # the size, 2**(4 * 10**6) for chsh, was computed in full and then
    # formatted: a ValueError past Python's 4300-digit limit
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        games.repeat(games.chsh(), 10**6)
    assert time.perf_counter() - start < 1.0
    assert len(str(info.value)) < 100


def test_repeat_budget_is_the_predicate_size():
    # chsh^2 has 4**4 = 256 predicate entries; alphabets of one letter
    # count for nothing, whatever n is
    assert games.repeat(games.chsh(), 2, budget=256).V.size == 256
    with pytest.raises(BudgetExceededError, match="more than budget 255 entries"):
        games.repeat(games.chsh(), 2, budget=255)
    one = games.GamePredicate(inputs=((0,), (0, 1)), outputs=((0,), (0,)), p=np.full((1, 2), 0.5),
                              V=np.ones((1, 1, 1, 2)))
    # 17 copies: the 68 axes of one outer product, past numpy's 64, raised ValueError
    rep = games.repeat(one, 17, budget=2**17)
    assert rep.V.shape == (1, 1, 1, 2**17) and rep.V.all()
    assert rep.p.shape == (1, 2**17) and np.all(rep.p == 0.5**17)
    with pytest.raises(BudgetExceededError):
        games.repeat(one, 17, budget=2**17 - 1)


@pytest.mark.parametrize(
    "maps",
    [((-1, 0), (0, 0)), ((0, 2), (0, 0)), ((0, 0, 0), (0, 0)), ((0,), (0, 0)), ((0, 0),), ((0, 0), (0, 0), (0, 0)),
     ((0.0, 1.0), (0, 0)), ((True, False), (0, 0)), (((0, 0), (0, 0)), (0, 0))],
    ids=["negative-output", "output-too-large", "map-too-long", "map-too-short", "player-missing", "extra-player",
         "float-map", "bool-map", "nested-map"],
)
def test_strategy_maps_are_checked_against_the_game(maps):
    # a map of -1 wrapped to output 1, a long map was truncated, a missing
    # player's map was ignored and a float map raised a bare IndexError
    with pytest.raises(ValidationError, match="map"):
        games.strategy_value(games.chsh(), games.ClassicalStrategy(maps))
