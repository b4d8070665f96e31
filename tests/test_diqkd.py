"""Protocol simulation, leakage accounting, rate formula, and sampling tails."""

import collections
import dataclasses
import hashlib
import itertools
import math
import os
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from gamebox import diqkd, games
from gamebox.errors import (
    BudgetExceededError,
    ProtocolViolationError,
    ValidationError,
)

# ---------------------------------------------------------------------------
# parameters, budget, channel
# ---------------------------------------------------------------------------


def test_protocol_params_sizes():
    p = diqkd.ProtocolParams(n=100, alpha=0.5, gamma=0.2, delta=0.05, seed=0)
    assert p.s_size == 50
    assert p.t_size == 10
    tiny = diqkd.ProtocolParams(n=10, alpha=0.01, gamma=0.01, delta=0.0, seed=0)
    assert tiny.s_size == 1  # floors never collapse to an empty set
    assert tiny.t_size == 1


def test_protocol_params_validation():
    with pytest.raises(ValidationError):
        diqkd.ProtocolParams(n=0, alpha=0.5, gamma=0.2, delta=0.0, seed=0)
    with pytest.raises(ValidationError):
        diqkd.ProtocolParams(n=10, alpha=0.5, gamma=0.2, delta=0.5, seed=0)
    with pytest.raises(ValidationError):
        diqkd.ProtocolParams(n=10, alpha=0.5, gamma=0.2, delta=0.0, seed=-1)


def test_budget_metering():
    b = diqkd.LeakageBudget(10)
    b.debit(4)
    b.debit(6)
    assert b.used_bits == 10
    with pytest.raises(BudgetExceededError):
        b.debit(1)
    with pytest.raises(ValidationError):
        b.debit(-1)


@pytest.mark.parametrize("bits", [2.5, 2.0, "3", None, np.float64(2.0), True])
def test_debit_refuses_non_integers(bits):
    # a fractional debit would leave used_bits fractional, and True is no
    # message length
    b = diqkd.LeakageBudget(10)
    with pytest.raises(ValidationError):
        b.debit(bits)
    ch = diqkd.LeakageChannel(b)
    with pytest.raises(ValidationError):
        ch.send("eve", "alice_box", bits)
    assert b.used_bits == 0


def test_debit_accepts_numpy_integers():
    ch = diqkd.LeakageChannel(diqkd.LeakageBudget(10))
    ch.send("eve", "alice_box", np.int64(2))
    assert ch.budget.used_bits == 2


def test_channel_routing_and_lock():
    ch = diqkd.LeakageChannel(diqkd.LeakageBudget(8))
    ch.send("alice_box", "eve", 3)
    ch.send("eve", "bob_box", 2)
    assert ch.remaining == 3
    assert ch.budget.used_bits == 5
    with pytest.raises(ValidationError):
        ch.send("alice_box", "alice_box", 1)
    with pytest.raises(ValidationError):
        ch.send("alice_box", "mallory", 1)
    ch.lock()
    with pytest.raises(ProtocolViolationError):
        ch.send("alice_box", "eve", 1)


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------


def _grid_strategy_table():
    """q[x, y, a, b]: outcome distribution of the canonical grid strategy,
    computed from its state and POVMs, rows/columns indexed into the
    even/odd string tables."""
    strat = games.canonical_ms_strategy()
    psi = strat.state
    q = np.zeros((3, 3, 4, 4))
    for x, y, a, b in itertools.product(range(3), range(3), range(4), range(4)):
        op = np.kron(strat.povms[0][x][a], strat.povms[1][y][b])
        q[x, y, a, b] = float(np.real(psi.conj() @ op @ psi))
    q = np.clip(q, 0.0, None)
    return q / q.sum(axis=(2, 3), keepdims=True)


def test_conditional_table_is_perfect_and_unbiased():
    q = _grid_strategy_table()
    assert q.shape == (3, 3, 4, 4)
    np.testing.assert_allclose(q.sum(axis=(2, 3)), np.ones((3, 3)), atol=1e-12)
    ms = games.magic_square()
    V = ms.dense_V()
    for x in range(3):
        for y in range(3):
            winning = sum(q[x, y, a, b] for a in range(4) for b in range(4) if V[a, b, x, y])
            assert winning == pytest.approx(1.0, abs=1e-9)
            # Alice's row is uniform whatever the inputs (no-signalling)
            np.testing.assert_allclose(q[x, y].sum(axis=1), np.full(4, 0.25), atol=1e-9)


def _decode(codes):
    """The (n, 3) uint8 rows of the box codes ``4 r0 + 2 r1 + r2``."""
    return ((np.asarray(codes, dtype=np.int64)[:, None] // np.array([4, 2, 1])) % 2).astype(np.uint8)


def _encode(rows):
    """The uint8 codes of (n, 3) rows of bits, by packing each row's bits."""
    return np.packbits(np.asarray(rows) != 0, axis=1)[:, 0] >> 5


def _produce_rows(boxes, xs, ys, channel=None):
    """Alice's and Bob's rows, decoded from the codes that ``boxes`` return."""
    channel = channel if channel is not None else diqkd.LeakageChannel(diqkd.LeakageBudget(0))
    A, B = boxes.produce(xs, ys, channel)
    return _decode(A), _decode(B)


def test_codes_decode_to_the_grid_rows():
    codes = np.arange(8)
    np.testing.assert_array_equal(_encode(_decode(codes)), codes)
    np.testing.assert_array_equal(diqkd._code_rows(codes.astype(np.uint8)), _decode(codes))
    boxes = diqkd.baseline_cheating_boxes()
    for codes, rows in ((boxes._even_codes, games.EVEN_BITS), (boxes._odd_codes, games.ODD_BITS)):
        assert codes.dtype == np.uint8
        np.testing.assert_array_equal(codes, _encode(rows))
    np.testing.assert_array_equal(boxes._even_codes, [0, 3, 5, 6])


def _win_rate(A, B, xs, ys):
    r = np.arange(xs.size)
    return float((A[r, ys] == B[r, xs]).mean())


def test_honest_boxes_win_exactly_without_noise():
    rng = np.random.default_rng(1)
    xs, ys = rng.integers(0, 3, 5000), rng.integers(0, 3, 5000)
    boxes = diqkd.honest_boxes(0.0, seed=42)
    A, B = _produce_rows(boxes, xs, ys)
    assert _win_rate(A, B, xs, ys) == 1.0
    assert np.all(A.sum(axis=1) % 2 == 0)
    assert np.all(B.sum(axis=1) % 2 == 1)


def test_honest_boxes_noise_calibration():
    # replacing Bob's row with a uniform odd row half-agrees, so the win
    # rate is 1 - 2 delta * 1/2 = 1 - delta
    delta, m = 0.12, 40000
    rng = np.random.default_rng(7)
    xs, ys = rng.integers(0, 3, m), rng.integers(0, 3, m)
    boxes = diqkd.honest_boxes(delta, seed=9)
    A, B = _produce_rows(boxes, xs, ys)
    rate = _win_rate(A, B, xs, ys)
    sigma = math.sqrt(delta * (1 - delta) / m)
    assert abs(rate - (1 - delta)) < 4 * sigma


def _cumsum_produce(boxes, xs, ys):
    """The inverse-CDF sampler HonestBoxes.produce replaced: compare each
    round's draw u with all 16 cumulative probabilities of q[x, y], and take
    the first outcome of positive probability whose sum reaches u."""
    n = xs.size
    flat = _grid_strategy_table()[xs, ys].reshape(n, 16)
    cum = np.cumsum(flat, axis=1)
    draws = boxes._cells.random((n, 1))
    idx = np.argmax((cum >= draws) & (flat > 0), axis=1)
    noisy = boxes._noise.random(n) < 2.0 * boxes.delta
    b_idx = idx % 4
    b_idx[noisy] = boxes._answers.integers(0, 4, np.count_nonzero(noisy))  # one answer a noisy round
    return games.EVEN_BITS[idx // 4].copy(), games.ODD_BITS[b_idx].copy()


def test_conditional_table_cumsums_are_eighths():
    # the assumption that makes the inverse CDF an integer table
    eighths = 8 * np.cumsum(_grid_strategy_table().reshape(9, 16), axis=1)
    np.testing.assert_array_equal(eighths, np.round(eighths))


def test_index_table_is_the_grid_strategys_inverse_cdf():
    # entry 9 (3x + y) + j is the outcome of every draw u with ceil(8u) = j:
    # the ends u = j/8 and just above (j - 1)/8, and u = 0 for j = 0
    q = _grid_strategy_table().reshape(9, 16)
    table = diqkd._ms_index_table().reshape(9, 9)
    assert table.dtype == np.uint8
    for cell in range(9):
        cum = np.cumsum(q[cell])
        for j in range(9):
            draws = [0.0] if j == 0 else [j / 8, np.nextafter((j - 1) / 8, 1.0)]
            for u in draws:
                assert math.ceil(8 * u) == j
                assert table[cell, j] == np.argmax((cum >= u) & (q[cell] > 0))


class _ZeroCells:
    def random(self, size):
        return np.zeros(size)


def test_honest_boxes_win_every_cell_on_a_zero_draw():
    # a cell uniform of exactly 0 selects the first winning outcome, not
    # joint outcome 0, which loses every x = 2 cell
    xs, ys = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)
    boxes = diqkd.honest_boxes(0.0, seed=0)
    boxes._cells = _ZeroCells()
    A, B = _produce_rows(boxes, xs, ys)
    assert _win_rate(A, B, xs, ys) == 1.0


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_honest_boxes_match_cumsum_reference(dtype):
    channel = diqkd.LeakageChannel(diqkd.LeakageBudget(0))
    for n in (0, 1, 7, 5000, 10**5):
        for delta in (0.0, 0.05, 0.12, 0.5):
            for seed in (0, 1, 2):
                rng = np.random.default_rng([n, seed])
                xs = rng.integers(0, 3, n).astype(dtype)
                ys = rng.integers(0, 3, n).astype(dtype)
                fast = diqkd.honest_boxes(delta, seed)
                slow = diqkd.honest_boxes(delta, seed)
                for _ in range(2):  # the boxes' generator carries over between calls
                    A, B = fast.produce(xs, ys, channel)
                    A_ref, B_ref = _cumsum_produce(slow, xs, ys)
                    assert A.dtype == B.dtype == np.uint8
                    assert A.shape == B.shape == (n,)
                    np.testing.assert_array_equal(_decode(A), A_ref)
                    np.testing.assert_array_equal(_decode(B), B_ref)


@pytest.mark.parametrize(
    "xs,ys",
    [
        (np.array([-1, -3]), np.array([0, 0])),  # numpy would read rows 2 and 0
        (np.array([0, 0]), np.array([3, 0])),
        (np.array([0.0, 1.0]), np.array([0, 1])),
        (np.array([True, False]), np.array([0, 1])),
        (np.array([0, 1, 2]), np.array([0, 1])),
        (np.array([[0, 1]]), np.array([0, 1])),
        (np.array([5, 0]), np.array([0, 0])),  # the test-set cheater indexed a 3-entry row
        (np.array([0, 0]), np.array([-2, 0])),  # the test-set cheater leaked '-10' as 2 bits
        ([0.0, 1.0], [0, 1]),
    ],
    ids=["negative", "three", "float", "bool", "lengths", "shapes", "five", "ys-negative", "float-list"],
)
def test_honest_boxes_reject_bad_inputs(xs, ys):
    # every box pair refuses the inputs, the cheaters before they leak a bit
    for boxes in (diqkd.honest_boxes(0.1, seed=0), diqkd.baseline_cheating_boxes(),
                  diqkd.test_set_cheating_boxes(guess_count=2)):
        channel = diqkd.LeakageChannel(diqkd.LeakageBudget(100))
        with pytest.raises(ValidationError):
            boxes.produce(xs, ys, channel)
        assert channel.budget.used_bits == 0


def test_baseline_cheater_wins_two_thirds_of_cells():
    boxes = diqkd.baseline_cheating_boxes()
    xs, ys = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)
    A, B = _produce_rows(boxes, xs, ys)
    # "000" against "001" agree except when Alice is probed at position 2
    assert _win_rate(A, B, xs, ys) == pytest.approx(6 / 9)


class _RecordingChannel(diqkd.LeakageChannel):
    """A channel that also records each message as (src, dst, bits)."""

    def __init__(self, budget):
        super().__init__(budget)
        self.messages = []

    def send(self, src, dst, bits):
        super().send(src, dst, bits)
        self.messages.append((src, dst, bits))


def test_test_set_cheater_spends_five_bits_per_round():
    xs, ys = np.array([0, 1, 2, 0]), np.array([1, 2, 0, 1])
    ch = _RecordingChannel(diqkd.LeakageBudget(11))  # affords two rounds
    boxes = diqkd.test_set_cheating_boxes(guess_count=4)
    A, B = _produce_rows(boxes, xs, ys, ch)
    assert ch.budget.used_bits == 10
    # per round: Bob's input to Alice; Alice's input and her bit at Bob's
    # input to Bob
    assert ch.messages == [("bob_box", "alice_box", 4), ("alice_box", "bob_box", 6)]
    r = np.arange(2)
    assert np.all(A[r, ys[:2]] == B[r, xs[:2]])  # leaked rounds agree
    assert np.all(B[2:] == games.ODD_BITS[0])  # unleaked rounds fall back


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
def test_test_set_cheater_answers_with_the_first_odd_row_holding_the_bit(dtype):
    # every input pair, with Alice answering each even row in turn: the
    # cheater's own Alice answers 000, whose key bits are all 0
    xs = np.repeat(np.arange(3), 3).astype(dtype)
    ys = np.tile(np.arange(3), 3).astype(dtype)
    for alice in (0, 1, 2, 3):
        boxes = diqkd.test_set_cheating_boxes(guess_count=9)
        boxes._even_codes = np.roll(boxes._even_codes, -alice)
        A, B = _produce_rows(boxes, xs, ys, diqkd.LeakageChannel(diqkd.LeakageBudget(45)))
        for i, (x, y) in enumerate(zip(xs, ys)):
            bit = games.EVEN_BITS[alice][y]
            first = next(row for row in games.ODD_BITS if row[x] == bit)
            np.testing.assert_array_equal(B[i], first)
            np.testing.assert_array_equal(A[i], games.EVEN_BITS[alice])


# ---------------------------------------------------------------------------
# abort rule and full runs
# ---------------------------------------------------------------------------


def test_abort_test_threshold_boundary():
    # t=4, delta=0.25: need ceil((1 - 0.5) * 4) = 2 matches
    A = np.repeat(games.EVEN_BITS[0][None, :], 4, axis=0)
    xs = np.zeros(4, dtype=int)
    ys = np.zeros(4, dtype=int)
    agree, clash = games.ODD_BITS[0], games.ODD_BITS[2]  # 001 and 100: bit 0 and bit 1 at position 0
    two = np.stack([agree, agree, clash, clash])
    one = np.stack([agree, clash, clash, clash])
    rounds = np.arange(4)
    for B, passes in ((two, True), (one, False)):
        matches, ok = diqkd._agreement(A[rounds, ys] == B[rounds, xs], 0.25)
        assert (matches, ok) == (2 if passes else 1, passes)


def test_run_protocol_noiseless_keys_match():
    params = diqkd.ProtocolParams(n=300, alpha=0.5, gamma=0.4, delta=0.0, seed=5)
    for run_index in range(5):
        rec = diqkd.run_protocol(params, diqkd.honest_boxes(0.0, [5, run_index]), run_index=run_index)
        assert not rec.aborted
        assert rec.qber == 0.0
        assert rec.mismatch_S == 0.0
        np.testing.assert_array_equal(rec.K_A, rec.K_B)
        assert rec.K_A.size == params.s_size
        assert rec.leaked_bits == 0


def test_run_protocol_sets_are_nested_and_sorted():
    params = diqkd.ProtocolParams(n=120, alpha=0.4, gamma=0.3, delta=0.0, seed=2)
    rec = diqkd.run_protocol(params, diqkd.honest_boxes(0.0, 3))
    assert np.all(np.diff(rec.S) > 0)
    assert np.all(np.diff(rec.T) > 0)
    assert set(rec.T).issubset(set(rec.S))
    assert rec.S.size == params.s_size
    assert rec.T.size == params.t_size


@pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0])
def test_bulk_run_sets_are_nested_sorted_and_exact_size(alpha):
    params = diqkd.ProtocolParams(n=10**6, alpha=alpha, gamma=0.2, delta=0.05, seed=3)
    rec = diqkd.run_protocol(params, diqkd.baseline_cheating_boxes())
    for name, got, size in (("S", rec.S, params.s_size), ("T", rec.T, params.t_size)):
        assert got.dtype == np.int64, name
        assert got.size == size, name
        assert np.all(np.diff(got) > 0), name  # sorted, so no index twice
    assert 0 <= rec.S[0] and rec.S[-1] < params.n
    assert np.isin(rec.T, rec.S).all()


# (n, k): non-dyadic fractions, k = n and k = 0, a surplus and a shortfall
# of flags both likely
_SUBSET_SHAPES = [(7, 3), (6, 1), (5, 5), (4, 0), (8, 4), (9, 7), (10, 3), (12, 2)]


@pytest.mark.parametrize("chunk", [2**16, 4])
@pytest.mark.parametrize("n,k", _SUBSET_SHAPES)
def test_subset_is_uniform_over_every_k_subset(monkeypatch, n, k, chunk):
    # chunk = 4 spreads the flags to flip over several chunks
    monkeypatch.setattr(diqkd, "_CHUNK", chunk)
    subsets = list(itertools.combinations(range(n), k))
    trials = 200 * len(subsets)
    rng = np.random.default_rng([n, k])
    seen = collections.Counter()
    for _ in range(trials):
        got = diqkd._subset(rng, n, k)
        assert got.dtype == np.int64
        seen[tuple(got.tolist())] += 1
    assert set(seen) <= set(subsets)  # sorted, distinct and of size k
    if len(subsets) > 1:
        counts = np.array([seen[sub] for sub in subsets])
        chi2 = float(((counts - 200) ** 2).sum() / 200)
        assert scipy.stats.chi2.sf(chi2, len(subsets) - 1) > 1e-3


def test_run_protocol_deterministic():
    params = diqkd.ProtocolParams(n=80, alpha=0.5, gamma=0.25, delta=0.02, seed=11)
    a = diqkd.run_protocol(params, diqkd.honest_boxes(0.02, 4), run_index=1)
    b = diqkd.run_protocol(params, diqkd.honest_boxes(0.02, 4), run_index=1)
    np.testing.assert_array_equal(a.S, b.S)
    assert a.qber == b.qber
    assert a.aborted == b.aborted


class _BadParityBoxes(diqkd.BoxPair):
    def produce(self, xs, ys, channel):
        n = xs.size
        return np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8)


def test_run_protocol_rejects_invalid_rows():
    params = diqkd.ProtocolParams(n=10, alpha=0.5, gamma=0.5, delta=0.0, seed=0)
    with pytest.raises(ValidationError):
        diqkd.run_protocol(params, _BadParityBoxes())  # Bob rows have even parity


class _FixedRowBoxes(diqkd.BoxPair):
    """Boxes that answer every round with one code each, in ``dtype``."""

    def __init__(self, alice_code, bob_code, dtype):
        self.codes = (alice_code, bob_code)
        self.dtype = dtype

    def produce(self, xs, ys, channel):
        return tuple(np.full(xs.size, code, dtype=self.dtype) for code in self.codes)


@pytest.mark.parametrize(
    "alice_code,bob_code,dtype,message",
    [
        (8, 1, np.int64, "0..7"),  # its low three bits, 000, have even parity
        (0, 257, np.int64, "0..7"),  # a uint8 cast would wrap 257 to 1
        (0, -1, np.int64, "0..7"),  # and -1 to 255
        (0, 1.5, float, "integers"),
        (0, 255, np.uint8, "0..7"),
        (0, 1.0, float, "integers"),  # a whole float is not a code either
        (False, True, bool, "integers"),
    ],
    ids=["alice-8", "bob-257", "bob-minus-1", "bob-1.5", "bob-255-uint8", "bob-1.0", "bool"],
)
def test_run_protocol_rejects_rows_that_are_not_bits(alice_code, bob_code, dtype, message):
    params = diqkd.ProtocolParams(n=10, alpha=0.5, gamma=0.5, delta=0.0, seed=0)
    with pytest.raises(ValidationError, match=message):
        diqkd.run_protocol(params, _FixedRowBoxes(alice_code, bob_code, dtype))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8, np.uint16, np.uint8])
def test_run_protocol_accepts_codes_of_every_integer_dtype(dtype):
    params = diqkd.ProtocolParams(n=10, alpha=0.5, gamma=0.5, delta=0.0, seed=0)
    valid = diqkd.run_protocol(params, _FixedRowBoxes(6, 7, dtype))  # rows 110 and 111
    assert valid.a_T.dtype == np.uint8
    np.testing.assert_array_equal(valid.a_T, np.tile([1, 1, 0], (params.t_size, 1)))


@pytest.mark.parametrize("shape", [(10, 1), (10, 3), (9,), (11,), ()])
def test_run_protocol_rejects_codes_of_the_wrong_shape(shape):
    class WrongShape(diqkd.BoxPair):
        def produce(self, xs, ys, channel):
            return np.zeros(shape, dtype=np.uint8), np.ones(10, dtype=np.uint8)

    params = diqkd.ProtocolParams(n=10, alpha=0.5, gamma=0.5, delta=0.0, seed=0)
    with pytest.raises(ValidationError, match="shapes"):
        diqkd.run_protocol(params, WrongShape())


def test_baseline_cheater_usually_aborts_but_leaky_cheater_passes():
    params = diqkd.ProtocolParams(n=200, alpha=0.5, gamma=0.5, delta=0.1, seed=21)
    base_passes = sum(
        not diqkd.run_protocol(params, diqkd.baseline_cheating_boxes(), run_index=r).aborted
        for r in range(30)
    )
    assert base_passes <= 3  # 2/3 win rate is far below the 0.8 threshold

    leaks = 0
    for r in range(30):
        budget = diqkd.LeakageBudget(5 * params.n)
        rec = diqkd.run_protocol(
            params,
            diqkd.test_set_cheating_boxes(guess_count=params.n),
            budget=budget,
            run_index=r,
        )
        leaks += int(not rec.aborted)
        assert rec.leaked_bits == 5 * params.n
    assert leaks == 30  # full leakage defeats the test every time


def test_scripted_adversary_end_to_end():
    adversary = diqkd.load_adversary(
        {
            "rounds": [
                {"from": "alice_box", "to": "eve", "bits": 4, "function_id": "input_prefix"},
                {"from": "eve", "to": "bob_box", "bits": 3, "function_id": "zeros"},
            ]
        }
    )
    params = diqkd.ProtocolParams(n=40, alpha=0.5, gamma=0.5, delta=0.0, seed=1)
    rec = diqkd.run_protocol(
        params, diqkd.honest_boxes(0.0, 2), adversary=adversary, budget=diqkd.LeakageBudget(7)
    )
    assert rec.leaked_bits == 7
    with pytest.raises(BudgetExceededError):
        diqkd.run_protocol(
            params, diqkd.honest_boxes(0.0, 2), adversary=adversary, budget=diqkd.LeakageBudget(6)
        )


def test_load_adversary_forms(tmp_path):
    doc = {"rounds": [{"from": "eve", "to": "alice_box", "bits": 2, "function_id": "ones"}]}
    import json

    from_dict = diqkd.load_adversary(doc)
    from_text = diqkd.load_adversary(json.dumps(doc))
    path = tmp_path / "adv.json"
    path.write_text(json.dumps(doc))
    from_file = diqkd.load_adversary(str(path))
    assert from_dict == from_text == from_file
    with pytest.raises(ValidationError):
        diqkd.load_adversary({"rounds": [{"from": "eve", "to": "eve", "bits": 1, "function_id": "ones"}]})
    with pytest.raises(ValidationError):
        diqkd.load_adversary({"no_rounds": []})


@pytest.mark.parametrize("function_id", ["zeros", "ones", "input_prefix", "nope"])
def test_adversary_round_with_a_function_id_still_loads(function_id):
    # files written for the payload formatters load as before: a round's
    # other keys are ignored, and it leaks the same bits
    plain = {"from": "alice_box", "to": "eve", "bits": 6}
    adversary = diqkd.load_adversary({"rounds": [{**plain, "function_id": function_id}]})
    assert adversary == diqkd.load_adversary({"rounds": [plain]})
    ch = _RecordingChannel(diqkd.LeakageBudget(6))
    adversary.execute(ch)
    assert ch.messages == [("alice_box", "eve", 6)]
    assert ch.remaining == 0


# ---------------------------------------------------------------------------
# differential check against the whole-length simulator
# ---------------------------------------------------------------------------


class _ReferenceHonestBoxes(diqkd.HonestBoxes):
    """HonestBoxes.produce with each draw phase in one call of length n,
    the whole-length reference."""

    def produce(self, xs, ys, channel):
        xs, ys = diqkd._grid_inputs(xs, ys)
        n = xs.size
        eighths = 8.0 * self._cells.random(n)
        cell = np.ceil(eighths, out=eighths).astype(np.uint8)
        del eighths
        cell += 27 * xs.astype(np.uint8).ravel()
        cell += 9 * ys.astype(np.uint8).ravel()
        idx = np.take(diqkd._ms_index_table(), cell)
        A = np.take(games.EVEN_BITS, idx >> 2, axis=0)
        b_idx = idx & 3
        noisy = self._noise.random(n) < 2.0 * self.delta
        b_idx[noisy] = self._answers.integers(0, 4, np.count_nonzero(noisy))
        return _encode(A), _encode(np.take(games.ODD_BITS, b_idx, axis=0))


def _reference_rows(who, codes, parity):
    """The rows of a box's codes, decoded by division, after the checks the
    simulator makes: integers in 0..7, rows of parity ``parity``."""
    if not np.issubdtype(codes.dtype, np.integer):
        raise ValidationError(f"{who} codes must be integers")
    if not ((codes >= 0) & (codes <= 7)).all():
        raise ValidationError(f"{who} codes must lie in 0..7")
    rows = _decode(codes)
    if np.any((rows[:, 0] ^ rows[:, 1] ^ rows[:, 2]) != parity):
        raise ValidationError(f"{who} rows must have {('even', 'odd')[parity]} parity")
    return rows


def _reference_subset(rng, n, k):
    """The key and test set draw in one whole-length pass: n flags from one
    call for ceil(n / 4) raw words, at the threshold round(65536 k / n)
    taken from exact rationals, and the flags to flip located among all n
    at once."""
    threshold = math.floor(Fraction(65536 * k, n) + Fraction(1, 2))
    words = rng.bit_generator.random_raw(-(-n // 4)).astype("<u8").view("<u2")
    flags = words[:n] < threshold
    surplus = int(flags.sum()) - k
    if surplus != 0:
        pool = np.flatnonzero(flags == (surplus > 0))
        flags[pool[rng.choice(pool.size, abs(surplus), replace=False, shuffle=False)]] = surplus < 0
    return np.flatnonzero(flags)


def _reference_run_protocol(params, boxes, adversary=None, budget=None, run_index=0):
    """run_protocol with int64 inputs of length n, whole-length set draws
    and 2-D gathers, the whole-length reference."""
    n = params.n
    rng_x = np.random.default_rng([params.seed, run_index, 0])
    rng_y = np.random.default_rng([params.seed, run_index, 1])
    rng_s = np.random.default_rng([params.seed, run_index, 2])
    rng_t = np.random.default_rng([params.seed, run_index, 3])
    xs = rng_x.integers(0, 3, n)
    ys = rng_y.integers(0, 3, n)
    channel = diqkd.LeakageChannel(budget if budget is not None else diqkd.LeakageBudget(0))
    if adversary is not None:
        adversary.execute(channel)
    A, B = boxes.produce(xs, ys, channel)
    channel.lock()
    A = _reference_rows("Alice", np.asarray(A), parity=0)
    B = _reference_rows("Bob", np.asarray(B), parity=1)
    S = _reference_subset(rng_s, n, params.s_size)
    T = S[_reference_subset(rng_t, params.s_size, params.t_size)]
    A_T = A[T]
    x_T, y_T = xs[T], ys[T]
    rows = np.arange(T.size)
    matches = int((A_T[rows, y_T] == B[T][rows, x_T]).sum())
    passed = matches >= math.ceil((1.0 - 2.0 * params.delta) * T.size - 1e-9)
    x_S, y_S = xs[S], ys[S]
    key_a = A[S, y_S]
    key_b = B[S, x_S]
    return diqkd.TranscriptRecord(
        S=S,
        T=T,
        x_S=x_S,
        y_S=y_S,
        a_T=A_T,
        aborted=not passed,
        K_A=key_a if passed else None,
        K_B=key_b if passed else None,
        qber=1.0 - matches / T.size,
        mismatch_S=float((key_a != key_b).mean()),
        matches=matches,
        leaked_bits=channel.budget.used_bits,
    )


class _InputRowBoxes(diqkd.BoxPair):
    """Rows that depend on both inputs, so that the key gathers read every
    cell position, built in ``dtype`` and returned as codes of that dtype
    (uint8 codes for bool rows)."""

    def __init__(self, dtype):
        self.dtype = dtype

    def produce(self, xs, ys, channel):
        xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
        A = games.EVEN_BITS[(xs + ys) % 4].astype(self.dtype)
        B = games.ODD_BITS[(2 * xs + ys + 1) % 4].astype(self.dtype)
        if self.dtype is bool:
            return _encode(A), _encode(B)
        return (A @ np.array([4, 2, 1], dtype=self.dtype)), (B @ np.array([4, 2, 1], dtype=self.dtype))


_PREFIX_ADVERSARY = {
    "rounds": [
        {"from": "alice_box", "to": "eve", "bits": 7, "function_id": "input_prefix"},
        {"from": "bob_box", "to": "eve", "bits": 4, "function_id": "input_prefix"},
    ]
}

# name -> (boxes of the change, boxes of the reference, adversary, budget)
_DIFFERENTIAL_BOXES = {
    "honest": (lambda: diqkd.honest_boxes(0.05, 3), lambda: _ReferenceHonestBoxes(0.05, 3), None, 0),
    "honest-noiseless": (lambda: diqkd.honest_boxes(0.0, 4), lambda: _ReferenceHonestBoxes(0.0, 4), None, 0),
    "baseline": (diqkd.baseline_cheating_boxes, diqkd.baseline_cheating_boxes, None, 0),
    "test_set": (lambda: diqkd.test_set_cheating_boxes(30), lambda: diqkd.test_set_cheating_boxes(30), None, 100),
    "input_prefix": (lambda: diqkd.honest_boxes(0.1, 5), lambda: _ReferenceHonestBoxes(0.1, 5), _PREFIX_ADVERSARY, 11),
    "int64-rows": (lambda: _InputRowBoxes(np.int64), lambda: _InputRowBoxes(np.int64), None, 0),
    "int32-rows": (lambda: _InputRowBoxes(np.int32), lambda: _InputRowBoxes(np.int32), None, 0),
    "bool-rows": (lambda: _InputRowBoxes(bool), lambda: _InputRowBoxes(bool), None, 0),
}

# (n, alpha, gamma): chunk edges around 2^16 rounds, lengths that end in
# part of a raw word, and fixes that flip flags in several chunks
_DIFFERENTIAL_SIZES = [
    (n, alpha, gamma)
    for n in (1, 2, 3, 65535, 65536, 65537, 131073)
    for alpha, gamma in ((0.5, 0.2), (0.01, 0.3))
] + [(200_000, 0.9, 0.03)]


def _assert_records_equal(got, want):
    for field in dataclasses.fields(diqkd.TranscriptRecord):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), field.name
            assert a.dtype == b.dtype, field.name
            np.testing.assert_array_equal(a, b, err_msg=field.name)
        else:
            assert type(a) is type(b), field.name
            assert a == b, field.name


@pytest.mark.parametrize("name", list(_DIFFERENTIAL_BOXES))
@pytest.mark.parametrize("n,alpha,gamma", _DIFFERENTIAL_SIZES)
def test_run_protocol_matches_the_whole_length_reference(n, alpha, gamma, name):
    make, make_ref, adversary, limit = _DIFFERENTIAL_BOXES[name]
    adversary = None if adversary is None else diqkd.load_adversary(adversary)
    params = diqkd.ProtocolParams(n=n, alpha=alpha, gamma=gamma, delta=0.05, seed=n % 7)
    for run_index in (0, 2):
        got = diqkd.run_protocol(params, make(), adversary, diqkd.LeakageBudget(limit), run_index)
        want = _reference_run_protocol(params, make_ref(), adversary, diqkd.LeakageBudget(limit), run_index)
        _assert_records_equal(got, want)


def _digest(named_values) -> str:
    """sha256 over each (name, value) pair: an array by its dtype, shape and
    bytes, anything else by its repr."""
    h = hashlib.sha256()
    for name, value in named_values:
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


# name -> (boxes, adversary, leash) of the pinned transcripts
_PINNED_RUNS = {
    "honest": (lambda seed: diqkd.honest_boxes(0.05, [seed, 1]), None, 0),
    "baseline": (lambda seed: diqkd.baseline_cheating_boxes(), None, 0),
    "test_set": (lambda seed: diqkd.test_set_cheating_boxes(1000), None, 5000),
    "input_prefix": (lambda seed: diqkd.honest_boxes(0.1, [seed, 2]), _PREFIX_ADVERSARY, 11),
}

# (name, seed) -> sha256 of run_protocol's transcript at n = 10^4,
# captured before the simulator passed each round's answer as one code
PINNED_TRANSCRIPTS = {
    ("honest", 0): "b299825d9d1137529a892df61562069482d2c629346b591d9cb6d2b94a10a3e2",
    ("honest", 1): "b5c70f9a3ee7aebfaf6735e4df1a92bd2d464050a7749b8fe86ba74bd20081fa",
    ("baseline", 0): "08b322486b2c30fb909cffa817864f7acb81f4a81301d19255113e877ac32747",
    ("baseline", 1): "4c90194f41ac8306726d25524f9ac462ec1cf76d3843605c9ad001bf39b337bf",
    ("test_set", 0): "e285edf69b02180d3e09edc37b1c760b970fbfbcb34ac4ff8525691fd3f334b9",
    ("test_set", 1): "2d3719518d33ca0ffa0ac3180469a6b17cfaa50b076165f71ea04b1fb253b817",
    ("input_prefix", 0): "02cb58d6406419ce39909852fe305f575c4370f0cb9eacb716dcb27e9268356a",
    ("input_prefix", 1): "bcddc352bc967c5b92626a82a3d81a2914a1391d0b9927acdd6176460054a7f0",
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(_PINNED_RUNS))
def test_run_protocol_transcripts_are_pinned(name, seed):
    make, adversary, leash = _PINNED_RUNS[name]
    adversary = None if adversary is None else diqkd.load_adversary(adversary)
    params = diqkd.ProtocolParams(n=10**4, alpha=0.5, gamma=0.2, delta=0.05, seed=seed)
    rec = diqkd.run_protocol(params, make(seed), adversary, diqkd.LeakageBudget(leash), run_index=seed)
    fields = [(f.name, getattr(rec, f.name)) for f in dataclasses.fields(diqkd.TranscriptRecord)]
    assert _digest(fields) == PINNED_TRANSCRIPTS[name, seed]


# seed -> sha256 of run_batch's arrays for 64 honest runs at n = 2000 (two
# blocks of 32 runs), captured as above
PINNED_BATCHES = {
    0: "d8fd46488657e138231734c1b1e2f3cbffc3e20a57ae794fa302045f772c50e1",
    1: "8cd602a10d05b04bdfea4560bc4333d0483c23c91410ea33dc61ceb39931aef6",
}


@pytest.mark.parametrize("seed", [0, 1])
def test_run_batch_arrays_are_pinned(seed):
    params = diqkd.ProtocolParams(n=2000, alpha=0.5, gamma=0.2, delta=0.05, seed=seed)
    batch = diqkd.run_batch(params, diqkd.honest_boxes(0.05, [seed, 3]), 64, run_index=1)
    assert _digest(zip(batch._fields, batch)) == PINNED_BATCHES[seed]


def test_honest_run_peak_memory_per_round():
    # One honest run at n = 10^6 holds inputs, answer codes and sets of at
    # most 15 bytes a round at once (16.8 with (n, 3) rows of bits, 23.6
    # when the key set came from Generator.choice).  No line of the package
    # raises the traced memory by 8 bytes a round: choice's tail shuffle
    # built an int64 arange(n).
    n = 10**6
    params = diqkd.ProtocolParams(n=n, alpha=0.5, gamma=0.2, delta=0.05, seed=1)
    boxes = diqkd.honest_boxes(0.05, 1)
    diqkd.run_protocol(dataclasses.replace(params, n=10), boxes)  # fill the strategy tables' caches
    package = os.path.dirname(diqkd.__file__)
    peaks, rises = [], []

    def trace(frame, event, arg):
        # at each event in the package: the peak since the last event, and
        # how far it rose above the memory held then
        if not frame.f_code.co_filename.startswith(package):
            return None
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        rises.append(peak - trace.held)
        tracemalloc.reset_peak()
        trace.held = current
        return trace

    trace.held = 0
    previous = sys.gettrace()
    tracemalloc.start()
    sys.settrace(trace)
    try:
        diqkd.run_protocol(params, boxes)
    finally:
        sys.settrace(previous)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert max(rises) < 8 * n
    assert max(peaks) / n <= 15.0


def test_honest_produce_peak_memory_per_round():
    # Alice's and Bob's codes (2 bytes a round) and chunk-sized temporaries;
    # (n, 3) rows of bits took 6.9 bytes a round, a gather of Bob's rows over
    # all n rounds at once 16, and Bob's row index and noise flags over all
    # n rounds 2 more
    n = 10**6
    rng = np.random.default_rng(0)
    xs, ys = (rng.integers(0, 3, n).astype(np.uint8) for _ in range(2))
    boxes = diqkd.honest_boxes(0.05, 1)
    tracemalloc.start()
    try:
        boxes.produce(xs, ys, diqkd.LeakageChannel(diqkd.LeakageBudget(0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 3.0


# ---------------------------------------------------------------------------
# batches of whole runs
# ---------------------------------------------------------------------------

# name -> boxes seeded alike on every call; each runs on a budget of 0
_BATCH_BOXES = {
    "honest": lambda: diqkd.honest_boxes(0.05, 3),
    "honest-noiseless": lambda: diqkd.honest_boxes(0.0, 4),
    "baseline": diqkd.baseline_cheating_boxes,
    "test_set": lambda: diqkd.test_set_cheating_boxes(30),
}
_BATCH_SIZES = (1, 7, 2000, 2**16 - 1, 2**16 + 1)


def _batch_row(batch, r):
    return {name: getattr(batch, name)[r].item() for name in batch._fields}


def _record_row(rec):
    return {
        "aborted": rec.aborted,
        "qber": rec.qber,
        "mismatch_S": rec.mismatch_S,
        "matches": rec.matches,
        "keys_equal": not rec.aborted and bool(np.array_equal(rec.K_A, rec.K_B)),
        "leaked_bits": rec.leaked_bits,
    }


@pytest.mark.parametrize("name", list(_BATCH_BOXES))
@pytest.mark.parametrize("n", _BATCH_SIZES)
def test_one_run_batch_is_run_protocol(n, name):
    make = _BATCH_BOXES[name]
    params = diqkd.ProtocolParams(n=n, alpha=0.5, gamma=0.2, delta=0.05, seed=n % 5)
    for run_index in (0, 3):
        batch = diqkd.run_batch(params, make(), 1, run_index=run_index)
        rec = diqkd.run_protocol(params, make(), budget=diqkd.LeakageBudget(0), run_index=run_index)
        assert batch.aborted.dtype == bool and batch.keys_equal.dtype == bool
        assert batch.qber.dtype == batch.mismatch_S.dtype == np.float64
        assert batch.matches.dtype == np.int64
        row = _batch_row(batch, 0)
        want = _record_row(rec)
        assert row == want
        assert [type(v) for v in row.values()] == [type(v) for v in want.values()]


# Run 0 reads the first n inputs and the first S and T draws of the
# batch's streams.
@pytest.mark.parametrize("n,name", [(n, name) for n in _BATCH_SIZES for name in _BATCH_BOXES])
def test_first_run_of_a_batch_is_run_protocol(n, name):
    make = _BATCH_BOXES[name]
    params = diqkd.ProtocolParams(n=n, alpha=0.5, gamma=0.2, delta=0.05, seed=2)
    runs = 3 if n > 2**15 else 40
    batch = diqkd.run_batch(params, make(), runs, run_index=1)
    rec = diqkd.run_protocol(params, make(), budget=diqkd.LeakageBudget(0), run_index=1)
    assert batch.aborted.shape == (runs,)
    assert _batch_row(batch, 0) == _record_row(rec)


def _reference_run_batch(params, boxes, runs, run_index=0):
    """run_batch as one whole-length block of all runs and per-run 2-D
    gathers, with int64 inputs and whole-length set draws."""
    n, s, t = params.n, params.s_size, params.t_size
    rng_x, rng_y, rng_s, rng_t = (np.random.default_rng([params.seed, run_index, k]) for k in range(4))
    xs = rng_x.integers(0, 3, runs * n)
    ys = rng_y.integers(0, 3, runs * n)
    A, B = boxes.produce(xs, ys, diqkd.LeakageChannel(diqkd.LeakageBudget(0)))
    A = _reference_rows("Alice", np.asarray(A), parity=0)
    B = _reference_rows("Bob", np.asarray(B), parity=1)
    rows = []
    for i in range(runs):
        run = slice(i * n, (i + 1) * n)
        x, y, a, bb = xs[run], ys[run], A[run], B[run]
        S = _reference_subset(rng_s, n, s)
        T = S[_reference_subset(rng_t, s, t)]
        matches = int((a[T, y[T]] == bb[T, x[T]]).sum())
        passed = matches >= math.ceil((1.0 - 2.0 * params.delta) * t - 1e-9)
        key_a, key_b = a[S, y[S]], bb[S, x[S]]
        rows.append({
            "aborted": not passed,
            "qber": 1.0 - matches / t,
            "mismatch_S": float((key_a != key_b).mean()),
            "matches": matches,
            "keys_equal": passed and bool(np.array_equal(key_a, key_b)),
            "leaked_bits": 0,
        })
    return rows


@pytest.mark.parametrize(
    "name", ["honest", "honest-noiseless", "baseline", "int64-rows", "bool-rows"]
)
@pytest.mark.parametrize("n,runs", [(1, 5), (7, 100), (2000, 70), (30000, 5), (2**16 + 1, 2)])
def test_run_batch_matches_the_whole_block_reference(n, runs, name):
    make, make_ref, _, _ = _DIFFERENTIAL_BOXES[name]
    params = diqkd.ProtocolParams(n=n, alpha=0.5, gamma=0.3, delta=0.05, seed=n % 3)
    batch = diqkd.run_batch(params, make(), runs, run_index=2)
    want = _reference_run_batch(params, make_ref(), runs, run_index=2)
    assert [_batch_row(batch, r) for r in range(runs)] == want


def _assert_batches_equal(got, want, runs=None):
    """Every per-run array of ``got`` bitwise equal to the first ``runs``
    entries (all of them by default) of ``want``'s."""
    for name in diqkd.BatchRecord._fields:
        a, b = getattr(got, name), getattr(want, name)[:runs]
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


# (n, runs): blocks of many runs, of one run, and runs of several chunks,
# at both chunk sizes
@pytest.mark.parametrize("name", list(_BATCH_BOXES))
@pytest.mark.parametrize("n,runs", [(1, 1500), (7, 300), (2000, 40), (2001, 9), (70_000, 3)])
def test_run_batch_does_not_depend_on_the_chunk_size(monkeypatch, n, runs, name):
    make = _BATCH_BOXES[name]
    params = diqkd.ProtocolParams(n=n, alpha=0.5, gamma=0.2, delta=0.05, seed=n % 4)
    want = diqkd.run_batch(params, make(), runs, run_index=1)
    monkeypatch.setattr(diqkd, "_CHUNK", 2**10)
    _assert_batches_equal(diqkd.run_batch(params, make(), runs, run_index=1), want)


@pytest.mark.parametrize("name", list(_BATCH_BOXES))
@pytest.mark.parametrize("n,runs", [(1, 20), (7, 13), (2000, 17), (30_000, 2)])
def test_a_batch_is_a_prefix_of_a_longer_batch(n, runs, name):
    make = _BATCH_BOXES[name]
    params = diqkd.ProtocolParams(n=n, alpha=0.5, gamma=0.2, delta=0.05, seed=n % 3)
    longer = diqkd.run_batch(params, make(), 3 * runs, run_index=2)
    _assert_batches_equal(diqkd.run_batch(params, make(), runs, run_index=2), longer, runs)


@pytest.mark.parametrize("name", ["honest", "honest-noiseless", "baseline"])
def test_an_unspent_leash_changes_no_number(name):
    # a positive leash makes every run a block of its own; boxes that do
    # not leak draw the same numbers (the test-set cheater spends it)
    make = _BATCH_BOXES[name]
    params = diqkd.ProtocolParams(n=2000, alpha=0.5, gamma=0.2, delta=0.05, seed=1)
    _assert_batches_equal(diqkd.run_batch(params, make(), 50, limit_bits=5), diqkd.run_batch(params, make(), 50))


def test_an_adversary_changes_only_the_leaked_bits():
    adversary = diqkd.load_adversary(_PREFIX_ADVERSARY)
    params = diqkd.ProtocolParams(n=300, alpha=0.5, gamma=0.2, delta=0.05, seed=3)
    quiet = diqkd.run_batch(params, diqkd.honest_boxes(0.05, 6), 40)
    leaky = diqkd.run_batch(params, diqkd.honest_boxes(0.05, 6), 40, adversary=adversary, limit_bits=11)
    np.testing.assert_array_equal(leaky.leaked_bits, np.full(40, 11))
    _assert_batches_equal(leaky._replace(leaked_bits=quiet.leaked_bits), quiet)


def test_every_run_of_a_test_set_batch_spends_its_own_leash():
    params = diqkd.ProtocolParams(n=200, alpha=0.5, gamma=0.5, delta=0.1, seed=21)
    # 5 bits a round: a 500-bit leash buys 40 rounds of every run
    batch = diqkd.run_batch(params, diqkd.test_set_cheating_boxes(40), 30, limit_bits=500)
    np.testing.assert_array_equal(batch.leaked_bits, np.full(30, 200))
    rec = diqkd.run_protocol(params, diqkd.test_set_cheating_boxes(40), budget=diqkd.LeakageBudget(500))
    assert _batch_row(batch, 0) == _record_row(rec)
    # a leash for every round defeats the test in every run
    full = diqkd.run_batch(params, diqkd.test_set_cheating_boxes(params.n), 30, limit_bits=5 * params.n)
    np.testing.assert_array_equal(full.leaked_bits, np.full(30, 5 * params.n))
    assert not full.aborted.any()


class _LeakingBoxes(diqkd.BaselineCheatingBoxes):
    def produce(self, xs, ys, channel):
        channel.send("alice_box", "bob_box", 1)
        return super().produce(xs, ys, channel)


def test_run_batch_refuses_leaks_and_bad_counts():
    params = diqkd.ProtocolParams(n=50, alpha=0.5, gamma=0.2, delta=0.05, seed=0)
    with pytest.raises(BudgetExceededError):
        diqkd.run_batch(params, _LeakingBoxes(), 10)
    for runs in (0, -1, 2.5):
        with pytest.raises(ValidationError):
            diqkd.run_batch(params, diqkd.baseline_cheating_boxes(), runs)
    with pytest.raises(ValidationError):
        diqkd.run_batch(params, diqkd.baseline_cheating_boxes(), 2, run_index=-1)
    for limit_bits in (-1, 2.5, math.nan):
        with pytest.raises(ValidationError):
            diqkd.run_batch(params, diqkd.baseline_cheating_boxes(), 2, limit_bits=limit_bits)


def test_run_batch_checks_every_block_of_rows():
    # rows are checked a block at a time: a bad row in a later block is
    # refused too
    class LateBadParity(diqkd.BoxPair):
        calls = 0

        def produce(self, xs, ys, channel):
            self.calls += 1
            B = np.full(xs.size, 1)  # the odd row 001
            if self.calls == 2:
                B[-1] = 0  # the even row 000
            return np.zeros(xs.size, dtype=np.int64), B

    params = diqkd.ProtocolParams(n=2**15, alpha=0.5, gamma=0.2, delta=0.05, seed=0)
    with pytest.raises(ValidationError, match="parity"):
        diqkd.run_batch(params, LateBadParity(), 5)


# ---------------------------------------------------------------------------
# rate formula and tails
# ---------------------------------------------------------------------------


def test_binary_entropy_endpoints():
    assert diqkd.binary_entropy(0.0) == 0.0
    assert diqkd.binary_entropy(1.0) == 0.0
    assert diqkd.binary_entropy(0.5) == 1.0
    with pytest.raises(ValidationError):
        diqkd.binary_entropy(1.2)


def test_binary_entropy_against_scipy():
    # 0.11 recomputed with an independent implementation; the frozen digits
    # are pinned separately to guard against regressions
    for x in (0.11, 0.25, 0.4):
        oracle = float(scipy.stats.entropy([x, 1 - x], base=2))
        assert diqkd.binary_entropy(x) == pytest.approx(oracle, abs=1e-12)
    assert diqkd.binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)


@given(st.floats(0.0, 1.0, allow_nan=False))
def test_binary_entropy_symmetry(x):
    assert diqkd.binary_entropy(x) == pytest.approx(diqkd.binary_entropy(1 - x), abs=1e-12)


def _rate_oracle(alpha, gamma, delta, c, n, nu, beta, PrE):
    def h2(x):
        return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    return alpha * (nu - beta * (math.sqrt(c) + math.sqrt(alpha)) - 2 * h2(4 * delta) - gamma) * n - math.log2(1 / PrE)


def test_key_rate_matches_hand_arithmetic():
    points = [
        (0.04, 0.01, 0.001, 0.001, 10**6, 0.3, 0.5, 1.0),
        (0.25, 0.0, 0.0, 0.0, 1000, 0.3, 1.0, 1.0),
        (0.5, 0.1, 0.05, 0.2, 5000, 0.8, 0.7, 0.9),
    ]
    for alpha, gamma, delta, c, n, nu, beta, PrE in points:
        out = diqkd.key_rate(
            diqkd.KeyRateParams(alpha=alpha, gamma=gamma, delta=delta, c=c, n=n, nu=nu, beta=beta, PrE=PrE)
        )
        expect = _rate_oracle(alpha, gamma, delta, c, n, nu, beta, PrE)
        assert out["hmin_minus_h0_bits"] == pytest.approx(expect, rel=1e-12, abs=1e-12)
        assert out["rate_per_copy"] == pytest.approx(expect / n, rel=1e-12, abs=1e-15)
        assert out["eps_smooth"] == pytest.approx(2 * 2 ** (-8 * delta**2 * alpha * n) / PrE, rel=1e-12)


def test_key_rate_validation():
    with pytest.raises(ValidationError):
        diqkd.KeyRateParams(alpha=0.0, gamma=0.1, delta=0.01, c=0.0, n=100)
    with pytest.raises(ValidationError):
        diqkd.KeyRateParams(alpha=0.5, gamma=0.1, delta=0.2, c=0.0, n=100)  # delta > 1/8
    # gamma = 0 stays legal: the formula needs no test rounds
    diqkd.KeyRateParams(alpha=0.5, gamma=0.0, delta=0.01, c=0.0, n=100)


def test_serfling_mc_exact_small_case():
    # n=10, t=5, eps=0.2, pattern with 5 good rounds: the joint event needs
    # >= 4 good in the subset; hypergeometric count 26/252
    n, gamma, eps = 10, 0.5, 0.2
    pattern = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
    exact = (math.comb(5, 4) * math.comb(5, 1) + math.comb(5, 5)) / math.comb(10, 5)
    out = diqkd.serfling_mc(n, gamma, eps, pattern, trials=40000, seed=1)
    sigma = math.sqrt(exact * (1 - exact) / 40000)
    assert abs(out["empirical"] - exact) < 4 * sigma
    assert out["bound"] == pytest.approx(2 ** (-2 * eps**2 * gamma * n), rel=1e-12)


def _exact_serfling_tail(n, gamma, eps, good):
    """P(the serfling event) for a fixed string with ``good`` ones, from
    exact rational thresholds and hypergeometric terms summed with
    ``math.comb``; ``gamma`` and ``eps`` are Fractions."""
    if good >= math.ceil((1 - 2 * eps) * n):
        return 0.0
    t = math.floor(gamma * n)
    floor = math.ceil((1 - eps) * gamma * n)
    favourable = sum(math.comb(good, k) * math.comb(n - good, t - k) for k in range(floor, t + 1))
    return favourable / math.comb(n, t)


_SERFLING_CASES = [  # n, gamma, eps, good rounds
    (100, Fraction(1, 5), Fraction(1, 5), 59),  # the README command: P(>= 16 of 20) = 0.0273514284
    (10, Fraction(1, 2), Fraction(1, 5), 5),
    (60, Fraction(1, 4), Fraction(1, 5), 35),
    (1000, Fraction(1, 5), Fraction(1, 20), 899),
    (200, Fraction(3, 10), Fraction(1, 10), 150),
    (20, Fraction(1), Fraction(1, 10), 15),  # T is the whole string: never both
]


@pytest.mark.parametrize(
    "n,gamma,eps,good", _SERFLING_CASES, ids=["readme", "n10", "n60", "n1000", "n200", "whole-string"]
)
def test_serfling_mc_matches_the_exact_tail(n, gamma, eps, good):
    exact = _exact_serfling_tail(n, gamma, eps, good)
    trials = 10**5
    pattern = np.concatenate([np.ones(good), np.zeros(n - good)])
    out = diqkd.serfling_mc(n, float(gamma), float(eps), pattern, trials=trials, seed=2)
    assert abs(out["empirical"] - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)


def test_serfling_mc_iid_matches_the_exact_mixture():
    # an i.i.d. Bernoulli(P) string holds K ~ Binomial(n, P) good rounds:
    # the event's chance is the binomial mixture of the fixed-string tails
    n, gamma, eps, P, trials = 100, Fraction(1, 5), Fraction(1, 5), Fraction(11, 20), 10**5
    exact = float(sum(math.comb(n, k) * P**k * (1 - P) ** (n - k) * Fraction(_exact_serfling_tail(n, gamma, eps, k))
                      for k in range(n + 1)))
    assert exact == pytest.approx(0.0080489530, abs=1e-10)
    out = diqkd.serfling_mc(n, float(gamma), float(eps), 0.55, trials=trials, seed=8)
    assert abs(out["empirical"] - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)


@pytest.mark.parametrize("n,trials", [(1000, 500), (300, 1000), (5000, 60), (1000, 2**16 + 5), (300, 3 * 2**16)])
def test_serfling_mc_chunks_match_one_shot_draw(n, trials):
    # each trial is one hypergeometric draw of the good rounds in T, made
    # _CHUNK trials at a time: the same numbers as one call.  11 zeros and
    # eps = 5/n make the whole string bad while a test set of 0.2 n rounds
    # holds at most one zero about a third of the time.
    gamma, eps, seed = 0.2, 5 / n, 4
    Z = np.ones(n)
    Z[:11] = 0.0
    t = math.floor(gamma * n + 1e-9)
    counts = np.random.default_rng([seed, 0]).hypergeometric(n - 11, 11, t, size=trials)
    hits = int((counts >= t - 1).sum())
    assert 0.1 * trials < hits < 0.9 * trials
    out = diqkd.serfling_mc(n, gamma, eps, Z, trials=trials, seed=seed)
    assert out["empirical"] == hits / trials


def test_serfling_mc_refuses_a_population_numpy_cannot_sample():
    # numpy's hypergeometric sampler raises a bare ValueError for these
    for good, n in ((10**9, 10**9 + 5), (5, 10**9 + 5)):
        with pytest.raises(ValidationError, match="below 1000000000"):
            diqkd._check_population(good, n)
    diqkd._check_population(10**9 - 1, 2 * 10**9 - 2)
    np.random.default_rng(0).hypergeometric(10**9 - 1, 10**9 - 1, 3)


def test_serfling_mc_degenerate_patterns():
    out = diqkd.serfling_mc(100, 0.2, 0.2, np.ones(100), 1000, 0)
    assert out["empirical"] == 0.0  # the whole string is never "bad"
    out = diqkd.serfling_mc(100, 0.2, 0.2, np.zeros(100), 1000, 0)
    assert out["empirical"] == 0.0  # no subset can look good
    out = diqkd.serfling_mc(5, 0.1, 0.2, np.zeros(5), 50, 0)
    assert out["empirical"] == 0.0  # empty test set


def test_serfling_mc_iid_pattern():
    # P = 0 never has a good round in T; P = 1 never has a bad string
    for prob in (0, 0.0, 1, 1.0):
        assert diqkd.serfling_mc(100, 0.2, 0.2, prob, 1000, 0)["empirical"] == 0.0
    out = diqkd.serfling_mc(12, 0.5, 0.25, 0.5, trials=2000, seed=3)
    assert 0.0 < out["empirical"] < 1.0
    assert diqkd.serfling_mc(12, 0.5, 0.25, 0.5, trials=2000, seed=3) == out


def test_serfling_mc_refuses_an_iid_string_the_sampler_cannot_draw(monkeypatch):
    # K ~ Binomial(n, P) may reach n, so n itself must be below numpy's limit
    draws = []
    monkeypatch.setattr(diqkd.np.random, "default_rng", lambda *args: draws.append(args))
    for n in (10**9, 3 * 10**9):
        with pytest.raises(ValidationError, match="i.i.d. pattern"):
            diqkd.serfling_mc(n, 0.2, 0.2, 0.5, 10, 0)
    assert draws == []
    monkeypatch.undo()
    out = diqkd.serfling_mc(10**9 - 1, 1e-8, 0.2, 0.5, 3, 0)
    assert out["empirical"] in (0.0, 1 / 3, 2 / 3, 1.0)


def test_serfling_mc_validation():
    with pytest.raises(ValidationError):
        diqkd.serfling_mc(10, 0.5, 0.7, np.zeros(10), 100, 0)
    with pytest.raises(ValidationError):
        diqkd.serfling_mc(10, 0.5, 0.2, np.zeros(7), 100, 0)  # wrong length


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_expand_grid_order():
    cells = diqkd.expand_grid({"a": [1, 2], "b": [10, 20]})
    assert cells == [
        {"a": 1, "b": 10},
        {"a": 1, "b": 20},
        {"a": 2, "b": 10},
        {"a": 2, "b": 20},
    ]


def test_sweep_rows_without_runs():
    rows = diqkd.sweep([{"n": 100, "alpha": 0.5, "gamma": 0.1, "delta": 0.01}], 0, 0)
    (row,) = rows
    assert tuple(row) == diqkd.SWEEP_COLUMNS
    assert math.isnan(row["abort_freq"]) and math.isnan(row["qber"])
    assert row["PrE_est"] == 1.0
    oracle = _rate_oracle(0.5, 0.1, 0.01, 0.0, 100, 0.01, 1.0, 1.0)
    assert row["rate_bits"] == pytest.approx(oracle, rel=1e-12)


def test_sweep_with_runs_feeds_pre_estimate():
    rows = diqkd.sweep(
        [{"n": 200, "alpha": 0.5, "gamma": 0.2, "delta": 0.0}], runs_per_cell=10, seed=4
    )
    (row,) = rows
    assert row["abort_freq"] == 0.0
    assert row["qber"] == 0.0
    assert row["PrE_est"] == 1.0
    again = diqkd.sweep(
        [{"n": 200, "alpha": 0.5, "gamma": 0.2, "delta": 0.0}], runs_per_cell=10, seed=4
    )
    assert rows == again


def test_sweep_checks_every_cell_before_the_first_run(monkeypatch):
    calls = []
    real = diqkd.run_batch

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(diqkd, "run_batch", counting)
    good = {"n": 200, "alpha": 0.5, "gamma": 0.2, "delta": 0.02}
    # an unknown key; delta past ProtocolParams' and past KeyRateParams'
    # range; a missing key
    bad_cells = ({**good, "zeta": 1}, {**good, "delta": 0.7}, {**good, "delta": 0.2}, {"n": 200, "alpha": 0.5})
    for bad in bad_cells:
        with pytest.raises(ValidationError):
            diqkd.sweep([good, good, bad], runs_per_cell=5, seed=0)
    assert calls == []
    # with valid cells the wrapper sees one call a distinct configuration
    diqkd.sweep([good, good], runs_per_cell=5, seed=0)
    assert len(calls) == 1
    calls.clear()
    diqkd.sweep([good, {**good, "c": 0.001}, {**good, "gamma": 0.1}], runs_per_cell=5, seed=0)
    assert len(calls) == 2


def test_sweep_shares_one_simulation_per_configuration():
    # duplicates along c, nu and beta, one literal duplicate cell, and a
    # second configuration between them
    base = {"n": 300, "alpha": 0.5, "gamma": 0.2, "delta": 0.05}
    cells = [
        base,
        {**base, "c": 0.001},
        {**base, "gamma": 0.1},
        {**base, "nu": 0.3},
        {**base, "gamma": 0.1, "beta": 0.5},
        {**base, "c": 0.002, "nu": 0.2, "beta": 0.7},
        base,
    ]
    runs, seed = 40, 3
    rows = diqkd.sweep(cells, runs_per_cell=runs, seed=seed)
    first = {}  # gamma -> index of the first cell with that configuration
    for ci, cell in enumerate(cells):
        first.setdefault(cell["gamma"], ci)
    for cell, row in zip(cells, rows):
        ci = first[cell["gamma"]]
        params = diqkd.ProtocolParams(n=300, alpha=0.5, gamma=cell["gamma"], delta=0.05, seed=seed)
        batch = diqkd.run_batch(params, diqkd.honest_boxes(0.05, [seed, ci, 7]), runs, run_index=ci)
        abort_freq = int(np.count_nonzero(batch.aborted)) / runs
        assert row["abort_freq"] == abort_freq
        assert row["qber"] == float(np.mean(batch.qber))
        pre = max(1.0 - abort_freq, 1e-9)
        assert row["PrE_est"] == pre
        conf = {"c": 0.0, "nu": 0.01, "beta": 1.0, **cell}
        expect = _rate_oracle(0.5, cell["gamma"], 0.05, conf["c"], 300, conf["nu"], conf["beta"], pre)
        assert row["rate_bits"] == pytest.approx(expect, rel=1e-12, abs=1e-12)
        assert row["eps_smooth"] == pytest.approx(2 * 2 ** (-8 * 0.05**2 * 0.5 * 300) / pre, rel=1e-12)
    # the literal duplicate prints its first cell's row
    assert rows[-1] == rows[0]


def test_sweep_validation():
    with pytest.raises(ValidationError):
        diqkd.sweep([{"n": 100, "alpha": 0.5, "gamma": 0.1, "delta": 0.01, "zeta": 1}], 0, 0)
    with pytest.raises(ValidationError):
        diqkd.sweep([{"n": 100, "alpha": 0.5}], 0, 0)  # missing keys
    with pytest.raises(ValidationError):
        diqkd.sweep([], -1, 0)


def test_sweep_checks_each_value_against_its_own_range():
    # nan was refused as "alpha must lie in (-inf, inf)"
    with pytest.raises(ValidationError, match=r"alpha must lie in \(0\.0, 1\.0\]"):
        diqkd.sweep([{"n": 100, "alpha": math.nan, "gamma": 0.1, "delta": 0.01}], 0, 0)
    with pytest.raises(ValidationError, match="real number"):
        diqkd.sweep([{"n": 100, "alpha": "0.5", "gamma": 0.1, "delta": 0.01}], 0, 0)
