"""Device-independent key distribution on noisy grid-game boxes.

Simulates the sampling protocol (random inputs, test subset, abort
threshold, raw keys), with a metered classical leakage channel between
the boxes that is open only before outputs are produced.  Also provides
the closed-form key-rate evaluator and a Monte Carlo check of the
sampling tail bound it relies on.

The constants ``nu`` and ``beta`` in the rate formula are heuristic
defaults (0.01 and 1.0), not derived values; callers should supply their
own.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BudgetExceededError,
    ProtocolViolationError,
    ValidationError,
    check_range,
)

_ENDPOINTS = ("alice_box", "bob_box", "eve")

# Rounds per chunk of the simulator's draws: a chunk's int64 and float64
# temporaries (512 kB each) stay in cache.
_CHUNK = 2**16

# numpy's hypergeometric sampler refuses a population with this many good
# or bad members
_HYPERGEOMETRIC_MAX = 10**9

# Rounds a simulated run may hold: a run's peak is ~14.5 bytes a round at
# alpha 0.5 and ~29 at alpha 1 (tracemalloc, n = 10^6; the int64 S, x_S
# and y_S of the record set the second), so a run stays under ~1.5 GB.
_ROUNDS_LIMIT = 5 * 10**7

SWEEP_COLUMNS = (
    "n",
    "alpha",
    "gamma",
    "delta",
    "c",
    "nu",
    "beta",
    "PrE_est",
    "abort_freq",
    "qber",
    "rate_bits",
    "rate_per_copy",
    "eps_smooth",
    "seed",
)


# ---------------------------------------------------------------------------
# Parameters and records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol configuration: ``n`` rounds, key fraction ``alpha``, test
    fraction ``gamma`` (of the key rounds), tolerated noise ``delta``.
    More than ``_ROUNDS_LIMIT`` rounds raise ``BudgetExceededError`` once
    the fields are checked, before any run draws."""

    n: int
    alpha: float
    gamma: float
    delta: float
    seed: int = 0

    def __post_init__(self) -> None:
        check_range("n", self.n, 1, math.inf, integer=True)
        check_range("alpha", self.alpha, 0.0, 1.0, lo_open=True)
        check_range("gamma", self.gamma, 0.0, 1.0, lo_open=True)
        check_range("delta", self.delta, 0.0, 0.5, hi_open=True)
        check_range("seed", self.seed, 0, math.inf, integer=True)
        if self.n > _ROUNDS_LIMIT:
            raise BudgetExceededError(f"{self.n} rounds exceed the limit {_ROUNDS_LIMIT} of a simulated run")

    @property
    def s_size(self) -> int:
        return max(1, math.floor(self.alpha * self.n))

    @property
    def t_size(self) -> int:
        return max(1, math.floor(self.gamma * self.s_size))


@dataclass(frozen=True)
class TranscriptRecord:
    """Immutable outcome of one protocol run."""

    S: np.ndarray
    T: np.ndarray
    x_S: np.ndarray
    y_S: np.ndarray
    a_T: np.ndarray
    aborted: bool
    K_A: np.ndarray | None
    K_B: np.ndarray | None
    qber: float
    mismatch_S: float
    matches: int
    leaked_bits: int


@dataclass
class LeakageBudget:
    limit_bits: int
    used_bits: int = 0

    def __post_init__(self) -> None:
        check_range("limit_bits", self.limit_bits, 0, math.inf, integer=True)
        check_range("used_bits", self.used_bits, 0, math.inf, integer=True)

    def debit(self, bits: int) -> None:
        check_range("message length", bits, 0, math.inf, integer=True)
        if self.used_bits + bits > self.limit_bits:
            raise BudgetExceededError(
                f"leakage of {bits} bits exceeds budget "
                f"({self.used_bits}/{self.limit_bits} used)"
            )
        self.used_bits += bits


def _check_endpoints(src: str, dst: str) -> None:
    if src not in _ENDPOINTS or dst not in _ENDPOINTS:
        raise ValidationError(f"unknown endpoint in {src!r} -> {dst!r}")
    if src == dst:
        raise ValidationError("a message needs distinct endpoints")


class LeakageChannel:
    """Metered message channel between the boxes and the eavesdropper.

    Every message, only a length in bits, debits the shared budget.  The
    channel locks once outputs are produced; sending afterwards is a
    protocol violation.
    """

    def __init__(self, budget: LeakageBudget):
        self.budget = budget
        self._locked = False

    @property
    def remaining(self) -> int:
        return self.budget.limit_bits - self.budget.used_bits

    def send(self, src: str, dst: str, bits: int) -> None:
        if self._locked:
            raise ProtocolViolationError("leakage attempted after outputs were produced")
        _check_endpoints(src, dst)
        self.budget.debit(bits)

    def lock(self) -> None:
        self._locked = True


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------


# an 8-entry bit table: bit c is the parity of row code c (codes 1, 2, 4
# and 7 are odd)
_CODE_PARITY = np.uint8(0b10010110)


def _code_rows(codes: np.ndarray) -> np.ndarray:
    """The rows of uint8 ``codes``, as bits in a new last axis of length 3."""
    rows = codes[..., None] >> np.array([2, 1, 0], dtype=np.uint8)
    rows &= 1
    return rows


class BoxPair:
    """A pair of devices answering n parallel grid-game rounds.

    ``produce`` receives both input strings, as uint8 arrays of length n
    with entries in {0, 1, 2}, and the (pre-output) leakage channel.  It
    must return Alice's and Bob's answers as two integer arrays of shape
    (n,), one code a round: the row ``(r0, r1, r2)`` as ``4 r0 + 2 r1 +
    r2``, so the bit at position p is ``(code >> (2 - p)) & 1``.  Alice's
    rows have even parity (codes 0, 3, 5, 6), Bob's odd parity (1, 2, 4,
    7); uint8 codes are checked fastest.

    Building a box loads ``games`` for the grid game's even and odd
    parity rows, so the commands that build none (``diqkd rate``,
    ``diqkd serfling``) load neither it nor ``qcore``.  The boxes below
    call ``BoxPair.__init__`` before they make their generators: loaded
    inside the first run instead, after those and the run's round
    arrays, ``games`` raised the peak RSS of an n = 10^6 run by ~0.8 MB.
    """

    def __init__(self):
        from .games import EVEN_BITS, ODD_BITS

        weights = np.array([4, 2, 1], dtype=np.uint8)
        self._even_codes, self._odd_codes = EVEN_BITS @ weights, ODD_BITS @ weights

    def produce(self, xs: np.ndarray, ys: np.ndarray, channel: LeakageChannel):
        raise NotImplementedError


@functools.cache
def _ms_index_table() -> np.ndarray:
    """Flat inverse-CDF table of the grid strategy, whose outcome at each
    input pair is uniform over the 8 winning joint outcomes ``4a + b``:
    entry ``9 (3x + y) + j`` is that pair's ``j``-th winning outcome,
    counting from 1 in ascending order, the one that a uniform draw ``u``
    with ``ceil(8u) = j`` selects; ``j = 0``, a draw of exactly 0, takes
    the first."""
    from . import games

    wins = games.magic_square().V.transpose(2, 3, 0, 1).reshape(9, 16)
    outcomes = np.nonzero(wins)[1].reshape(9, 8)  # row-major: ascending within each pair
    return outcomes[:, [0, 0, 1, 2, 3, 4, 5, 6, 7]].astype(np.uint8).ravel()


def _grid_inputs(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """``xs`` and ``ys`` as arrays after checking that they have one shape
    and hold integers in {0, 1, 2}: a negative index would wrap and a flat
    table index would land in another cell without an error."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    for name, values in (("xs", xs), ("ys", ys)):
        if values.dtype.kind not in "iu":
            raise ValidationError(f"{name} must be an integer array, got dtype {values.dtype}")
        if values.size and (values.min() < 0 or values.max() > 2):
            raise ValidationError(f"{name} entries must lie in {{0, 1, 2}}")
    if xs.shape != ys.shape:
        raise ValidationError(f"xs and ys must have one shape, got {xs.shape} and {ys.shape}")
    return xs, ys


def _chunks(n: int):
    """``(lo, hi)`` bounds of the consecutive ``_CHUNK``-round slices of
    ``range(n)``."""
    for lo in range(0, n, _CHUNK):
        yield lo, min(lo + _CHUNK, n)


def _draw_inputs(rng, n: int) -> np.ndarray:
    """``rng.integers(0, 3, n)`` as uint8, drawn chunk by chunk (the same
    numbers as one call of length n)."""
    out = np.empty(n, dtype=np.uint8)
    for lo, hi in _chunks(n):
        out[lo:hi] = rng.integers(0, 3, hi - lo)
    return out


def _subset(rng, n: int, k: int) -> np.ndarray:
    """A uniform k-subset of ``range(n)`` (0 <= k <= n), as sorted int64
    indices, in three steps:

    1. flags: index i is flagged when the i-th 16-bit word of ``ceil(n /
       4)`` raw 64-bit outputs of ``rng``'s bit generator (little-endian)
       lies below ``round(65536 k / n)``;
    2. count: K flags are set;
    3. fix: a uniform choice (``rng.choice`` of ranks) of K - k of the set
       flags is cleared, or of k - K of the clear ones is set.

    The result is exactly uniform.  The flags are i.i.d., so their law
    does not change when the indices are permuted; the fix chooses the
    flags it flips by rank among those of one value, whichever indices
    hold them.  So the result's law is invariant under every permutation
    of ``range(n)``, and the result always has k members: the only such
    law is the uniform one on k-subsets.  The threshold just keeps K near
    k: the fix flips about sqrt(k) + n / 2^17 flags on average.

    The words (2 bytes a round) live for one statement, and the flipped
    flags are located chunk by chunk: besides the n flags and the result,
    no array of n entries is held, and no int64 index of the whole pool."""
    threshold = (2**17 * k + n) // (2 * n)  # round(65536 k / n), ties up
    flags = rng.bit_generator.random_raw(-(-n // 4)).astype("<u8", copy=False).view("<u2")[:n] < threshold
    surplus = np.count_nonzero(flags) - k
    if surplus:
        value = surplus > 0  # clear surplus set flags, or set missing ones
        ranks = rng.choice(k + surplus if value else n - k - surplus, abs(surplus), replace=False, shuffle=False)
        ranks.sort()
        for lo, hi in _chunks(n):
            if not ranks.size:
                break
            chunk = flags[lo:hi]
            members = (chunk if value else ~chunk).nonzero()[0]
            cut = ranks.searchsorted(members.size)
            chunk[members[ranks[:cut]]] = not value
            ranks = ranks[cut:] - members.size
    return flags.nonzero()[0]


def _subsets(rng, b: int, n: int, k: int) -> np.ndarray:
    """``b`` draws of ``_subset(rng, n, k)`` as the rows of a (b, k) array;
    a single draw is used as it is, not copied."""
    if b == 1:
        return _subset(rng, n, k)[None]
    rows = np.empty((b, k), dtype=np.int64)
    for row in rows:
        row[:] = _subset(rng, n, k)
    return rows


class HonestBoxes(BoxPair):
    """Ideal strategy with per-copy win probability exactly 1 - delta:
    with probability 2*delta Bob's answer is replaced by a uniform
    odd-parity row (which then agrees with Alice in the probed cell half
    the time).

    Each round's joint outcome comes from one uniform draw ``u`` by
    inverting the cumulative distribution of the grid strategy's outcomes
    at ``(x, y)``.  Each of the 8 winning outcomes has probability 1/8 and
    the others none, so the outcome depends only on ``ceil(8u)`` (``8u``
    is exact in floating point): the inverse is a 9 x 9 integer table,
    indexed by the input pair and ``ceil(8u)``, and one flat gather per
    round and party selects that party's code from an 81-entry table.

    Draw order: each draw phase has its own stream, spawned from ``seed``.
    Round i reads the i-th cell uniform and the i-th noise flag; the k-th
    noisy round reads the k-th replacement answer (quiet rounds draw
    none).  So the rows do not depend on how the rounds are split into
    calls and chunks."""

    def __init__(self, delta: float, seed):
        super().__init__()
        check_range("delta", delta, 0.0, 0.5)
        self.delta = float(delta)
        self._cells, self._noise, self._answers = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(3))

    def produce(self, xs, ys, channel):
        xs, ys = _grid_inputs(xs, ys)
        xs = xs.astype(np.uint8, copy=False).ravel()
        ys = ys.astype(np.uint8, copy=False).ravel()
        n = xs.size
        joint = _ms_index_table()
        alice_codes = self._even_codes[joint >> 2]  # Alice's code per table entry
        bob_codes = self._odd_codes[joint & 3]  # Bob's code per table entry
        A = np.empty(n, dtype=np.uint8)
        B = np.empty(n, dtype=np.uint8)
        for lo, hi in _chunks(n):
            eighths = self._cells.random(hi - lo)
            eighths *= 8.0
            cell = np.ceil(eighths, out=eighths).astype(np.uint8)
            # free each chunk's 8-byte temporaries once read: in a block of
            # whole runs they set the peak
            del eighths
            cell += 27 * xs[lo:hi]  # 9 (3x + y) + ceil(8u) <= 80
            cell += 9 * ys[lo:hi]
            np.take(alice_codes, cell, out=A[lo:hi])
            np.take(bob_codes, cell, out=B[lo:hi])
            noisy = np.flatnonzero(self._noise.random(hi - lo) < 2.0 * self.delta)
            B[lo + noisy] = self._odd_codes[self._answers.integers(0, 4, noisy.size)]
        return A, B


class BaselineCheatingBoxes(BoxPair):
    """Deterministic local boxes: Alice always answers the all-zero even
    row, Bob the odd row 001; they agree in 2 of 3 probe positions."""

    def produce(self, xs, ys, channel):
        xs, ys = _grid_inputs(xs, ys)
        return np.full(xs.size, self._even_codes[0]), np.full(xs.size, self._odd_codes[0])


class TestSetCheatingBoxes(BoxPair):
    """Baseline cheater plus leakage: for as many early rounds as the
    budget affords (5 bits each: Bob's input, Alice's input, the probed
    bit), Bob's box learns enough to answer consistently in that round:
    the first odd row, in ``ODD_BITS`` order, that holds Alice's bit at
    Alice's input."""

    def __init__(self, guess_count: int):
        super().__init__()
        self.guess_count = check_range("guess_count", guess_count, 0, math.inf, integer=True)
        # (position, bit) -> the code of the first odd row with that bit there
        odd_bits = _code_rows(self._odd_codes).T  # (3 positions, 4 rows)
        self._odd_with_bit = self._odd_codes[np.stack([odd_bits.argmin(axis=1), odd_bits.argmax(axis=1)], axis=1)]

    def produce(self, xs, ys, channel):
        xs, ys = _grid_inputs(xs, ys)
        n = xs.size
        A = np.full(n, self._even_codes[0])
        B = np.full(n, self._odd_codes[0])
        k = min(self.guess_count, channel.remaining // 5, n)
        key_bits = (A[:k] >> (2 - ys[:k])) & 1
        channel.send("bob_box", "alice_box", 2 * k)  # Bob's inputs
        channel.send("alice_box", "bob_box", 3 * k)  # Alice's inputs and probed bits
        B[:k] = self._odd_with_bit[xs[:k], key_bits]
        return A, B


def honest_boxes(delta: float, seed) -> BoxPair:
    """Boxes winning each copy with probability exactly 1 - delta."""
    return HonestBoxes(delta, seed)


def baseline_cheating_boxes() -> BoxPair:
    return BaselineCheatingBoxes()


def test_set_cheating_boxes(guess_count: int) -> BoxPair:
    return TestSetCheatingBoxes(guess_count)


# ---------------------------------------------------------------------------
# Scripted adversaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversaryRound:
    src: str
    dst: str
    bits: int

    def __post_init__(self) -> None:
        _check_endpoints(self.src, self.dst)
        check_range("bits", self.bits, 0, math.inf, integer=True)


@dataclass(frozen=True)
class ScriptedAdversary:
    """Fixed sequence of metered messages sent in the pre-output window.
    It does not see the inputs: a message is metered by its length."""

    rounds: tuple[AdversaryRound, ...]

    def execute(self, channel: LeakageChannel) -> None:
        for r in self.rounds:
            channel.send(r.src, r.dst, r.bits)


def load_adversary(source) -> ScriptedAdversary:
    """Build a ScriptedAdversary from a dict, a JSON string, or a path to
    a JSON file of the form {"rounds": [{"from", "to", "bits"}, ...]}.
    Any other key of a round is ignored."""
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
        else:
            try:
                with open(text, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{text} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("rounds"), (list, tuple)):
        raise ValidationError("adversary description must be an object with a 'rounds' list")
    rounds = []
    for entry in doc["rounds"]:
        if not isinstance(entry, dict):
            raise ValidationError(f"adversary round {entry!r} is not an object")
        try:
            src, dst, bits = entry["from"], entry["to"], entry["bits"]
        except KeyError as missing:
            raise ValidationError(f"adversary round missing key {missing}") from None
        rounds.append(AdversaryRound(src=src, dst=dst, bits=bits))
    return ScriptedAdversary(tuple(rounds))


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


def _agreement(agree: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``agree`` (shape (..., t), one flag per probed round:
    Alice's bit at Bob's input against Bob's at Alice's), the number of
    rounds whose cells agree and whether they pass: at least
    ceil((1 - 2 delta) t) of the t rounds; the 1e-9 keeps a product that
    rounds just above an integer from asking one round more."""
    matches = np.count_nonzero(agree, axis=-1)
    return matches, matches >= math.ceil((1.0 - 2.0 * delta) * agree.shape[-1] - 1e-9)


def _check_bits(who: str, rows: np.ndarray) -> None:
    """Refuse ``rows`` unless every entry is 0 or 1.  One reduction for
    uint8 and bool rows; other dtypes are compared entry by entry (before
    any cast, which would wrap 257 to 1)."""
    if rows.dtype in (np.uint8, np.bool_):
        bits = rows.size == 0 or rows.max() <= 1
    else:
        bits = ((rows == 0) | (rows == 1)).all()
    if not bits:
        raise ValidationError(f"{who} must hold only bits 0 and 1")


def _checked_codes(who: str, codes: np.ndarray, parity: int) -> np.ndarray:
    """``codes`` as uint8 after checking that they are integers in 0..7
    (before any cast, which would wrap 257 to 1 and -1 to 255) and that
    each code's row has parity ``parity``."""
    if codes.dtype.kind not in "iu":
        raise ValidationError(f"{who} codes must be integers, got dtype {codes.dtype}")
    if codes.size and (codes.min() < 0 or codes.max() > 7):
        raise ValidationError(f"{who} codes must lie in 0..7, one row of three bits each")
    codes = codes.astype(np.uint8, copy=False)
    wrong = np.right_shift(_CODE_PARITY, codes)
    wrong &= 1
    wrong ^= parity
    if wrong.any():
        raise ValidationError(f"{who} rows must have {('even', 'odd')[parity]} parity")
    return codes


class _Block(NamedTuple):
    """Outcome of one block of b whole runs of n rounds.  Row i of each
    (b, ...) array belongs to the block's run i; ``S`` holds round indices
    within the block (run i's rounds are ``i n .. (i + 1) n - 1``), and so
    does ``T``."""

    S: np.ndarray  # (b, s) int64
    T: np.ndarray  # (b, t) int64, a sorted subset of each row of S
    x_S: np.ndarray  # (b, s) uint8
    y_S: np.ndarray  # (b, s) uint8
    a_T: np.ndarray  # (b, t) uint8, Alice's codes at T
    key_a: np.ndarray  # (b, s) uint8
    key_b: np.ndarray  # (b, s) uint8
    matches: np.ndarray  # (b,) int64
    passed: np.ndarray  # (b,) bool
    qber: np.ndarray  # (b,) float64
    mismatch_S: np.ndarray  # (b,) float64
    leaked_bits: np.ndarray  # (b,) int64


def _simulate(
    params: ProtocolParams,
    boxes: BoxPair,
    runs: int,
    run_index: int,
    adversary: ScriptedAdversary | None,
    limit_bits: int,
):
    """Yield the ``_Block`` of each block of whole runs, in order.

    The four generators ``[params.seed, run_index, k]`` (k = 0..3: Alice
    inputs, Bob inputs, key set S, test set T within S) are seeded once
    and consumed in order across blocks, and ``boxes`` sees the rounds of
    all runs in order.  Run by run, S takes its flags and then its fix
    from generator 2, and T (positions within S) its flags and then its
    fix from generator 3 (``_subset``).  Each block has its own channel
    with ``LeakageBudget(limit_bits)``, locked once its outputs are
    produced.
    A run that may leak (an adversary, or a positive leash) is a block of
    its own; otherwise a block holds ``max(1, _CHUNK // n)`` runs."""
    check_range("run_index", run_index, 0, math.inf, integer=True)
    rngs = tuple(np.random.default_rng([params.seed, run_index, k]) for k in range(4))
    per_block = max(1, _CHUNK // params.n) if adversary is None and limit_bits == 0 else 1
    for first in range(0, runs, per_block):
        channel = LeakageChannel(LeakageBudget(limit_bits))
        # one call a block: no temporary of a block outlives it
        yield _simulate_block(params, boxes, min(per_block, runs - first), rngs, channel, adversary)


def _simulate_block(params, boxes, b, rngs, channel, adversary) -> _Block:
    """``b`` whole runs as one pass of ``b n`` rounds: each party's inputs
    drawn in one ``_draw_inputs`` call, seen once by the boxes, and the
    codes checked once; only the exact-size S and T draws are made run by
    run."""
    n, s, t = params.n, params.s_size, params.t_size
    rng_x, rng_y, rng_s, rng_t = rngs
    xs = _draw_inputs(rng_x, b * n)
    ys = _draw_inputs(rng_y, b * n)
    if adversary is not None:
        adversary.execute(channel)
    A, B = boxes.produce(xs, ys, channel)
    channel.lock()

    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != (b * n,) or B.shape != (b * n,):
        raise ValidationError(f"boxes returned shapes {A.shape}, {B.shape}; expected ({b * n},)")
    A = _checked_codes("Alice", A, parity=0)
    B = _checked_codes("Bob", B, parity=1)

    S = _subsets(rng_s, b, n, s)
    # positions within S, sorted like S, so each run's T = S[tested] is
    # sorted too
    tested = _subsets(rng_t, b, s, t)
    S += np.arange(0, b * n, n)[:, None]

    x_S, y_S = xs[S], ys[S]
    del xs, ys  # not read again: with them, the key gathers below would set the peak
    # each key bit is the party's code at S shifted by the other party's
    # input: Alice's bit at Bob's input, Bob's at Alice's
    shift = np.subtract(2, y_S, dtype=np.uint8)
    key_a = A[S]
    key_a >>= shift
    key_a &= 1
    np.subtract(2, x_S, out=shift)
    key_b = B[S]
    key_b >>= shift
    key_b &= 1
    del shift
    agree = key_a == key_b
    matches, passed = _agreement(np.take_along_axis(agree, tested, axis=1), params.delta)
    T = np.take_along_axis(S, tested, axis=1)
    return _Block(
        S=S,
        T=T,
        x_S=x_S,
        y_S=y_S,
        a_T=A[T],
        key_a=key_a,
        key_b=key_b,
        matches=matches,
        passed=passed,
        qber=1.0 - matches / t,
        mismatch_S=(s - np.count_nonzero(agree, axis=1)) / s,
        # a block of several runs has a leash of 0
        leaked_bits=np.full(b, channel.budget.used_bits, dtype=np.int64),
    )


def run_protocol(
    params: ProtocolParams,
    boxes: BoxPair,
    adversary: ScriptedAdversary | None = None,
    budget: LeakageBudget | None = None,
    run_index: int = 0,
) -> TranscriptRecord:
    """One full protocol execution: the run of ``run_batch(params, boxes,
    1, run_index, adversary, limit_bits)`` with ``limit_bits`` what
    ``budget`` (by default ``LeakageBudget(0)``) has left; ``budget`` is
    then debited with the bits the run leaked.

    Draw order (independent streams split off params.seed and run_index):
    Alice inputs, Bob inputs, key set S (flags, then the fix to exactly
    ``s_size`` rounds), test set T within S (flags, then the fix); honest
    boxes draw from their own streams, one replacement answer per noisy
    round.  The leakage channel is open to the adversary and the boxes
    between input entry and output production, then locked.  The boxes
    receive the inputs as uint8 arrays; the adversary sends its fixed
    messages without them.  The record's dtypes are fixed: ``S``, ``T``,
    ``x_S`` and ``y_S`` are int64, ``a_T`` (Alice's rows at T, shape (|T|,
    3)) and the keys uint8.
    """
    budget = budget if budget is not None else LeakageBudget(0)
    (block,) = _simulate(params, boxes, 1, run_index, adversary, budget.limit_bits - budget.used_bits)
    S, T, x_S, y_S, a_T, key_a, key_b, matches, passed, qber, mismatch_S, leaked_bits = (v[0] for v in block)
    # each array of the run now has one name: the uint8 inputs and codes
    # are freed as their wider forms replace them
    del block
    budget.debit(int(leaked_bits))
    x_S = x_S.astype(np.int64)
    y_S = y_S.astype(np.int64)
    a_T = _code_rows(a_T)
    return TranscriptRecord(
        S=S,
        T=T,
        x_S=x_S,
        y_S=y_S,
        a_T=a_T,
        aborted=not passed,
        K_A=key_a if passed else None,
        K_B=key_b if passed else None,
        qber=float(qber),
        mismatch_S=float(mismatch_S),
        matches=int(matches),
        leaked_bits=budget.used_bits,
    )


class BatchRecord(NamedTuple):
    """Per-run outcomes of ``run_batch``, one entry a run.  (A named tuple,
    not a dataclass like ``TranscriptRecord``: it is cheaper to define at
    import.)"""

    aborted: np.ndarray  # bool
    qber: np.ndarray  # float64: 1 - matches / |T|
    mismatch_S: np.ndarray  # float64: fraction of key rounds whose bits differ
    matches: np.ndarray  # int64: agreeing test rounds
    keys_equal: np.ndarray  # bool: the run passed and K_A == K_B
    leaked_bits: np.ndarray  # int64: bits the run's channel carried


def run_batch(
    params: ProtocolParams,
    boxes: BoxPair,
    runs: int,
    run_index: int = 0,
    adversary: ScriptedAdversary | None = None,
    limit_bits: int = 0,
) -> BatchRecord:
    """``runs`` protocol executions, as per-run arrays.

    The four protocol generators ``[params.seed, run_index, k]`` and
    ``boxes`` are seeded once for the batch and consumed in order, run
    after run, so run r depends only on the seed, ``run_index`` and r: a
    batch of k runs is the first k runs of any longer batch, and its run 0
    is ``run_protocol(params, boxes, adversary, LeakageBudget(limit_bits),
    run_index)`` with equally seeded boxes.  Each run has its own channel
    with ``LeakageBudget(limit_bits)``, open to ``adversary`` and the boxes
    until its outputs are produced; a leash that is never spent changes
    no number.
    """
    check_range("runs", runs, 1, math.inf, integer=True)
    # map keeps no block alive while the next one is simulated
    per_block = map(
        operator.attrgetter("passed", "qber", "mismatch_S", "matches", "leaked_bits"),
        _simulate(params, boxes, runs, run_index, adversary, limit_bits),
    )
    passed, qber, mismatch_S, matches, leaked_bits = (np.concatenate(column) for column in zip(*per_block))
    return BatchRecord(
        aborted=~passed,
        qber=qber,
        mismatch_S=mismatch_S,
        matches=matches,
        keys_equal=passed & (mismatch_S == 0.0),
        leaked_bits=leaked_bits,
    )


# ---------------------------------------------------------------------------
# Rates and tail bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyRateParams:
    """Inputs to the closed-form rate: protocol fractions, tolerated noise,
    per-copy leakage c, certified-randomness slope nu, slack constant
    beta, and the non-abort probability PrE."""

    alpha: float
    gamma: float
    delta: float
    c: float
    n: int
    nu: float = 0.01
    beta: float = 1.0
    PrE: float = 1.0

    def __post_init__(self) -> None:
        check_range("alpha", self.alpha, 0.0, 1.0, lo_open=True)
        check_range("gamma", self.gamma, 0.0, 1.0)  # the formula is well-defined without testing
        check_range("delta", self.delta, 0.0, 0.125)
        check_range("c", self.c, 0.0, math.inf)
        check_range("n", self.n, 1, math.inf, integer=True)
        check_range("nu", self.nu, 0.0, 1.0)
        check_range("beta", self.beta, 0.0, math.inf)
        check_range("PrE", self.PrE, 0.0, 1.0, lo_open=True)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x) on [0, 1]."""
    check_range("binary entropy argument", x, 0.0, 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def key_rate(p: KeyRateParams) -> dict:
    """Extractable-bits estimate
    ``alpha (nu - beta (sqrt(c) + sqrt(alpha)) - 2 h(4 delta) - gamma) n
    - log2(1/PrE)`` with smoothing parameter ``2 * 2^{-8 delta^2 alpha n}
    / PrE``.  Negative rates are returned as-is."""
    bits = (
        p.alpha
        * (
            p.nu
            - p.beta * (math.sqrt(p.c) + math.sqrt(p.alpha))
            - 2.0 * binary_entropy(4.0 * p.delta)
            - p.gamma
        )
        * p.n
        - math.log2(1.0 / p.PrE)
    )
    eps_smooth = 2.0 * 2.0 ** (-8.0 * p.delta**2 * p.alpha * p.n) / p.PrE
    return {
        "hmin_minus_h0_bits": float(bits),
        "eps_smooth": float(eps_smooth),
        "rate_per_copy": float(bits / p.n),
    }


def _check_population(good: int, n: int) -> None:
    """Refuse a string of length n with ``good`` ones that numpy's
    hypergeometric sampler cannot draw from."""
    if max(good, n - good) >= _HYPERGEOMETRIC_MAX:
        raise ValidationError(
            f"pattern with {good} ones and {n - good} zeros: each count must be below {_HYPERGEOMETRIC_MAX}"
        )


def serfling_mc(n: int, gamma: float, eps: float, pattern, trials: int, seed: int) -> dict:
    """Monte Carlo check of the sampling tail bound 2^{-2 eps^2 gamma n}.

    ``pattern`` is a fixed array of n entries, each 0 or 1, or a
    probability P: i.i.d. Bernoulli(P) bits drawn afresh each trial.  The
    estimated event: the uniform test subset T of size floor(gamma n)
    looks nearly all-good (sum_{i in T} Z_i >= ceil((1 - eps) gamma n))
    while the whole string is bad (sum_i Z_i < ceil((1 - 2 eps) n)).  Both
    thresholds are integers; as in the abort test, a 1e-9 keeps a product
    that rounds just above an integer from asking one round more.

    Each trial draws only the counts the event reads: the number K of good
    rounds in the string (fixed, or Binomial(n, P)), then the number in T,
    Hypergeometric(K, n - K, t): O(trials) draws whatever n is.
    """
    check_range("n", n, 1, math.inf, integer=True)
    check_range("trials", trials, 1, math.inf, integer=True)
    check_range("gamma", gamma, 0.0, 1.0, lo_open=True)
    check_range("eps", eps, 0.0, 0.5, lo_open=True)
    check_range("seed", seed, 0, math.inf, integer=True)
    iid = np.ndim(pattern) == 0
    if iid:  # K may be 0 or n, and the sampler needs K and n - K below its limit
        prob = check_range("iid probability", pattern, 0.0, 1.0)
        check_range("n of an i.i.d. pattern", n, 1, _HYPERGEOMETRIC_MAX, hi_open=True)
    else:
        Z = np.asarray(pattern)
        if Z.size != n:
            raise ValidationError(f"pattern has {Z.size} values, expected {n}")
        _check_bits("pattern", Z)
        good = int(np.count_nonzero(Z))
        _check_population(good, n)
    t = math.floor(gamma * n + 1e-9)
    bound = float(2.0 ** (-2.0 * eps**2 * gamma * n))
    subset_floor = math.ceil((1.0 - eps) * gamma * n - 1e-9)
    total_ceiling = math.ceil((1.0 - 2.0 * eps) * n - 1e-9)
    # the event is empty when T is, or when a fixed string's count lies
    # outside [subset_floor, total_ceiling)
    if t == 0 or not iid and not subset_floor <= good < total_ceiling:
        return {"empirical": 0.0, "bound": bound}
    rng = np.random.default_rng([seed, 0])
    # _CHUNK trials at a time; a fixed pattern draws the same numbers as
    # one call of length trials
    hits = 0
    for lo, hi in _chunks(trials):
        K = rng.binomial(n, prob, hi - lo) if iid else good
        fooled = rng.hypergeometric(K, n - K, t, size=hi - lo) >= subset_floor
        hits += int(np.count_nonzero(fooled & (K < total_ceiling)))
    return {"empirical": hits / trials, "bound": bound}


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

_CELL_KEYS = {"n", "alpha", "gamma", "delta", "c", "nu", "beta"}
_CELL_DEFAULTS = {"c": 0.0, "nu": 0.01, "beta": 1.0}


def expand_grid(axes: dict) -> list[dict]:
    """Cartesian product of {name: [values...]} into a list of cells, in
    insertion order of the keys."""
    names = list(axes)
    cells = []
    for combo in itertools.product(*(axes[name] for name in names)):
        cells.append(dict(zip(names, combo)))
    return cells


def _checked_cell(
    cell: dict, runs_per_cell: int, seed: int
) -> tuple[dict, ProtocolParams | None, KeyRateParams]:
    """One sweep cell with defaults filled in, checked: its rate parameters
    at ``PrE = 1``, built from the cell's own values so that each is checked
    against its own range, and its protocol parameters (when it will be
    simulated)."""
    unknown = set(cell) - _CELL_KEYS
    if unknown:
        raise ValidationError(f"unknown sweep keys {sorted(unknown)}")
    conf = dict(_CELL_DEFAULTS)
    conf.update(cell)
    missing = {"n", "alpha", "gamma", "delta"} - set(conf)
    if missing:
        raise ValidationError(f"sweep cell missing {sorted(missing)}")
    rate_params = KeyRateParams(**conf)
    params = None
    if runs_per_cell > 0:
        params = ProtocolParams(conf["n"], conf["alpha"], conf["gamma"], conf["delta"], seed)
    return conf, params, rate_params


def sweep(cells, runs_per_cell: int, seed: int) -> list[dict]:
    """Evaluate the rate formula (and, when runs_per_cell > 0, honest-box
    abort/error statistics feeding PrE) on each parameter cell.

    Every cell is checked before the first run.  Each distinct
    ``ProtocolParams`` (n, alpha, gamma, delta, seed) is simulated once, as
    its first cell ``ci`` is: one ``run_batch(params, honest_boxes(delta,
    [seed, ci, 7]), runs_per_cell, run_index=ci)``.  The cells that share
    it (they differ only in ``c``, ``nu`` or ``beta``, which the
    simulation never reads) share its abort frequency and QBER, so along
    those axes their rates differ only through the formula.

    Returns one dict per cell with SWEEP_COLUMNS keys.
    """
    check_range("runs_per_cell", runs_per_cell, 0, math.inf, integer=True)
    check_range("seed", seed, 0, math.inf, integer=True)
    checked = [_checked_cell(cell, runs_per_cell, seed) for cell in cells]
    stats = {}  # ProtocolParams -> (abort_freq, qber) of its first cell
    rows = []
    for ci, (conf, params, rate_params) in enumerate(checked):
        abort_freq = math.nan
        qber = math.nan
        pre_est = 1.0
        if params is not None:
            if params not in stats:
                batch = run_batch(params, honest_boxes(params.delta, [seed, ci, 7]), runs_per_cell, run_index=ci)
                stats[params] = (int(np.count_nonzero(batch.aborted)) / runs_per_cell, float(np.mean(batch.qber)))
            abort_freq, qber = stats[params]
            pre_est = max(1.0 - abort_freq, 1e-9)

        rate = key_rate(dataclasses.replace(rate_params, PrE=pre_est))
        rows.append(
            {
                "n": int(conf["n"]),
                "alpha": float(conf["alpha"]),
                "gamma": float(conf["gamma"]),
                "delta": float(conf["delta"]),
                "c": float(conf["c"]),
                "nu": float(conf["nu"]),
                "beta": float(conf["beta"]),
                "PrE_est": pre_est,
                "abort_freq": abort_freq,
                "qber": qber,
                "rate_bits": rate["hmin_minus_h0_bits"],
                "rate_per_copy": rate["rate_per_copy"],
                "eps_smooth": rate["eps_smooth"],
                "seed": seed,
            }
        )
    return rows
