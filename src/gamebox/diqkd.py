"""Device-independent key distribution on noisy grid-game boxes.

Simulates the sampling protocol (random inputs, test subset, abort
threshold, raw keys), with a metered classical leakage channel between
the boxes that is open only before outputs are produced.  Also provides
the closed-form key-rate evaluator and the tail bounds it relies on.

The constants ``nu`` and ``beta`` in the rate formula are heuristic
defaults (0.01 and 1.0), not derived values; callers should supply their
own.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import games as games_mod
from .entropy import binary_entropy
from .errors import (
    BudgetExceededError,
    ProtocolViolationError,
    ValidationError,
    check_range,
)

_ENDPOINTS = ("alice_box", "bob_box", "eve")

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
    fraction ``gamma`` (of the key rounds), tolerated noise ``delta``."""

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
        # bare checks, not check_range: this runs once per leakage message
        if not isinstance(bits, numbers.Integral):
            raise ValidationError(f"message length must be an integer, got {bits!r}")
        if bits < 0:
            raise ValidationError(f"message length must be >= 0, got {bits}")
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

    Every message debits the shared budget.  The channel locks once
    outputs are produced; sending afterwards is a protocol violation.
    """

    def __init__(self, budget: LeakageBudget):
        self.budget = budget
        self.log: list[tuple[str, str, int, str]] = []
        self._locked = False

    @property
    def remaining(self) -> int:
        return self.budget.limit_bits - self.budget.used_bits

    def send(self, src: str, dst: str, bits: int, payload: str = "") -> None:
        if self._locked:
            raise ProtocolViolationError("leakage attempted after outputs were produced")
        _check_endpoints(src, dst)
        self.budget.debit(bits)
        self.log.append((src, dst, int(bits), payload))

    def inbox(self, endpoint: str) -> list[tuple[str, int, str]]:
        return [(s, b, p) for s, d, b, p in self.log if d == endpoint]

    def lock(self) -> None:
        self._locked = True


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------


class BoxPair:
    """A pair of devices answering n parallel grid-game rounds.

    ``produce`` receives both input strings and the (pre-output) leakage
    channel, and must return Alice rows with even parity and Bob rows
    with odd parity, shapes (n, 3) uint8.
    """

    def produce(self, xs: np.ndarray, ys: np.ndarray, channel: LeakageChannel):
        raise NotImplementedError


@functools.cache
def _ms_conditional_table() -> np.ndarray:
    """q[x, y, a, b]: outcome distribution of the perfect grid strategy,
    rows/columns indexed into the even/odd string tables."""
    strat = games_mod.canonical_ms_strategy()
    psi = strat.state
    q = np.zeros((3, 3, 4, 4))
    for x in range(3):
        for y in range(3):
            for a in range(4):
                Ma = strat.povms[0][x][a]
                for b in range(4):
                    Mb = strat.povms[1][y][b]
                    op = np.kron(Ma, Mb)
                    q[x, y, a, b] = float(np.real(psi.conj() @ op @ psi))
    q = np.clip(q, 0.0, None)
    q /= q.sum(axis=(2, 3), keepdims=True)
    return q


@functools.cache
def _ms_index_table() -> np.ndarray:
    """Flat inverse-CDF table of the grid strategy: entry ``9 (3x + y) + j``
    is ``min(#{k : cum[x, y, k] < j/8}, 15)``, the joint outcome index
    ``4a + b`` that a uniform draw ``u`` with ``ceil(8u) = j`` selects,
    where ``cum`` is the cumulative sum of ``q[x, y]`` over ``(a, b)``."""
    cum = np.cumsum(_ms_conditional_table().reshape(9, 16), axis=1)
    eighths = 8.0 * cum
    if not np.array_equal(eighths, np.round(eighths)):
        raise AssertionError("grid-strategy probabilities are not multiples of 1/8")
    below = cum[:, None, :] < (np.arange(9) / 8.0)[None, :, None]
    return np.minimum(below.sum(axis=2), 15).astype(np.uint8).ravel()


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


class HonestBoxes(BoxPair):
    """Ideal strategy with per-copy win probability exactly 1 - delta:
    with probability 2*delta Bob's answer is replaced by a uniform
    odd-parity row (which then agrees with Alice in the probed cell half
    the time).

    Each round's joint outcome comes from one uniform draw ``u`` by
    inverting the cumulative distribution of ``q[x, y]``.  Every entry of
    ``q`` is 0 or 1/8, so each cumulative sum is a multiple of 1/8, and
    ``cum < u`` holds exactly when ``cum < ceil(8u)/8`` (``8u`` is exact in
    floating point).  The inverse is therefore a 9 x 9 integer table,
    indexed by the input pair and ``ceil(8u)``, and one gather per round
    replaces comparing ``u`` with all 16 cumulative sums."""

    def __init__(self, delta: float, seed):
        check_range("delta", delta, 0.0, 0.5)
        self.delta = float(delta)
        self._rng = np.random.default_rng(seed)

    def produce(self, xs, ys, channel):
        xs, ys = _grid_inputs(xs, ys)
        n = xs.size
        eighths = 8.0 * self._rng.random(n)
        cell = np.ceil(eighths, out=eighths).astype(np.uint8)
        del eighths  # 8 bytes a round: free it before the noise draws
        cell += 27 * xs.astype(np.uint8).ravel()  # 9 (3x + y) + ceil(8u) <= 80
        cell += 9 * ys.astype(np.uint8).ravel()
        idx = np.take(_ms_index_table(), cell)
        A = np.take(games_mod.EVEN_BITS, idx >> 2, axis=0)
        b_idx = idx & 3
        noisy = self._rng.random(n) < 2.0 * self.delta
        np.copyto(b_idx, self._rng.integers(0, 4, n), casting="unsafe", where=noisy)
        return A, np.take(games_mod.ODD_BITS, b_idx, axis=0)


class BaselineCheatingBoxes(BoxPair):
    """Deterministic local boxes: Alice always answers the all-zero even
    row, Bob the odd row 001; they agree in 2 of 3 probe positions."""

    def produce(self, xs, ys, channel):
        xs, ys = _grid_inputs(xs, ys)
        n = xs.size
        A = np.repeat(games_mod.EVEN_BITS[0][None, :], n, axis=0)
        B = np.repeat(games_mod.ODD_BITS[0][None, :], n, axis=0)
        return A, B


class TestSetCheatingBoxes(BoxPair):
    """Baseline cheater plus leakage: for as many early rounds as the
    budget affords (5 bits each: Bob's input, Alice's input, the probed
    bit), Bob's box learns enough to answer consistently in that round."""

    def __init__(self, guess_count: int):
        self.guess_count = check_range("guess_count", guess_count, 0, math.inf, integer=True)

    def produce(self, xs, ys, channel):
        xs, ys = _grid_inputs(xs, ys)
        n = xs.size
        A = np.repeat(games_mod.EVEN_BITS[0][None, :], n, axis=0)
        B = np.repeat(games_mod.ODD_BITS[0][None, :], n, axis=0)
        affordable = min(self.guess_count, channel.remaining // 5, n)
        for i in range(affordable):
            channel.send("bob_box", "alice_box", 2, format(ys[i], "02b"))
            channel.send("alice_box", "bob_box", 2, format(xs[i], "02b"))
            key_bit = int(A[i, ys[i]])
            channel.send("alice_box", "bob_box", 1, str(key_bit))
            B[i] = games_mod.ODD_BITS[_odd_row_with_bit(int(xs[i]), key_bit)]
        return A, B


@functools.cache
def _odd_row_with_bit(position: int, bit: int) -> int:
    for idx in range(4):
        if games_mod.ODD_BITS[idx][position] == bit:
            return idx
    raise AssertionError("odd-parity rows realise both bit values in every position")


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


def _payload_zeros(src, bits, xs, ys):
    return "0" * bits


def _payload_ones(src, bits, xs, ys):
    return "1" * bits


def _payload_input_prefix(src, bits, xs, ys):
    stream = xs if src == "alice_box" else ys if src == "bob_box" else None
    if stream is None:
        return "0" * bits
    digits = "".join(format(int(v), "02b") for v in stream)
    return digits[:bits].ljust(bits, "0")


ADVERSARY_FUNCTIONS = {
    "zeros": _payload_zeros,
    "ones": _payload_ones,
    "input_prefix": _payload_input_prefix,
}


@dataclass(frozen=True)
class AdversaryRound:
    src: str
    dst: str
    bits: int
    function_id: str

    def __post_init__(self) -> None:
        _check_endpoints(self.src, self.dst)
        check_range("bits", self.bits, 0, math.inf, integer=True)
        if self.function_id not in ADVERSARY_FUNCTIONS:
            raise ValidationError(
                f"unknown function_id {self.function_id!r}; "
                f"known: {sorted(ADVERSARY_FUNCTIONS)}"
            )


@dataclass(frozen=True)
class ScriptedAdversary:
    """Fixed sequence of metered messages executed in the pre-output
    window."""

    rounds: tuple[AdversaryRound, ...]

    def execute(self, channel: LeakageChannel, xs: np.ndarray, ys: np.ndarray) -> None:
        for r in self.rounds:
            payload = ADVERSARY_FUNCTIONS[r.function_id](r.src, r.bits, xs, ys)
            channel.send(r.src, r.dst, r.bits, payload)


def load_adversary(source) -> ScriptedAdversary:
    """Build a ScriptedAdversary from a dict, a JSON string, or a path to
    a JSON file of the form {"rounds": [{"from", "to", "bits",
    "function_id"}, ...]}."""
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
        else:
            with open(text, encoding="utf-8") as fh:
                doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("rounds"), (list, tuple)):
        raise ValidationError("adversary description must be an object with a 'rounds' list")
    rounds = []
    for entry in doc["rounds"]:
        if not isinstance(entry, dict):
            raise ValidationError(f"adversary round {entry!r} is not an object")
        try:
            src, dst, bits, function_id = entry["from"], entry["to"], entry["bits"], entry["function_id"]
        except KeyError as missing:
            raise ValidationError(f"adversary round missing key {missing}") from None
        rounds.append(AdversaryRound(src=src, dst=dst, bits=bits, function_id=function_id))
    return ScriptedAdversary(tuple(rounds))


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


def _agreement(a_T, b_T, x_T, y_T, delta: float) -> tuple[int, bool]:
    """The probed rounds whose cells agree (Alice's bit at Bob's input
    against Bob's at Alice's), and whether they pass: at least
    ceil((1 - 2 delta) t) of the t rounds; the 1e-9 keeps a product that
    rounds just above an integer from asking one round more."""
    t = x_T.size
    rows = np.arange(t)
    matches = int((a_T[rows, y_T] == b_T[rows, x_T]).sum())
    return matches, matches >= math.ceil((1.0 - 2.0 * delta) * t - 1e-9)


def abort_test(a_T, b_T, x_T, y_T, delta: float) -> bool:
    """True (pass) iff the probed cells agree in at least
    ceil((1 - 2 delta) |T|) rounds; the boundary is inclusive."""
    check_range("delta", delta, 0.0, 0.5)
    a_T = np.asarray(a_T)
    b_T = np.asarray(b_T)
    x_T = np.asarray(x_T)
    y_T = np.asarray(y_T)
    if not (a_T.shape[0] == b_T.shape[0] == x_T.size == y_T.size):
        raise ValidationError("test-set arrays must be aligned")
    return _agreement(a_T, b_T, x_T, y_T, delta)[1]


def _bit_rows(who: str, rows: np.ndarray, parity: int) -> np.ndarray:
    """``rows`` as uint8 after checking that every entry is 0 or 1 (before
    the cast, which would wrap 257 to 1) and that each row's parity is
    ``parity``."""
    if not ((rows == 0) | (rows == 1)).all():
        raise ValidationError(f"{who} rows must hold only bits 0 and 1")
    rows = rows.astype(np.uint8, copy=False)
    if np.any((rows[:, 0] ^ rows[:, 1] ^ rows[:, 2]) != parity):
        raise ValidationError(f"{who} rows must have {('even', 'odd')[parity]} parity")
    return rows


def run_protocol(
    params: ProtocolParams,
    boxes: BoxPair,
    adversary: ScriptedAdversary | None = None,
    budget: LeakageBudget | None = None,
    run_index: int = 0,
) -> TranscriptRecord:
    """One full protocol execution.

    Draw order (independent streams split off params.seed and run_index):
    Alice inputs, Bob inputs, key set S, test set T within S.  The
    leakage channel is open to the adversary and the boxes between input
    entry and output production, then locked.
    """
    check_range("run_index", run_index, 0, math.inf, integer=True)
    n = params.n
    rng_x = np.random.default_rng([params.seed, run_index, 0])
    rng_y = np.random.default_rng([params.seed, run_index, 1])
    rng_s = np.random.default_rng([params.seed, run_index, 2])
    rng_t = np.random.default_rng([params.seed, run_index, 3])

    xs = rng_x.integers(0, 3, n)
    ys = rng_y.integers(0, 3, n)

    channel = LeakageChannel(budget if budget is not None else LeakageBudget(0))
    if adversary is not None:
        adversary.execute(channel, xs, ys)
    A, B = boxes.produce(xs, ys, channel)
    channel.lock()

    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != (n, 3) or B.shape != (n, 3):
        raise ValidationError(f"boxes returned shapes {A.shape}, {B.shape}; expected ({n}, 3)")
    A = _bit_rows("Alice", A, parity=0)
    B = _bit_rows("Bob", B, parity=1)

    S = np.sort(rng_s.choice(n, size=params.s_size, replace=False))
    T = np.sort(rng_t.choice(S, size=params.t_size, replace=False))

    A_T = A[T]
    matches, passed = _agreement(A_T, B[T], xs[T], ys[T], params.delta)

    x_S, y_S = xs[S], ys[S]
    key_a = A[S, y_S]
    key_b = B[S, x_S]
    mismatch_S = float((key_a != key_b).mean())
    qber = 1.0 - matches / T.size

    return TranscriptRecord(
        S=S,
        T=T,
        x_S=x_S,
        y_S=y_S,
        a_T=A_T,
        aborted=not passed,
        K_A=key_a if passed else None,
        K_B=key_b if passed else None,
        qber=qber,
        mismatch_S=mismatch_S,
        matches=matches,
        leaked_bits=channel.budget.used_bits,
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


def chernoff_abort_bound(delta: float, gamma: float, alpha: float, n: int) -> float:
    """Tail bound 2^{-2 delta^2 gamma alpha n} on the honest abort
    probability."""
    check_range("delta", delta, 0.0, math.inf)
    check_range("gamma", gamma, 0.0, 1.0, lo_open=True)
    check_range("alpha", alpha, 0.0, 1.0, lo_open=True)
    check_range("n", n, 1, math.inf, integer=True)
    return float(2.0 ** (-2.0 * delta**2 * gamma * alpha * n))


def serfling_mc(n: int, gamma: float, eps: float, pattern, trials: int, seed: int) -> dict:
    """Monte Carlo check of the sampling tail bound 2^{-2 eps^2 gamma n}.

    ``pattern`` is a 0/1 array of length n, or a callable drawing one per
    trial from a supplied generator.  The estimated event: the uniform
    test subset T of size floor(gamma n) looks nearly all-good
    (sum_{i in T} Z_i >= (1 - eps) gamma n) while the whole string is bad
    (sum_i Z_i < (1 - 2 eps) n).
    """
    check_range("n", n, 1, math.inf, integer=True)
    check_range("trials", trials, 1, math.inf, integer=True)
    check_range("gamma", gamma, 0.0, 1.0, lo_open=True)
    check_range("eps", eps, 0.0, 0.5, lo_open=True)
    check_range("seed", seed, 0, math.inf, integer=True)
    t = math.floor(gamma * n + 1e-9)
    bound = float(2.0 ** (-2.0 * eps**2 * gamma * n))
    if t == 0:  # empty test set can never look nearly all-good
        return {"empirical": 0.0, "bound": bound}
    rng = np.random.default_rng([seed, 0])
    subset_floor = (1.0 - eps) * gamma * n
    total_ceiling = (1.0 - 2.0 * eps) * n

    hits = 0
    if callable(pattern):
        for _ in range(trials):
            Z = np.asarray(pattern(rng), dtype=float)
            if Z.size != n:
                raise ValidationError(f"pattern produced {Z.size} values, expected {n}")
            if Z.sum() >= total_ceiling:
                continue
            T = rng.choice(n, size=t, replace=False)
            if Z[T].sum() >= subset_floor:
                hits += 1
        return {"empirical": hits / trials, "bound": bound}

    Z = np.asarray(pattern, dtype=float)
    if Z.size != n:
        raise ValidationError(f"pattern has {Z.size} values, expected {n}")
    if Z.sum() >= total_ceiling:
        return {"empirical": 0.0, "bound": bound}
    # chunks of at most 1 MB of keys; rng.random fills row-major, so every
    # chunk size draws the same keys
    chunk = max(1, 2**17 // n)
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        keys = rng.random((m, n))
        subsets = np.argpartition(keys, t - 1, axis=1)[:, :t] if t < n else np.tile(np.arange(n), (m, 1))
        hits += int((Z[subsets].sum(axis=1) >= subset_floor).sum())
        done += m
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


def sweep(cells, runs_per_cell: int, seed: int) -> list[dict]:
    """Evaluate the rate formula (and, when runs_per_cell > 0, honest-box
    abort/error statistics feeding PrE) on each parameter cell.

    Returns one dict per cell with SWEEP_COLUMNS keys.
    """
    check_range("runs_per_cell", runs_per_cell, 0, math.inf, integer=True)
    check_range("seed", seed, 0, math.inf, integer=True)
    rows = []
    for ci, cell in enumerate(cells):
        unknown = set(cell) - _CELL_KEYS
        if unknown:
            raise ValidationError(f"unknown sweep keys {sorted(unknown)}")
        conf = dict(_CELL_DEFAULTS)
        conf.update(cell)
        missing = {"n", "alpha", "gamma", "delta"} - set(conf)
        if missing:
            raise ValidationError(f"sweep cell missing {sorted(missing)}")
        for key, value in conf.items():
            check_range(key, value, -math.inf, math.inf, integer=key == "n")

        abort_freq = math.nan
        qber = math.nan
        pre_est = 1.0
        if runs_per_cell > 0:
            params = ProtocolParams(
                n=conf["n"],
                alpha=float(conf["alpha"]),
                gamma=float(conf["gamma"]),
                delta=float(conf["delta"]),
                seed=seed,
            )
            aborts = 0
            qbers = []
            for r in range(runs_per_cell):
                boxes = honest_boxes(float(conf["delta"]), [seed, ci, r, 7])
                rec = run_protocol(params, boxes, run_index=ci * runs_per_cell + r)
                aborts += int(rec.aborted)
                qbers.append(rec.qber)
            abort_freq = aborts / runs_per_cell
            qber = float(np.mean(qbers))
            pre_est = max(1.0 - abort_freq, 1e-9)

        rate = key_rate(
            KeyRateParams(
                alpha=float(conf["alpha"]),
                gamma=float(conf["gamma"]),
                delta=float(conf["delta"]),
                c=float(conf["c"]),
                n=conf["n"],
                nu=float(conf["nu"]),
                beta=float(conf["beta"]),
                PrE=pre_est,
            )
        )
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
