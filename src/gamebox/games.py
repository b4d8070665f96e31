"""Multiplayer nonlocal games: predicates, builtin instances, and values.

A game is a tuple (input alphabets, output alphabets, input distribution p,
winning predicate V).  Players receive inputs jointly distributed according
to ``p``, answer without communicating, and win when ``V`` holds.

Builtin games
-------------
* ``magic_square`` -- the Mermin--Peres square as a two-player game: inputs
  are a row index for Alice and a column index for Bob, outputs are
  even-parity (Alice) / odd-parity (Bob) three-bit rows and columns, and the
  players win when the two assignments agree on the shared cell.  Classical
  value 8/9; quantum strategies win with probability 1.
* ``chsh`` -- binary inputs and outputs, win iff ``a XOR b = x AND y``.
* ``mse`` -- magic square extended with a third player who must guess the
  other players' inputs: Alice gets (column, extra bit z), Bob gets a row,
  the third player has a single input and outputs a guess
  (x', y', z', c).  They win iff both input guesses are right, c predicts
  Alice's shared-cell bit, and additionally the square entries agree on the
  shared cell or z was guessed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    ValidationError,
    check_distribution,
    check_range,
)
from . import qcore

Label = Union[int, str, tuple]

# Three-bit strings of even / odd parity: the legal magic-square rows and
# columns.  Index order here fixes the output alphabets everywhere.
EVEN_STRINGS: tuple[str, ...] = ("000", "011", "101", "110")
ODD_STRINGS: tuple[str, ...] = ("001", "010", "100", "111")
EVEN_BITS = np.array([[int(c) for c in s] for s in EVEN_STRINGS], dtype=np.uint8)
ODD_BITS = np.array([[int(c) for c in s] for s in ODD_STRINGS], dtype=np.uint8)

_STRATEGY_TOL = 1e-9  # slack of QuantumStrategy.validate's norm, Hermiticity, PSD and completeness checks
_CORRELATION_TOL = 1e-7  # slack of Correlation.validate's sign and normalisation checks


@dataclass(frozen=True)
class GamePredicate:
    """Input/output alphabets, input distribution and winning predicate.

    ``p`` has shape ``(|X_1|, ..., |X_l|)``.  ``V`` is always a dense
    boolean array of shape ``(|A_1|, ..., |A_l|, |X_1|, ..., |X_l|)``; an
    array of another dtype is accepted when every entry is 0 or 1.
    """

    inputs: tuple[tuple[Label, ...], ...]
    outputs: tuple[tuple[Label, ...], ...]
    p: np.ndarray
    V: np.ndarray
    name: str | None = None

    def __post_init__(self) -> None:
        if len(self.inputs) == 0 or len(self.inputs) != len(self.outputs):
            raise ValidationError("inputs and outputs must list the same (positive) number of players")
        if any(len(a) == 0 for a in self.inputs) or any(len(a) == 0 for a in self.outputs):
            raise ValidationError("every player needs non-empty alphabets")
        p = np.asarray(self.p, dtype=float)
        if p.shape != self.input_sizes:
            raise DimensionMismatchError(f"p shape {p.shape} != input sizes {self.input_sizes}")
        object.__setattr__(self, "p", check_distribution("input distribution", p, neg_tol=1e-12, sum_tol=1e-9))
        want = self.output_sizes + self.input_sizes
        V = self.V
        if not isinstance(V, np.ndarray):
            raise ValidationError("V must be a numpy array of 0/1 entries")
        if V.shape != want:
            raise DimensionMismatchError(f"V shape {V.shape} != {want}")
        if V.dtype != bool and not np.all(np.isin(V, (0, 1))):
            raise ValidationError("predicate V has entries other than 0 and 1")
        object.__setattr__(self, "V", V.astype(bool))

    @property
    def players(self) -> int:
        return len(self.inputs)

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.inputs)

    @property
    def output_sizes(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.outputs)

    def win(self, a_idx: Sequence[int], x_idx: Sequence[int]) -> bool:
        """Predicate value at output indices `a_idx`, input indices `x_idx`."""
        return bool(self.V[(*a_idx, *x_idx)])

    def dense_V(self) -> np.ndarray:
        """The predicate table ``V`` (kept for callers of the old API)."""
        return self.V


@dataclass(frozen=True)
class ClassicalStrategy:
    """Deterministic strategy: per player, an output index for every input index."""

    maps: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class QuantumStrategy:
    """Shared pure state plus per-player, per-input POVMs.

    ``povms[j][x][a]`` is the POVM element of player ``j`` on input index
    ``x`` for output index ``a``, acting on ``local_dims[j]``.
    """

    state: np.ndarray
    local_dims: tuple[int, ...]
    povms: tuple[tuple[tuple[np.ndarray, ...], ...], ...]

    def validate(self, game: GamePredicate) -> None:
        tol = _STRATEGY_TOL
        dims = tuple(int(d) for d in self.local_dims)
        if len(dims) != game.players:
            raise DimensionMismatchError("one local dimension per player required")
        total = int(np.prod(dims))
        vec = np.asarray(self.state, dtype=complex).reshape(-1)
        if vec.size != total:
            raise DimensionMismatchError(f"state dim {vec.size} != product of local dims {total}")
        if abs(np.linalg.norm(vec) - 1.0) > tol:
            raise ValidationError("shared state is not normalised")
        for j in range(game.players):
            if len(self.povms[j]) != len(game.inputs[j]):
                raise DimensionMismatchError(f"player {j}: one POVM per input required")
            for x, povm in enumerate(self.povms[j]):
                if len(povm) != len(game.outputs[j]):
                    raise DimensionMismatchError(f"player {j} input {x}: one element per output required")
                total_op = np.zeros((dims[j], dims[j]), dtype=complex)
                for m in povm:
                    m = np.asarray(m, dtype=complex)
                    if m.shape != (dims[j], dims[j]):
                        raise DimensionMismatchError(f"player {j}: POVM element shape {m.shape}")
                    if np.max(np.abs(m - m.conj().T)) > tol:
                        raise ValidationError("POVM element not Hermitian")
                    if np.linalg.eigvalsh((m + m.conj().T) / 2)[0] < -tol:
                        raise ValidationError("POVM element not PSD")
                    total_op += m
                if np.max(np.abs(total_op - np.eye(dims[j]))) > tol:
                    raise ValidationError(f"player {j} input {x}: POVM does not sum to identity")


@dataclass(frozen=True)
class Correlation:
    """Conditional outcome distribution q(a_1..a_l | x_1..x_l).

    ``q`` has shape ``(output sizes..., input sizes...)``.
    """

    q: np.ndarray
    players: int

    def validate(self) -> None:
        l = self.players
        if np.min(self.q) < -_CORRELATION_TOL:
            raise ValidationError("correlation has negative entries")
        out_axes = tuple(range(self.q.ndim - l))
        totals = self.q.sum(axis=out_axes)
        if np.max(np.abs(totals - 1.0)) > _CORRELATION_TOL:
            raise ValidationError("correlation not normalised for every input")


@dataclass(frozen=True)
class GameValueResult:
    value: float
    kind: str  # "exact" or "lower_bound"
    certificate: object | None = None


# ---------------------------------------------------------------------------
# builtin games


def magic_square() -> GamePredicate:
    p = np.full((3, 3), 1.0 / 9.0)
    V = np.zeros((4, 4, 3, 3), dtype=bool)
    for ai, bi, x, y in np.ndindex(4, 4, 3, 3):
        V[ai, bi, x, y] = EVEN_BITS[ai, y] == ODD_BITS[bi, x]
    return GamePredicate(
        inputs=((0, 1, 2), (0, 1, 2)),
        outputs=(EVEN_STRINGS, ODD_STRINGS),
        p=p,
        V=V,
        name="magic_square",
    )


def chsh() -> GamePredicate:
    p = np.full((2, 2), 0.25)
    V = np.zeros((2, 2, 2, 2), dtype=bool)
    for a, b, x, y in np.ndindex(2, 2, 2, 2):
        V[a, b, x, y] = (a ^ b) == (x & y)
    return GamePredicate(
        inputs=((0, 1), (0, 1)),
        outputs=((0, 1), (0, 1)),
        p=p,
        V=V,
        name="chsh",
    )


def mse() -> GamePredicate:
    """Magic square extended with an input-guessing third player."""
    alice_inputs = tuple((x, z) for x in range(3) for z in range(2))
    eve_outputs = tuple(
        (xp, yp, zp, c) for xp in range(3) for yp in range(3) for zp in range(2) for c in range(2)
    )
    p = np.full((6, 3, 1), 1.0 / 18.0)
    # one axis per letter, in the order the alphabets above flatten them
    ai, bi, xp, yp, zp, c, x, z, y = np.ogrid[:4, :4, :3, :3, :2, :2, :3, :2, :3]
    a_bit, b_bit = EVEN_BITS[ai, y], ODD_BITS[bi, x]
    V = (x == xp) & (y == yp) & (a_bit == c) & ((a_bit == b_bit) | (z == zp))
    V = V.reshape(4, 4, 36, 6, 3, 1)
    return GamePredicate(
        inputs=(alice_inputs, (0, 1, 2), (0,)),
        outputs=(EVEN_STRINGS, ODD_STRINGS, eve_outputs),
        p=p,
        V=V,
        name="mse",
    )


BUILTIN_GAMES: dict[str, Callable[[], GamePredicate]] = {
    "magic_square": magic_square,
    "chsh": chsh,
    "mse": mse,
}


def builtin_game(name: str) -> GamePredicate:
    try:
        return BUILTIN_GAMES[name]()
    except KeyError:
        raise ValidationError(f"unknown builtin game {name!r}; known: {sorted(BUILTIN_GAMES)}") from None


def _label(value):
    return tuple(value) if isinstance(value, list) else value


def game_from_json(doc: dict) -> GamePredicate:
    """Build a game from the shared JSON schema: ``players``, ``inputs``
    and ``outputs`` (one label list per player), ``p`` (flattened
    row-major) and ``V`` (flattened booleans or 0/1 entries, or the name of
    a builtin predicate to reuse with the given distribution)."""
    try:
        players = int(doc["players"])
        inputs = tuple(tuple(_label(v) for v in labels) for labels in doc["inputs"])
        outputs = tuple(tuple(_label(v) for v in labels) for labels in doc["outputs"])
        p_flat = doc["p"]
        v_spec = doc["V"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed game description: {exc!r}") from None
    if players != len(inputs):
        raise ValidationError(f"players={players} but {len(inputs)} input alphabets")
    in_sizes = tuple(len(a) for a in inputs)
    out_sizes = tuple(len(a) for a in outputs)
    try:
        p = np.asarray(p_flat, dtype=float).reshape(in_sizes)
        if isinstance(v_spec, str):
            base = builtin_game(v_spec)
            if base.input_sizes != in_sizes or base.output_sizes != out_sizes:
                raise ValidationError(
                    f"builtin predicate {v_spec!r} has alphabet sizes "
                    f"{base.output_sizes}+{base.input_sizes}, got {out_sizes}+{in_sizes}"
                )
            V = base.V
            name = v_spec
        else:
            V = np.asarray(v_spec).reshape(out_sizes + in_sizes)
            name = doc.get("name")
    except ValueError as exc:
        raise ValidationError(f"malformed game tables: {exc}") from None
    return GamePredicate(inputs=inputs, outputs=outputs, p=p, V=V, name=name)


def game_to_json(game: GamePredicate) -> dict:
    """Serialise a game to the shared JSON schema (dense predicate)."""
    return {
        "players": game.players,
        "inputs": [list(a) for a in game.inputs],
        "outputs": [list(a) for a in game.outputs],
        "p": game.p.reshape(-1).tolist(),
        "V": game.V.reshape(-1).astype(int).tolist(),
        "name": game.name,
    }


# ---------------------------------------------------------------------------
# classical value


def _wins(game: GamePredicate, strategy: ClassicalStrategy) -> np.ndarray:
    """Boolean table over the inputs: does `strategy` win on input x?
    Refuses maps that do not send each input to an output index."""
    maps = [np.asarray(m) for m in strategy.maps]
    if len(maps) != game.players:
        raise ValidationError(f"strategy has {len(maps)} maps for a {game.players}-player game")
    for j, (m, n_in, n_out) in enumerate(zip(maps, game.input_sizes, game.output_sizes)):
        if m.shape != (n_in,) or m.dtype.kind not in "iu" or m.min() < 0 or m.max() >= n_out:
            raise ValidationError(f"player {j}'s map must send {n_in} inputs to outputs 0..{n_out - 1}, got {m!r}")
    xs = np.ix_(*(np.arange(s) for s in game.input_sizes))
    return game.V[tuple(m[x] for m, x in zip(maps, xs)) + xs]


def strategy_value(game: GamePredicate, strategy: ClassicalStrategy) -> float:
    """Winning probability of a deterministic strategy."""
    # cumsum adds the inputs one at a time, in row-major order
    return float(np.cumsum(np.where(_wins(game, strategy), game.p, 0.0))[-1])


_GATHER_ENTRIES = 2**18


def _prefix_tree_margins(T: np.ndarray, m: int, n: int, chunk: int):
    """Yield ``(first map, margins)`` per subtree of one player's maps, ``m``
    outputs on ``n`` inputs, where ``T[c, ..., f]`` is the cell its output f
    on input c adds.  A subtree fixes the fewest leading digits that leave
    at most ``chunk`` maps; its level c adds ``T[c]``, broadcast over the
    new digit, to the partial sums of level c - 1, from zeros, so the
    leaves are the maps' sums in row-major map order."""
    k = 0
    while m ** (n - k) > chunk:
        k += 1
    for prefix in range(m**k):
        part = np.zeros(T.shape[1:-1] + (1,))
        for c in range(n):
            if c < k:
                f = prefix // m ** (k - 1 - c) % m
                part = part + T[c, ..., f : f + 1]
            else:
                part = (part[..., None] + T[c, ..., None, :]).reshape(*T.shape[1:-1], -1)
        yield prefix * m ** (n - k), part


def best_deterministic(pV: np.ndarray) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """Maximum of ``sum_x pV[f_1(x_1), ..., f_l(x_l), x]`` over deterministic
    maps ``f_j``, with the first maximising maps.

    ``pV`` is any real table of shape ``(|A_1|..|A_l|, |X_1|..|X_l|)``,
    negative entries included: ``p * V``, or the repetition probe's game
    whose inputs pair each input with the other player's message.  The
    player r with the largest strategy space (the last on ties)
    best-responds exactly; the others' maps run in row-major order, in
    chunks of at most ``_GATHER_ENTRIES`` margin entries.  A chunk's
    margins are output-major, ``(|A_r|, |X_r|, maps)``: each map's
    margin adds pV cell by cell from zeros, in the row-major order of the
    other players' inputs, and its value adds the row maxima input by
    input.  That order fixes the last bits.  With one other player the
    chunk is a subtree of its maps as a prefix tree over its inputs,
    whose level c adds input c's cells to the partial sums of level c - 1;
    with more, each input gathers every map's cells.  Callers check their
    own budget first: ``classical_value`` the strategy space, the probe
    its ``_split_work``.
    """
    l = pV.ndim // 2
    out_sizes, in_sizes = pV.shape[:l], pV.shape[l:]
    space_sizes = [out_sizes[j] ** in_sizes[j] for j in range(l)]
    r = max(range(l), key=lambda j: (space_sizes[j], j))
    others = [j for j in range(l) if j != r]
    n_in_r, n_out_r = in_sizes[r], out_sizes[r]
    # T[c, a_r, x_r, a_o] = pV[a, x], the other players' inputs c and
    # outputs a_o each flattened row-major
    out_o = [out_sizes[j] for j in others]
    in_o = [in_sizes[j] for j in others]
    T = pV.transpose([l + j for j in others] + [r, l + r] + others)
    T = T.reshape(math.prod(in_o), n_out_r, n_in_r, math.prod(out_o))
    sizes = [space_sizes[j] for j in others]

    def output(t, x_j, ids):
        """Output of other player t on input x_j in combination `ids` (row-major
        over the other players' maps, each map row-major over its inputs)."""
        m = ids // math.prod(sizes[t + 1 :]) % sizes[t]
        return m // out_o[t] ** (in_o[t] - 1 - x_j) % out_o[t]

    def gathered(chunk):
        """(first map, margins) per chunk of ``chunk`` maps, each input
        gathering its cells for every map of the chunk."""
        n_combos = math.prod(sizes)
        stride = [math.prod(out_o[t + 1 :]) for t in range(len(others))]
        for start in range(0, n_combos, chunk):
            ids = np.arange(start, min(start + chunk, n_combos), dtype=np.int64)
            margins = np.zeros((n_out_r, n_in_r, ids.size))
            for c, x_o in enumerate(np.ndindex(*in_o)):
                a_o = np.zeros(ids.size, dtype=np.int64)
                for t, x_j in enumerate(x_o):
                    a_o += output(t, x_j, ids) * stride[t]
                margins += np.take(T[c], a_o, axis=-1)
            yield start, margins

    chunk = max(1, _GATHER_ENTRIES // (n_in_r * n_out_r))
    if len(others) == 1:
        chunks = _prefix_tree_margins(T, out_o[0], in_o[0], chunk)
    else:
        chunks = gathered(chunk)
    best_val, best_id, best_r_map = -math.inf, 0, None
    for start, margins in chunks:
        best = margins.max(axis=0)
        vals = np.zeros(best.shape[1])
        for row in best:
            vals += row
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_id = start + k
            best_r_map = tuple(margins[:, :, k].argmax(axis=0).tolist())
    maps = {r: best_r_map}
    for t, j in enumerate(others):
        maps[j] = tuple(output(t, x_j, best_id) for x_j in range(in_o[t]))
    return best_val, tuple(maps[j] for j in range(l))


def classical_value(game: GamePredicate, budget: int = 10**8) -> GameValueResult:
    """Exact maximum winning probability over deterministic strategies,
    :func:`best_deterministic` on ``p * V``.  Raises ``BudgetExceededError``
    first when the strategy space exceeds ``budget`` (an integer >= 0)."""
    check_range("budget", budget, 0, math.inf, integer=True)
    total = math.prod(len(game.outputs[j]) ** len(game.inputs[j]) for j in range(game.players))
    if total > budget:
        raise BudgetExceededError(f"{total} deterministic strategies exceed budget {budget}")
    value, maps = best_deterministic(game.p * game.V)
    return GameValueResult(value, "exact", ClassicalStrategy(maps))


# ---------------------------------------------------------------------------
# quantum strategies


def evaluate_quantum_strategy(game: GamePredicate, strategy: QuantumStrategy) -> float:
    """Exact winning probability of a validated quantum strategy."""
    strategy.validate(game)
    psi = np.asarray(strategy.state, dtype=complex).reshape(-1)
    value = 0.0
    for x in np.ndindex(*game.input_sizes):
        px = float(game.p[x])
        if px == 0.0:
            continue
        for a in np.argwhere(game.V[(..., *x)]):
            op = strategy.povms[0][x[0]][a[0]]
            for j in range(1, game.players):
                op = np.kron(op, strategy.povms[j][x[j]][a[j]])
            value += px * float(np.real(psi.conj() @ (op @ psi)))
    return float(value)


def ms_observables() -> list[list[np.ndarray]]:
    """The 3x3 grid of two-qubit observables behind the magic-square strategy.

    Row products are +I, column products are -I, entries in a row or column
    commute, and every entry is a symmetric matrix.
    """
    I2 = np.eye(2, dtype=complex)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    return [
        [np.kron(I2, Z), np.kron(Z, I2), np.kron(Z, Z)],
        [np.kron(X, I2), np.kron(I2, X), np.kron(X, X)],
        [-np.kron(X, Z), -np.kron(Z, X), np.kron(Y, Y)],
    ]


def canonical_ms_strategy() -> QuantumStrategy:
    """Perfect magic-square strategy on two shared EPR pairs.

    Alice measures the three commuting observables of row x and outputs the
    even-parity bit string of outcomes (eigenvalue +1 encodes bit 0); Bob
    does the same with column y.  Both players use identical (symmetric)
    observables, which on the canonical maximally entangled state yields
    agreement on the shared cell with probability 1.
    """
    grid = ms_observables()
    dim = 4
    psi = np.zeros(dim * dim, dtype=complex)
    for m in range(dim):
        psi[m * dim + m] = 0.5
    eye = np.eye(dim, dtype=complex)

    def projector(ops: list[np.ndarray], bits: np.ndarray) -> np.ndarray:
        out = eye
        for op, bit in zip(ops, bits):
            sign = 1.0 if bit == 0 else -1.0
            out = out @ (eye + sign * op) / 2
        return out

    alice = tuple(
        tuple(projector(grid[x], EVEN_BITS[ai]) for ai in range(4)) for x in range(3)
    )
    bob = tuple(
        tuple(projector([grid[r][y] for r in range(3)], ODD_BITS[bi]) for bi in range(4))
        for y in range(3)
    )
    return QuantumStrategy(state=psi, local_dims=(4, 4), povms=(alice, bob))


# ---------------------------------------------------------------------------
# see-saw lower bounds


def _contract(pV: np.ndarray, M: Sequence[np.ndarray], skip: int | None = None) -> np.ndarray:
    """``sum_{x, a} pV[a, x] (x)_k M[k][r, x_k, a_k]`` over every player k
    but ``skip``, for each restart r of a group's ``(R, |X_k|, |A_k|, d_k,
    d_k)`` stacks: one stacked matmul per player, which computes each
    restart's product as it would alone.  Axes of the result: r (length 1
    if no player is contracted), ``(a_skip, x_skip)`` when a player is
    skipped, then the row and column axis of each contracted player."""
    T, labels = pV[None], ["r"] + [("a", k) for k in range(len(M))] + [("x", k) for k in range(len(M))]
    for k in range(len(M)):
        if k != skip:
            R, n_in, n_out, d = M[k].shape[:4]
            pair = [labels.index(("x", k)), labels.index(("a", k))]
            rest = [i for i in range(T.ndim) if i not in pair]
            T = T.transpose(rest + pair)
            free = T.shape[1 : len(rest)]
            T = T.reshape(T.shape[0], -1, n_in * n_out) @ M[k].reshape(R, n_in * n_out, d * d)
            T = T.reshape(R, *free, d, d)
            labels = [labels[i] for i in rest] + [("r", k), ("c", k)]
    return T


def _game_operator(pV: np.ndarray, M: Sequence[np.ndarray]) -> np.ndarray:
    """Each restart's game operator ``W = sum_{x, a} p(x) V(a | x) (x)_k
    M[k][x_k, a_k]``, an ``(R, D, D)`` stack."""
    l = len(M)
    D = math.prod(m.shape[-1] for m in M)
    T = _contract(pV, M)
    W = T.transpose([0] + list(range(1, 2 * l, 2)) + list(range(2, 2 * l + 1, 2))).reshape(T.shape[0], D, D)
    return (W + W.conj().swapaxes(-1, -2)) / 2


def _effective_operators(pV: np.ndarray, M: Sequence[np.ndarray], psi: np.ndarray, j: int) -> np.ndarray:
    """Stack ``G[r, x_j, a_j]`` of player j's effective operators for each
    restart r of a group, whose states are the rows of ``psi``:
    ``<psi| W |psi> = sum_{x_j, a_j} Tr(M[j][x_j, a_j] G[x_j, a_j])``, where
    ``G`` holds the other players' stacks only.  With ``O[x_j, a_j]`` the
    other players' part of ``W`` and ``Psi`` the state as a ``d_j x
    D_others`` matrix, ``G = Psi O^T Psi^H``: two stacked matmuls."""
    l, dims = len(M), [m.shape[-1] for m in M]
    T = _contract(pV, M, skip=j)
    R, n_out, n_in = T.shape[:3]
    # O^T: the columns of the other players first, then their rows
    OT = T.transpose([0, 2, 1] + list(range(4, 2 * l + 1, 2)) + list(range(3, 2 * l, 2)))
    OT = OT.reshape(R, n_in, n_out, *[math.prod(dims) // dims[j]] * 2)
    Psi = np.moveaxis(psi.reshape(-1, *dims), j + 1, 1).reshape(-1, 1, 1, dims[j], OT.shape[-1])
    return Psi @ OT @ Psi.conj().swapaxes(-1, -2)


def _pair_rounds(n: int) -> list[list[tuple[int, int]]]:
    """The pairs ``i < j`` of ``range(n)`` in round-robin rounds of
    disjoint pairs (the circle method): n - 1 rounds for even n, n rounds
    with one output left out of each for odd n.  Odd n puts ``(i, j)`` in
    round ``(i + j) mod n``; even n does the same for ``1..n-1`` modulo
    n - 1 and pairs 0 with the output left out, ``(0, j)`` in round
    ``2j mod (n - 1)``.  For n = 4:
    ``[(0, 3), (1, 2)], [(0, 2), (1, 3)], [(0, 1), (2, 3)]``."""
    m = n - 1 + n % 2
    rounds = [[] for _ in range(m)]
    for i, j in itertools.combinations(range(n), 2):
        rounds[(2 * j if i == 0 and n % 2 == 0 else i + j) % m].append((i, j))
    return rounds


@functools.cache
def _pair_round_indices(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``_pair_rounds(n)`` as one read-only ``(alpha, beta)`` pair of index
    arrays per round, built once per output count."""
    rounds = []
    for pairs in _pair_rounds(n):
        alpha_beta = np.array(pairs).T
        alpha_beta.flags.writeable = False
        rounds.append((alpha_beta[0], alpha_beta[1]))
    return tuple(rounds)


def _optimize_povm(G: np.ndarray, current: np.ndarray, tol: float) -> np.ndarray:
    """Maximise ``sum_a Tr(M_a G[x, a])`` over POVMs ``(M_a)``, for every
    input ``x`` of the ``(|X|, |A|, d, d)`` stacks at once.

    Two outcomes: exact via the positive part of ``G[x, 0] - G[x, 1]``.
    More outcomes: one round-robin sweep of exact two-outcome improvements
    on pairs, each applied to an input only when its own gain exceeds
    ``tol``.  The sweep visits the pairs in the round-robin rounds of
    ``_pair_rounds``; the pairs of a round touch different elements, so one
    batched step over the (input, pair) stack does the round, the same as
    its pairs one after another.  The sweep need not converge: every pair
    step is an exact improvement, and the seesaw's next iteration sweeps
    again against the new state.

    ``current`` must be projective, as every stack the seesaw passes in
    is (Haar splits, the two-outcome projectors, this update's own
    output).  Then ``S = M_alpha + M_beta`` is a projector and the exact
    pair update ``S^(1/2) P+(S^(1/2) D S^(1/2)) S^(1/2)``, with
    ``D = G_alpha - G_beta`` and ``P+`` the projector onto the positive
    part, is ``P+(S D S)``: one ``eigh`` per pair step, and the output is
    projective again.  ``eigh`` gets ``S D S + S - I``, which has the same
    positive part: the shift puts the complement of S at eigenvalue -1,
    where rounding cannot mix it into small positive eigenvalues of
    ``S D S``; such mixing leaks ``M_alpha`` out of S, and
    ``M_beta = S - M_alpha`` then drifts from a projector and below 0
    (by 1e-12 within one seesaw on a random 3-player game).
    """
    k, n, d = current.shape[:3]
    ident = np.eye(d, dtype=complex)
    eye = np.broadcast_to(ident, (k, d, d))
    if n == 1:
        return eye[:, None].copy()
    if n == 2:
        P = qcore.psd_power(G[:, 0] - G[:, 1], 0.0)
        return np.stack([P, eye - P], axis=1)
    ms = current.astype(complex)
    for alpha, beta in _pair_round_indices(n):
        old_alpha = ms[:, alpha]
        S = old_alpha + ms[:, beta]
        delta = G[:, alpha] - G[:, beta]
        # qcore.psd_power(shifted, 0.0), inline: the same eigh and mask
        shifted = S @ delta @ S + S - ident
        w, v = np.linalg.eigh((shifted + shifted.conj().swapaxes(-1, -2)) / 2)
        P = (v * (w >= qcore.EIG_CUTOFF)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        gain = np.einsum("kpij,kpji->kp", P - old_alpha, delta).real
        i, q = np.nonzero(gain > tol)
        new_alpha = P[i, q]
        new_alpha = (new_alpha + new_alpha.conj().swapaxes(-1, -2)) / 2
        ms[i, alpha[q]] = new_alpha
        ms[i, beta[q]] = S[i, q] - new_alpha
    return ms


def _random_povms(game: GamePredicate, local_dims, seed: int, rs: range) -> list[np.ndarray]:
    """Per player, the ``(R, |X_j|, |A_j|, d_j, d_j)`` stack of Haar-random
    projective measurements of the restarts ``rs``: per input, restart r's
    ``default_rng([seed, r])`` draws a complex Gaussian matrix, whose QR
    (stacked over the group) with phases fixed gives a Haar unitary.  Its
    columns are split as evenly as the outputs allow (the first outputs
    get the extra columns, later ones none when d_j < |A_j|)."""
    rngs = [np.random.default_rng([seed, r]) for r in rs]
    povms = []
    for j, d in enumerate(local_dims):
        n_out = game.output_sizes[j]
        z = np.stack([rng.normal(size=(game.input_sizes[j], 2, d, d)) for rng in rngs])
        q, tri = np.linalg.qr(z[:, :, 0] + 1j * z[:, :, 1])
        diag = np.diagonal(tri, axis1=-2, axis2=-1)
        U = q * (diag / np.abs(diag))[..., None, :]
        edges = np.cumsum([0] + [d // n_out + (1 if k < d % n_out else 0) for k in range(n_out)])
        M = np.empty((len(rngs), game.input_sizes[j], n_out, d, d), dtype=complex)
        for a in range(n_out):
            cols = U[..., edges[a] : edges[a + 1]]
            M[:, :, a] = cols @ cols.conj().swapaxes(-1, -2)
        povms.append(M)
    return povms


_SEESAW_ITERS = 500  # iterations of one seesaw restart at most
_SEESAW_TOL = 1e-9  # a seesaw restart stops after an iteration that gains less
# Joint dimension prod(local_dims) of a seesaw at most: chsh at (2, 512)
# takes ~3 s and ~180 MB a restart; mse's default dims (4, 4, 36) are 576.
_SEESAW_DIM_LIMIT = 1024


def _lockstep(pV: np.ndarray, game: GamePredicate, local_dims, rs: range, seed: int, max_iters: int, tol: float):
    """Run the seesaw restarts ``rs`` as one group, one iteration of all of
    them at a time, and yield each restart's ``(value, state, povms)`` in
    index order once it and every restart before it in ``rs`` have stopped.

    Player j's POVMs of every restart still running form one
    ``(restarts, |X_j|, |A_j|, d_j, d_j)`` stack, drawn in one call.  An
    iteration takes the game operators and effective operators as stacked
    matmuls over the group, one batched ``eigh`` of the game operators
    and, per player, one ``_optimize_povm`` call on the stacks flattened to
    ``restarts * |X_j|`` inputs: one round-robin sweep, whose pair rounds
    each take one batched ``eigh`` over every (input, pair).  Stacked
    matmul, QR and ``eigh`` act matrix by matrix, and the POVM update input
    by input, so each restart computes exactly what it would alone.  A
    finished restart keeps copies of its own arrays, not views that would
    keep the group's stacks alive."""
    povms = _random_povms(game, local_dims, seed, rs)
    live, prev = list(rs), [-1.0] * len(rs)
    W = _game_operator(pV, povms)
    finished, nxt = {}, rs.start
    for it in range(max_iters):
        psi = np.linalg.eigh(W)[1][..., -1]
        for j in range(game.players):
            shape = povms[j].shape
            G = _effective_operators(pV, povms, psi, j).reshape(-1, *shape[2:])
            povms[j] = _optimize_povm(G, povms[j].reshape(-1, *shape[2:]), tol * 0.1).reshape(shape)
        W = _game_operator(pV, povms)
        stay = []
        for i, r in enumerate(live):
            val = float(np.real(psi[i].conj() @ (W[i] @ psi[i])))
            if val - prev[i] < tol or it == max_iters - 1:
                finished[r] = (val, psi[i].copy(), [M[i].copy() for M in povms])
            else:
                stay.append(i)
                prev[i] = val
        while nxt in finished:
            yield finished.pop(nxt)
            nxt += 1
        if not stay:
            return
        live, prev, W = [live[i] for i in stay], [prev[i] for i in stay], W[stay]
        povms = [M[stay] for M in povms]


def seesaw(
    game: GamePredicate,
    local_dims: Sequence[int],
    restarts: int = 20,
    seed: int = 0,
) -> GameValueResult:
    """Alternating-optimisation lower bound on the entangled value.

    Alternates between the optimal state for fixed measurements (top
    eigenvector of the game operator ``W``) and exact measurement updates
    for a fixed state; the value never decreases along the way.  Each
    restart ``r`` draws fresh Haar-random projective measurements from
    ``numpy.random.default_rng([seed, r])``, and stops once an iteration
    gains less than ``_SEESAW_TOL`` or after ``_SEESAW_ITERS`` iterations;
    a restart that reaches 1 - 1e-9 ends the search.  A joint dimension
    ``prod(local_dims)`` above ``_SEESAW_DIM_LIMIT`` raises
    ``BudgetExceededError`` before any draw.
    The measurements stay projective throughout: with three or more
    outputs, ``_optimize_povm`` makes one round-robin sweep per iteration
    over the pairs of outputs, one ``eigh`` per pair step, and its exact
    pair update returns projectors when given projectors.

    Player j's POVMs are one ``(|X_j|, |A_j|, d_j, d_j)`` stack, and ``W``
    and player j's effective operators each come from contracting ``p * V``
    with the stacks, one stacked matmul per player over a whole lockstep
    group of restarts.  Within an iteration the players update in
    order, player j against the stacks players 0..j-1 have just updated.
    All of one player's inputs update together: the effective operators of
    input x_j hold only the other players' POVMs, never player j's own on
    another input, so this is the same as updating the inputs one by one.

    The restarts run in lockstep groups of 2, 4, 8, ... restarts, restarts
    0-1, 2-5, 6-13, ... (see ``_lockstep``), and their results are taken
    in index order, so the value, state and POVMs are bitwise those of
    running the restarts one at a time.  A search that stops inside a group
    has also run the group's later restarts, for nothing; with doubling
    groups those are never more than the restarts before the group, plus
    one.  (One group of restarts 1..restarts-1 made magic_square, which
    reaches 1 - 1e-9 in about one restart in three, twice as slow as one
    restart at a time.  Groups of 2, 4, 8 took less time in total than
    groups of 1, 2, 4 over seeds 0-9 of chsh, magic_square and chsh^2,
    though a search that restart 0 ends also runs restart 1.)
    """
    local_dims = tuple(int(check_range("local dimension", d, 1, math.inf, integer=True)) for d in local_dims)
    if len(local_dims) != game.players:
        raise DimensionMismatchError("one local dimension per player required")
    joint = math.prod(local_dims)
    if joint > _SEESAW_DIM_LIMIT:
        raise BudgetExceededError(f"joint dimension {joint} of a seesaw exceeds the limit {_SEESAW_DIM_LIMIT}")
    check_range("restarts", restarts, 1, math.inf, integer=True)
    check_range("seed", seed, 0, math.inf, integer=True)
    pV = (game.p * game.V).astype(complex)
    best_val, best_state, best_povms = -1.0, None, None
    n_groups = int(restarts + 1).bit_length() - 1
    groups = [range(2 ** (k + 1) - 2, min(2 ** (k + 2) - 2, restarts)) for k in range(n_groups)]
    for val, psi, povms in itertools.chain.from_iterable(
        _lockstep(pV, game, local_dims, rs, seed, _SEESAW_ITERS, _SEESAW_TOL) for rs in groups
    ):
        if val > best_val:
            best_val, best_state, best_povms = val, psi, povms
        if best_val >= 1.0 - 1e-9:
            break
    cert = QuantumStrategy(
        state=best_state,
        local_dims=local_dims,
        povms=tuple(tuple(tuple(povm) for povm in M) for M in best_povms),
    )
    return GameValueResult(min(best_val, 1.0), "lower_bound", cert)


# ---------------------------------------------------------------------------
# repetition


def repeat(game: GamePredicate, n: int, budget: int = 10**7) -> GamePredicate:
    """`n`-fold parallel repetition: inputs drawn iid, win iff every copy wins.

    Player j's inputs and outputs in the repeated game are n-tuples of its
    labels, indexed row-major with copy 0 most significant.  Raises
    ``BudgetExceededError``, before anything is allocated, when the dense
    repeated predicate (always the game's largest table) would have more
    than ``budget`` entries.
    """
    _check_repeat(game, n, budget)
    if n == 1:
        return game
    return GamePredicate(
        inputs=tuple(tuple(itertools.product(alpha, repeat=n)) for alpha in game.inputs),
        outputs=tuple(tuple(itertools.product(alpha, repeat=n)) for alpha in game.outputs),
        p=_outer_power(game.p, n),
        V=_outer_power(game.V, n),
        name=f"{game.name}^{n}" if game.name else None,
    )


def _check_repeat(game: GamePredicate, n: int, budget: int) -> None:
    """The checks :func:`repeat` makes before anything is allocated."""
    check_range("repetition count", n, 1, math.inf, integer=True)
    check_range("budget", budget, 0, math.inf, integer=True)
    v_entries = 1  # factor by factor, stopping past the budget: s**n can be huge
    for s in game.V.shape:
        for _ in range(n if s > 1 else 0):
            if v_entries > budget:
                break
            v_entries *= s
    if v_entries > budget:
        raise BudgetExceededError(f"the {n}-fold repeated predicate would have more than budget {budget} entries")


def _outer_power(t: np.ndarray, n: int) -> np.ndarray:
    """n-fold outer product of `t` with each axis merged across the copies,
    copy 0 most significant: ``out[i_1, ...] = prod_c t[digit_c(i_1), ...]``.
    Each copy merges in as it is multiplied in: numpy allows 64 axes."""
    out = t
    for _ in range(n - 1):
        pairs = [i for k in range(t.ndim) for i in (k, t.ndim + k)]
        out = np.multiply.outer(out, t).transpose(pairs).reshape([a * b for a, b in zip(out.shape, t.shape)])
    return out

