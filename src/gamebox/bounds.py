"""Linear-programming bounds for nonlocal games.

Contents:

* a self-contained dense two-phase simplex solver (Bland's anti-cycling
  pivot rule) -- the single LP backend used by everything below.  Its
  pivot kernels are numpy operations: the entering column is the first
  negative reduced cost, the leaving row follows the sequential min-ratio
  and tie rule over the candidate rows, and a pivot is a rank-1 update of
  the rows it changes, in chunks of at most 2^17 doubles (1 MB) of
  temporaries.  They make the pivots, and compute the values, of a
  per-entry loop bit for bit.  Each result carries deterministic
  ``stats`` (size, pivots per phase, rows dropped, backend);
* ``ns_game_value`` -- exact maximum winning probability over the
  no-signalling polytope (an inputless player's outputs split it into
  sub-games; a sub-game whose cap cannot beat the best so far is not
  solved);
* ``eff_ns`` / ``eff_local`` -- "efficiency" partition bounds: the players
  may abort (a per-player extra output), and we maximise the probability
  eta of not aborting subject to winning with conditional probability at
  least ``1 - eps``; ``eff = 1/eta``.  Both relaxations solve one LP,
  built by ``_efficiency_lp`` (which defines the ``worst_case``, ``tilde``
  and ``average`` counting variants), over different columns: the entries
  of a no-signalling correlation give a lower bound on the quantum
  quantity, the weights of a mixture of deterministic strategies an upper
  bound (one column per group of strategies with equal columns).  Its
  rows are the head rows that fix the column set (no-signalling, or
  weights summing to one), then the mass rows, then the win rows, then
  the eta floor;
* ``gamma2_star`` / ``gamma2_alpha`` -- factorisation-norm quantities over
  unit vectors (bracketed by an SDP dual bound) and sign matrices;
* ``check_thm2`` -- sandwich check that the gamma2-based lower bound stays
  below the local partition upper bound for XOR predicates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    CapabilityError,
    DimensionMismatchError,
    LPInfeasibleError,
    LPUnboundedError,
    ValidationError,
    check_distribution,
    check_range,
)
from .games import Correlation, GamePredicate

ETA_FLOOR = 1e-9
VARIANTS = ("worst_case", "tilde", "average")

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9
_CHUNK = 1 << 17  # doubles of temporaries per chunk of a pivot's row update (1 MB)
_GAMMA2_GAP = 1e-7  # relative duality gap at which a gamma2_star solve stops
_GAMMA2_CAP = 10_000  # iterations of a gamma2_star solve


# ---------------------------------------------------------------------------
# LP solver


@dataclass
class LinearProgram:
    """max (or min) c.x  s.t.  A x (sense) b,  x >= 0, optionally x <= ub."""

    c: np.ndarray
    A: np.ndarray
    senses: Sequence[str]
    b: np.ndarray
    maximize: bool = True
    upper_bounds: np.ndarray | None = None


@dataclass
class LPResult:
    """The optimum ``value`` and a vertex ``x`` attaining it.

    ``stats`` says what the solver did, deterministically: ``rows`` and
    ``cols`` (the shape of ``A`` as given), ``pivots_phase1`` (including
    the pivots that drive artificial variables out of the basis),
    ``pivots_phase2``, ``dropped_rows`` (redundant rows removed after
    phase 1) and ``backend``.
    """

    value: float
    x: np.ndarray
    stats: dict


def _pivot(T: np.ndarray, row: int, col: int, work: np.ndarray) -> None:
    """Eliminate column ``col`` from every row but ``row``.

    The rows with a nonzero entry in that column get one rank-1 update,
    ``T[rows] -= f[rows, None] * T[row]``, run in place on each contiguous
    run of them, in chunks that fit the scratch buffer ``work``.  Each
    entry gets one multiply and one subtract, as in a per-row loop, and
    rows with a zero entry are not touched, so the results are bitwise
    those of the loop, down to the sign of zero."""
    T[row] /= T[row, col]
    piv = T[row]
    f = T[:, col].copy()
    # hit[i + 1]: row i is updated; the False ends make the runs' edges pair up
    hit = np.zeros(f.size + 2, dtype=bool)
    np.not_equal(f, 0.0, out=hit[1:-1])
    hit[row + 1] = False
    edges = np.flatnonzero(hit[1:] != hit[:-1]).tolist()
    step = work.size // T.shape[1]
    buf = work[: step * T.shape[1]].reshape(step, T.shape[1])
    for start, stop in zip(edges[::2], edges[1::2]):
        for a in range(start, stop, step):
            block = T[a : min(a + step, stop)]
            prod = buf[: block.shape[0]]
            np.multiply(f[a : a + block.shape[0], None], piv, out=prod)
            np.subtract(block, prod, out=block)


def _enter(T: np.ndarray) -> int | None:
    """Bland's rule: the smallest column with negative reduced cost."""
    neg = np.flatnonzero(T[-1, :-1] < -_COST_TOL)
    return int(neg[0]) if neg.size else None


def _leave(T: np.ndarray, col: int, basis: list[int]) -> int | None:
    """Min-ratio row; ties broken by smallest basic-variable index (Bland).

    The rule runs in row order over the rows with a positive entry: a
    ratio within ``_PIVOT_TOL`` of the best so far is a tie, so a chain of
    near-ties can end elsewhere than ``argmin`` would."""
    rows = np.flatnonzero(T[:-1, col] > _PIVOT_TOL)
    ratios = T[rows, -1] / T[rows, col]
    best_row = None
    best_ratio = None
    for i, ratio in zip(rows.tolist(), ratios.tolist()):
        if (
            best_ratio is None
            or ratio < best_ratio - _PIVOT_TOL
            or (abs(ratio - best_ratio) <= _PIVOT_TOL and basis[i] < basis[best_row])
        ):
            best_ratio = ratio
            best_row = i
    return best_row


def _run_simplex(T: np.ndarray, basis: list[int], work: np.ndarray) -> tuple[str, int]:
    """Pivot to optimality; returns the status and the number of pivots."""
    # Bland's rule never revisits a basis in exact arithmetic; rounding in the
    # tableau can break it, and a revisited basis then loops forever.
    seen = {hash(tuple(sorted(basis)))}
    while True:
        j = _enter(T)
        if j is None:
            return "optimal", len(seen) - 1
        r = _leave(T, j, basis)
        if r is None:
            return "unbounded", len(seen) - 1
        _pivot(T, r, j, work)
        basis[r] = j
        key = hash(tuple(sorted(basis)))
        if key in seen:
            raise CapabilityError(f"simplex revisited a basis after {len(seen)} pivots: rounding broke Bland's rule")
        seen.add(key)


def solve_lp(lp: LinearProgram) -> LPResult:
    """Two-phase dense simplex with Bland's anti-cycling rule.

    Variables are non-negative; an upper bound of ``+inf`` bounds nothing.
    The pivot kernels are numpy operations that pick the same pivots, and
    compute the same floating-point values, as a per-entry loop: the
    entering column is the first with reduced cost below ``-_COST_TOL``,
    the leaving row follows the sequential min-ratio rule of
    :func:`_leave`, and each pivot is a rank-1 update of the rows it
    changes, run in chunks of at most 2^17 doubles (1 MB) of temporaries.

    Raises ``ValidationError`` for a non-finite ``c``, ``A`` or ``b`` or a
    NaN or ``-inf`` upper bound, before any work; ``LPInfeasibleError`` or
    ``LPUnboundedError`` on the two failure modes.
    """
    A = np.array(lp.A, dtype=float)
    b = np.array(lp.b, dtype=float).reshape(-1)
    c = np.array(lp.c, dtype=float).reshape(-1)
    senses = list(lp.senses)
    if A.ndim != 2 or A.shape != (b.size, c.size):
        raise DimensionMismatchError(f"LP shapes inconsistent: A {A.shape}, b {b.size}, c {c.size}")
    if len(senses) != b.size:
        raise DimensionMismatchError("one sense per constraint row required")
    if any(s not in ("<=", ">=", "=") for s in senses):
        raise ValidationError(f"senses must be <=, >= or =, got {sorted(set(senses))}")
    for name, arr in (("c", c), ("A", A), ("b", b)):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"LP {name} has non-finite entries")
    stats = {"rows": b.size, "cols": c.size, "pivots_phase1": 0, "pivots_phase2": 0, "dropped_rows": 0,
             "backend": "dense_bland"}
    if lp.upper_bounds is not None:
        ub = np.asarray(lp.upper_bounds, dtype=float).reshape(-1)
        if ub.size != c.size:
            raise DimensionMismatchError("one upper bound per variable required")
        if np.any(np.isnan(ub) | (ub == -np.inf)):
            raise ValidationError("upper bounds must be numbers or +inf (no bound)")
        finite = np.isfinite(ub)
        A = np.vstack([A, np.eye(c.size)[finite]])
        b = np.concatenate([b, ub[finite]])
        senses += ["<="] * int(finite.sum())

    n = c.size
    m = b.size
    obj = -c if lp.maximize else c.copy()

    for i in range(m):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    slack_cols = []
    art_rows = []
    for i, s in enumerate(senses):
        if s == "<=":
            slack_cols.append((i, 1.0))
        elif s == ">=":
            slack_cols.append((i, -1.0))
            art_rows.append(i)
        else:
            art_rows.append(i)

    n_slack = len(slack_cols)
    n_struct = n + n_slack
    n_art = len(art_rows)
    width = n_struct + n_art + 1

    T = np.zeros((m + 1, width))
    T[:m, :n] = A
    T[:m, -1] = b
    for k, (i, sign) in enumerate(slack_cols):
        T[i, n + k] = sign
    basis = [-1] * m
    for k, (i, sign) in enumerate(slack_cols):
        if sign > 0:
            basis[i] = n + k
    for k, i in enumerate(art_rows):
        T[i, n_struct + k] = 1.0
        basis[i] = n_struct + k
    # scratch for the pivots' row updates, at least one row; T only shrinks.
    # One buffer per solve: a fresh temporary of this size on every pivot
    # costs page faults that, measured, took longer than the arithmetic.
    work = np.empty(max(width, min(_CHUNK, T.size)))

    # phase 1: minimise the artificial variables
    if n_art:
        T[-1, :] = 0.0
        for k in range(n_art):
            T[-1, n_struct + k] = 1.0
        for i in range(m):
            if basis[i] >= n_struct:
                T[-1] -= T[i]
        status, stats["pivots_phase1"] = _run_simplex(T, basis, work)
        if status == "unbounded":  # cannot happen: phase-1 objective >= 0
            raise LPInfeasibleError("phase 1 failed")
        feas_tol = 1e-8 * (1.0 + (float(np.max(np.abs(b))) if b.size else 0.0))
        if -T[-1, -1] > feas_tol:
            raise LPInfeasibleError(f"infeasible (phase-1 objective {-T[-1, -1]:.3e})")
        # drive remaining artificial basics out, dropping redundant rows
        drop = []
        for i in range(m):
            if basis[i] >= n_struct:
                cols = np.flatnonzero(np.abs(T[i, :n_struct]) > _PIVOT_TOL)
                if cols.size == 0:
                    drop.append(i)
                else:
                    _pivot(T, i, int(cols[0]), work)
                    basis[i] = int(cols[0])
                    stats["pivots_phase1"] += 1
        if drop:
            keep = [i for i in range(m) if i not in drop]
            T = T[keep + [m]]
            basis = [basis[i] for i in keep]
            m = len(keep)
            stats["dropped_rows"] = len(drop)
        T = np.delete(T, np.s_[n_struct : n_struct + n_art], axis=1)

    # phase 2
    T[-1, :] = 0.0
    T[-1, :n] = obj
    for i in range(m):
        if basis[i] < n and obj[basis[i]] != 0.0:
            T[-1] -= obj[basis[i]] * T[i]
    status, stats["pivots_phase2"] = _run_simplex(T, basis, work)
    if status == "unbounded":
        raise LPUnboundedError("objective unbounded over the feasible region")

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, -1]
    return LPResult(value=float(np.dot(c, x)), x=x, stats=stats)


# ---------------------------------------------------------------------------
# no-signalling game value


def _ns_constraint_rows(out_sizes, in_sizes) -> tuple[np.ndarray, np.ndarray]:
    """Normalisation + per-player no-signalling equality rows ``A q = b``
    over the entries of ``q[a_1, ..., a_l, x_1, ..., x_l]`` (row-major),
    of full row rank.

    The rows are a maximal independent subset of those of
    :func:`_all_ns_rows`, so they cut out the same (no-signalling)
    polytope: walking those rows in order, a row is kept unless it is a
    combination of the rows kept before it.  The normalisation rows come
    first and are all kept, so ``b`` is ones, then zeros.  The kept
    indices are chosen once per shape (:func:`_independent_ns_rows`).
    """
    A, b = _all_ns_rows(out_sizes, in_sizes)
    keep = _independent_ns_rows(tuple(out_sizes), tuple(in_sizes))
    return A[keep], b[keep]


@functools.cache
def _independent_ns_rows(out_sizes: tuple, in_sizes: tuple) -> np.ndarray:
    """Indices of the rows of :func:`_all_ns_rows` that are not linear
    combinations of earlier rows, by a row-order Cholesky factorisation of
    the Gram matrix ``G = A A^T``: row i is kept when its residual
    ``d[i]`` (its squared distance from the span of the rows kept so far)
    exceeds ``1e-9 G[i, i]``; the new column of the factor then updates
    every residual.  Only the (read-only) indices are cached."""
    A, _ = _all_ns_rows(out_sizes, in_sizes)
    G = A @ A.T
    d = np.diag(G).copy()
    Lt = np.zeros((min(A.shape), G.shape[0]))  # row k: the factor's k-th column
    keep = []
    for i in range(G.shape[0]):
        if d[i] <= 1e-9 * G[i, i]:
            continue
        k = len(keep)
        col = (G[i] - Lt[:k, i] @ Lt[:k]) / math.sqrt(d[i])
        Lt[k] = col
        d -= col * col
        keep.append(i)
    keep = np.array(keep, dtype=np.int64)
    keep.flags.writeable = False
    return keep


def _all_ns_rows(out_sizes, in_sizes) -> tuple[np.ndarray, np.ndarray]:
    """Every normalisation and per-player no-signalling row, dependent ones
    included.

    First one normalisation row per input x, then, for each player j with
    more than one input, one row per (other inputs, other outputs, x_j >= 1)
    equating j's marginal at x_j with the one at x_j = 0.  Per-player
    marginal conditions imply every subset marginal condition, so these
    rows cut out exactly the no-signalling polytope.  Some of them are
    dependent: summing player j's rows over the other players' outputs
    (if any) gives differences of normalisation rows.
    """
    l = len(out_sizes)
    shape = tuple(out_sizes) + tuple(in_sizes)
    n_vars = int(np.prod(shape))
    n_in = int(np.prod(in_sizes))
    idx = np.arange(n_vars).reshape(shape)
    norm = np.zeros((n_in, n_vars))
    norm[np.arange(n_in)[:, None], idx.reshape(-1, n_in).T] = 1.0
    blocks = [norm]
    for j in range(l):
        if in_sizes[j] == 1:
            continue
        others = [k for k in range(l) if k != j]
        # axes (other inputs, other outputs, x_j, a_j): one row per leading index and x_j >= 1
        grid = idx.transpose([l + k for k in others] + others + [l + j, j]).reshape(-1, in_sizes[j], out_sizes[j])
        block = np.zeros((grid.shape[0], in_sizes[j] - 1, n_vars))
        r = np.arange(grid.shape[0])[:, None, None]
        k = np.arange(in_sizes[j] - 1)[None, :, None]
        block[r, k, grid[:, :1, :]] = 1.0
        block[r, k, grid[:, 1:, :]] = -1.0
        blocks.append(block.reshape(-1, n_vars))
    A = np.vstack(blocks)
    return A, np.concatenate([np.ones(n_in), np.zeros(A.shape[0] - n_in)])


def ns_game_value(game: GamePredicate, budget: int = 200_000) -> float:
    """Exact maximum winning probability over no-signalling correlations.

    Players with a single input are handled by an exact decomposition: a
    no-signalling box with an inputless player is precisely a mixture over
    that player's outputs of (weight x no-signalling box on the remaining
    players), so the linear objective is maximised by conditioning on the
    best output.  A sub-game is solved only if its cap, the weight
    ``sum_x p(x)`` of the inputs at which some answer wins, exceeds the
    best value so far: no correlation wins more than that.  Remaining
    games are solved by one LP of at most ``budget`` variables (an integer
    in [0, inf), checked first, before any sub-game is skipped or solved).
    """
    check_range("budget", budget, 0, math.inf, integer=True)
    l = game.players
    out_sizes = game.output_sizes
    in_sizes = game.input_sizes
    # the LP, if any, is over the players left once the inputless ones are gone
    lp_players = [k for k in range(l) if in_sizes[k] > 1]
    n_vars = math.prod(out_sizes[k] * in_sizes[k] for k in lp_players)
    if len(lp_players) >= 2 and n_vars > budget:
        raise BudgetExceededError(f"{n_vars} LP variables exceed budget {budget}")

    if l >= 2 and 1 in in_sizes:
        j = in_sizes.index(1)
        V = game.V
        best = 0.0
        p_rest = np.squeeze(game.p, axis=j)
        rest_inputs = tuple(game.inputs[k] for k in range(l) if k != j)
        rest_outputs = tuple(game.outputs[k] for k in range(l) if k != j)
        for e in range(out_sizes[j]):
            V_e = np.take(V, e, axis=j)
            V_e = np.squeeze(V_e, axis=(l - 1) + j)
            if float(np.sum(p_rest * V_e.any(axis=tuple(range(l - 1))))) <= best:
                continue
            sub = GamePredicate(inputs=rest_inputs, outputs=rest_outputs, p=p_rest, V=V_e)
            best = max(best, ns_game_value(sub, budget))
        return best

    if l == 1:
        V = game.V
        return float(sum(game.p[x] * np.max(V[(Ellipsis,) + x]) for x in np.ndindex(*in_sizes)))

    A, b = _ns_constraint_rows(out_sizes, in_sizes)
    # each winning entry scores p(x); entries at p(x) == 0 keep a +0.0 coefficient
    c = np.where(game.V & (game.p != 0.0), game.p, 0.0).reshape(-1)
    res = solve_lp(LinearProgram(c=c, A=A, senses=["="] * b.size, b=b, maximize=True))
    return float(res.value)


# ---------------------------------------------------------------------------
# efficiency (partition) bounds


@dataclass(frozen=True)
class PartitionBoundResult:
    eta: float
    eff: float
    variant: str
    relaxation: str
    certificate: Correlation


def _p_weighted(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``sum_x p[x] * rows[x]`` as a one-row matrix, accumulated in input
    order: the simplex pivots on these exact coefficients, and a BLAS
    product may sum in another order."""
    total = np.zeros((1, rows.shape[1]))
    for px, row in zip(p, rows):
        total[0] += px * row
    return total


def _lp_rows(
    p: np.ndarray, mass: np.ndarray, win: np.ndarray, eps: float, variant: str
) -> tuple[np.ndarray, np.ndarray]:
    """Check ``eps`` and ``variant``; return the mass and win rows that the
    efficiency LP of :func:`_efficiency_lp` has for ``variant``: the
    per-input rows, or their ``p``-weighted sum where the variant sums."""
    check_range("eps", eps, 0.0, 1.0)
    if variant not in VARIANTS:
        raise ValidationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    p = np.asarray(p, dtype=float).reshape(-1)
    if variant == "average":
        mass = _p_weighted(p, mass)
    if variant != "worst_case":
        win = _p_weighted(p, win)
    return mass, win


def _efficiency_lp(
    head: np.ndarray, head_rhs: np.ndarray, mass: np.ndarray, win: np.ndarray, eps: float
) -> tuple[float, np.ndarray]:
    """The abort-augmented efficiency LP shared by :func:`eff_ns` and
    :func:`eff_local`; returns eta (at least ``ETA_FLOOR``) and the column
    weights.

    The columns carry non-negative weights; ``head w = head_rhs`` fixes
    which weights are allowed.  Row x of the per-input mass (win) rows
    gives, per column, its probability of no abort (of no abort and a win)
    at input x, in the row-major order of ``p``; :func:`_lp_rows` turns
    them into the ``mass`` and ``win`` rows given here.  The LP maximises
    eta, the non-abort probability, subject to, per variant:

    * ``worst_case``: mass_x = eta and win_x >= (1 - eps) eta for every x;
    * ``tilde``: mass_x = eta for every x and
      sum_x p(x) win_x >= (1 - eps) eta;
    * ``average``: sum_x p(x) mass_x = eta and
      sum_x p(x) win_x >= (1 - eps) eta.

    Row layout over the columns followed by eta: the head rows (=), then
    the mass rows (=), then the win rows (>=), then the floor
    eta >= ``ETA_FLOOR``.
    """

    def with_eta(rows, coef):
        return np.hstack([rows, np.full((rows.shape[0], 1), coef)])

    n = head.shape[1]
    floor = np.zeros((1, n + 1))
    floor[0, -1] = 1.0
    A = np.vstack([with_eta(head, 0.0), with_eta(mass, -1.0), with_eta(win, -(1.0 - eps)), floor])
    b = np.concatenate([head_rhs, np.zeros(mass.shape[0] + win.shape[0]), [ETA_FLOOR]])
    senses = ["="] * (head.shape[0] + mass.shape[0]) + [">="] * (win.shape[0] + 1)
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = solve_lp(LinearProgram(c=c, A=A, senses=senses, b=b, maximize=True))
    return max(float(res.x[-1]), ETA_FLOOR), res.x[:n]


def _distinct_columns(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the first column of each group of bitwise-equal
    columns of ``rows``.

    Columns are compared by an exact key, sorted as one-dimensional arrays
    of uint64 words: rows holding only 0.0 and 1.0 are packed eight to a
    byte, any other row enters as its float64 bit patterns."""
    bits = rows.view(np.uint64)
    one = np.float64(1.0).view(np.uint64)
    binary = np.all((bits == 0) | (bits == one), axis=1)
    packed = np.packbits(bits[binary] == one, axis=0)
    words = np.zeros((rows.shape[1], -(-packed.shape[0] // 8) * 8), dtype=np.uint8)
    words[:, : packed.shape[0]] = packed.T
    keys = np.vstack([words.view(np.uint64).T, bits[~binary]])
    order = np.lexsort(keys)  # stable: equal keys stay in ascending index order
    ranked = keys[:, order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)
    return np.sort(order[first])


def eff_ns(game: GamePredicate, eps: float, variant: str = "worst_case") -> PartitionBoundResult:
    """Abort-augmented efficiency bound over the no-signalling polytope, a
    lower bound on the quantum quantity; ``eff = 1 / eta``.

    The efficiency LP of :func:`_efficiency_lp`, which defines the
    variants, over the entries of a correlation whose outputs gain one
    abort symbol per player; its head rows are the normalisation and
    no-signalling rows.  The certificate is that correlation.
    """
    out_sizes = game.output_sizes
    in_sizes = game.input_sizes
    shape = tuple(s + 1 for s in out_sizes) + in_sizes
    head, head_rhs = _ns_constraint_rows(shape[: game.players], in_sizes)
    n_q, n_in = head.shape[1], int(np.prod(in_sizes))
    # the non-abort entries, one row per input
    cols = np.arange(n_q).reshape(shape)[tuple(slice(s) for s in out_sizes)].reshape(-1, n_in).T
    rows = np.arange(n_in)[:, None]
    mass = np.zeros((n_in, n_q))
    mass[rows, cols] = 1.0
    win = np.zeros((n_in, n_q))
    win[rows, cols] = game.V.reshape(-1, n_in).T
    eta, q = _efficiency_lp(head, head_rhs, *_lp_rows(game.p, mass, win, eps, variant), eps)
    cert = Correlation(q=q.reshape(shape), players=game.players)
    return PartitionBoundResult(eta=eta, eff=1.0 / eta, variant=variant, relaxation="no_signalling", certificate=cert)


def eff_local(
    game: GamePredicate, eps: float, variant: str = "worst_case", budget: int = 10**6
) -> PartitionBoundResult:
    """Abort-augmented efficiency bound over local strategies, an upper
    bound on the quantum quantity; ``eff = 1 / eta``.

    The efficiency LP of :func:`_efficiency_lp`, which defines the
    variants, over the weights of the deterministic abort-augmented
    strategies (at most ``budget`` of them); its head row makes the
    weights sum to one.  Strategies with bitwise-equal LP columns share
    one column, the first in index order: eta, eff and the certificate are
    bitwise those of the LP over every strategy.  The certificate is the
    mixture's correlation.  ``budget`` is an integer in [0, inf), checked
    first.
    """
    check_range("budget", budget, 0, math.inf, integer=True)
    l = game.players
    out_sizes = game.output_sizes
    in_sizes = game.input_sizes
    aug_sizes = tuple(s + 1 for s in out_sizes)
    map_counts = tuple(aug_sizes[j] ** in_sizes[j] for j in range(l))
    n_d = math.prod(map_counts)
    if n_d > budget:
        raise BudgetExceededError(f"{n_d} deterministic abort-augmented strategies exceed budget {budget}")

    maps = [
        np.array(list(itertools.product(range(aug_sizes[j]), repeat=in_sizes[j])), dtype=np.int64)
        for j in range(l)
    ]

    def on_axes(a, j):
        """``a[d_j, x_j]`` laid on axes j and l + j of (d_1, ..., d_l, x_1, ..., x_l)."""
        shape = [1] * (2 * l)
        shape[j], shape[l + j] = a.shape
        return a.reshape(shape)

    # player j's output under its d_j-th map at input x_j, and x_j itself
    outs = [on_axes(maps[j], j) for j in range(l)]
    inputs = [on_axes(np.arange(in_sizes[j])[None, :], j) for j in range(l)]
    non_abort = tuple(slice(s) for s in out_sizes)
    kept = np.zeros(aug_sizes, dtype=bool)
    kept[non_abort] = True
    won = np.zeros(aug_sizes + in_sizes, dtype=bool)
    won[non_abort] = game.V
    mass = kept[tuple(outs)].reshape(n_d, -1).T.astype(float)
    win = won[tuple(outs + inputs)].reshape(n_d, -1).T.astype(float)
    mass, win = _lp_rows(game.p, mass, win, eps, variant)
    # Strategies whose LP columns are bitwise equal share one column: the
    # first of a group is the one Bland's rule can pick, and the columns
    # after it stay equal to it and never enter, so the simplex makes the
    # same pivots, with the same arithmetic, as on the full list.
    cols = _distinct_columns(np.vstack([mass, win]))
    eta, w_cols = _efficiency_lp(np.ones((1, cols.size)), np.ones(1), mass[:, cols], win[:, cols], eps)
    w = np.zeros(n_d)
    w[cols] = w_cols

    # the mixture's correlation; each entry sums its strategies d in ascending order
    q = np.zeros(aug_sizes + in_sizes)
    ds = np.flatnonzero(w > 1e-12)
    d_idx = np.unravel_index(ds, map_counts)
    xs = np.indices(in_sizes).reshape(l, -1)
    np.add.at(q, tuple(maps[j][d_idx[j][:, None], xs[j]] for j in range(l)) + tuple(xs), w[ds][:, None])
    cert = Correlation(q=q, players=l)
    return PartitionBoundResult(eta=eta, eff=1.0 / eta, variant=variant, relaxation="local", certificate=cert)


# ---------------------------------------------------------------------------
# gamma2-type quantities


@dataclass(frozen=True)
class Gamma2Result:
    value: float
    kind: str  # "exact_small" or "lower_bound"
    sign_matrix: np.ndarray | None = None
    upper: float | None = None  # gamma2_star: certified upper end; gamma2_alpha: None


def _gamma2_two_rows(A: np.ndarray) -> float:
    """Exact optimum for a 2-row matrix: one gauge-fixed angle, fine grid
    plus local refinement."""
    c0, c1 = A[0], A[1]
    r = c0 * c0 + c1 * c1
    s = 2.0 * c0 * c1

    def f(thetas: np.ndarray) -> np.ndarray:
        vals = r[None, :] + s[None, :] * np.cos(thetas)[:, None]
        return np.sqrt(np.clip(vals, 0.0, None)).sum(axis=1)

    thetas = np.arange(0.0, math.pi + 1e-9, 1e-3)
    vals = f(thetas)
    k = int(np.argmax(vals))
    best_t = thetas[k]
    h = 1e-3
    for _ in range(4):
        lo = max(0.0, best_t - h)
        hi = min(math.pi, best_t + h)
        grid = np.linspace(lo, hi, 201)
        vals = f(grid)
        k = int(np.argmax(vals))
        best_t = grid[k]
        h = (hi - lo) / 100.0
    return float(f(np.array([best_t]))[0])


def _unit_rows(W: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(W, axis=1)
    out = np.zeros_like(W)
    ok = norms > 1e-300
    out[ok] = W[ok] / norms[ok, None]
    out[~ok, 0] = 1.0
    return out


def _gamma2_alternating(A: np.ndarray) -> tuple[float, float]:
    """(lower, upper) on gamma2*(A), A k x n with k <= n, by alternating
    optimisation from U = I.  ``lower`` is the value of U with its best V.
    ``upper`` is the SDP dual sum(w) at w = (||(A V)_x||, ||(A^T U)_y||) / 2,
    made feasible for Diag(w) >= [[0, A/2], [A^T/2, 0]] by the slack's most
    negative eigenvalue (Linial-Shraibman; Lee-Shraibman-Spalek), and never
    below ``lower``.  Stops at a relative gap of _GAMMA2_GAP, or with the
    bracket open after _GAMMA2_CAP iterations."""
    k, n = A.shape
    B = np.block([[np.zeros((k, k)), A / 2.0], [A.T / 2.0, np.zeros((n, n))]])
    U = np.eye(k)
    for _ in range(_GAMMA2_CAP):
        AV = A @ _unit_rows(A.T @ U)
        U = _unit_rows(AV)
        cols = np.linalg.norm(A.T @ U, axis=1)
        w = 0.5 * np.concatenate([np.linalg.norm(AV, axis=1), cols])
        shift = min(float(np.linalg.eigvalsh(np.diag(w) - B)[0]), 0.0)
        lower = float(np.sum(cols))
        upper = max(float(np.sum(w)) - shift * (k + n), lower)
        if upper - lower <= _GAMMA2_GAP * upper:
            break
    return lower, upper


def gamma2_star(M: np.ndarray) -> Gamma2Result:
    """max sum_xy M[x,y] <u_x, v_y> over unit vectors.

    Vectors of dimension min(m, n) suffice.  Exact for min(m, n) <= 2
    (closed form / gauge-fixed angle grid refined to 1e-7), where
    ``upper`` equals ``value``.  Otherwise ``value`` and ``upper`` are the
    ends of the duality bracket of ``_gamma2_alternating``, closed to a
    relative gap of ``_GAMMA2_GAP`` unless its iteration cap is reached.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0 or not np.all(np.isfinite(M)):
        raise ValidationError("matrix must be 2-d, non-empty and finite")
    A = M if M.shape[0] <= M.shape[1] else M.T
    k = A.shape[0]
    if k <= 2:
        value = float(np.sum(np.abs(A))) if k == 1 else _gamma2_two_rows(A)
        return Gamma2Result(value=value, kind="exact_small", upper=value)
    lower, upper = _gamma2_alternating(A)
    return Gamma2Result(value=lower, kind="lower_bound", upper=upper)


def gamma2_alpha(F: np.ndarray, p: np.ndarray, alpha: float) -> Gamma2Result:
    """Best ratio ((alpha+1) <F, F' o p> - (alpha-1)) / (2 gamma2*(F' o p))
    over all sign matrices F' (exhaustive for |X||Y| <= 12).

    gamma2* does not change when a row or a column of its matrix flips
    sign, so the 2^(mn) sign matrices of an m x n table fall into
    2^((m-1)(n-1)) classes and gamma2* is solved once per class, on the
    class's canonical form (rows flipped until column 0 is +, then columns
    flipped until row 0 is +).  The correlations, the class of each
    matrix and the ratios form one table over all 2^(mn) matrices; the
    first maximum in the order of ``bits`` (bit k set: cell k is -1) wins.
    Each class divides by its gamma2* ``upper``, so the value is a lower
    bound on the best ratio (``upper`` of the result is None).  Matrices
    whose denominator is at most 1e-15 are skipped.  The result is
    ``exact_small`` when every gamma2* solve is exact (min(m, n) <= 2).
    More than 12 cells raise ``BudgetExceededError`` before any work.
    """
    F = np.asarray(F, dtype=float)
    p = np.asarray(p, dtype=float)
    if F.shape != p.shape or F.ndim != 2:
        raise DimensionMismatchError("F and p must be 2-d matrices of the same shape")
    if not np.all(np.isin(F, (-1.0, 1.0))):
        raise ValidationError("F must be a sign matrix (entries +-1)")
    check_distribution("p", p, neg_tol=0.0, sum_tol=1e-9)
    check_range("alpha", alpha, 1.0, math.inf)
    cells = F.size
    if cells > 12:
        raise BudgetExceededError(f"{cells} cells: sign-matrix enumeration capped at 12")
    m, n = F.shape
    bits = np.arange(1 << cells)
    S = np.where((bits[:, None] >> np.arange(cells)) & 1, -1.0, 1.0)
    corr = np.sum(F.reshape(-1) * S * p.reshape(-1), axis=1)
    canon = S.reshape(-1, m, n)
    canon = canon * canon[:, :, :1]
    canon = canon * canon[:, :1, :]
    cls = (canon[:, 1:, 1:].reshape(len(S), -1) < 0) @ (1 << np.arange((m - 1) * (n - 1)))
    _, first = np.unique(cls, return_index=True)
    gs = [gamma2_star(canon[k] * p) for k in first]
    denom = 2.0 * np.array([g.upper for g in gs])[cls]
    kind = "exact_small" if all(g.kind == "exact_small" for g in gs) else "lower_bound"
    ok = denom > 1e-15
    cand = np.full(len(S), -math.inf)
    cand[ok] = ((alpha + 1.0) * corr[ok] - (alpha - 1.0)) / denom[ok]
    k = int(np.argmax(cand))
    sign = S[k].reshape(F.shape).copy() if ok[k] else None
    return Gamma2Result(value=float(cand[k]), kind=kind, sign_matrix=sign)


# ---------------------------------------------------------------------------
# sandwich check for XOR predicates


@dataclass(frozen=True)
class Thm2Check:
    lower: float
    upper: float
    holds: bool
    alpha: float | None


def xor_game(f: np.ndarray, p: np.ndarray) -> GamePredicate:
    """Two-player binary-output game: win iff a XOR b = f(x, y)."""
    f = np.asarray(f)
    p = np.asarray(p, dtype=float)
    if f.shape != p.shape or f.ndim != 2:
        raise DimensionMismatchError("f and p must be 2-d tables of the same shape")
    nx, ny = f.shape
    V = np.zeros((2, 2, nx, ny), dtype=bool)
    for a, b in np.ndindex(2, 2):
        V[a, b] = (a ^ b) == (f != 0)
    return GamePredicate(
        inputs=(tuple(range(nx)), tuple(range(ny))),
        outputs=((0, 1), (0, 1)),
        p=p,
        V=V,
        name="xor",
    )


def check_thm2(f: np.ndarray, p: np.ndarray, eps: float) -> Thm2Check:
    """Sandwich check for XOR predicates: the sign-matrix ratio lower bound
    against the local partition upper bound at error eps.

    ``lower = (1 - 2 eps) * gamma2_alpha(F, p, (1+2 eps)/(1-2 eps))`` with
    ``F = (-1)^f`` (zero at eps = 1/2); ``upper = eff_local(., eps,
    "average")``.  ``holds`` reports lower <= upper + 1e-6.
    """
    f = np.asarray(f)
    p = np.asarray(p, dtype=float)
    check_range("eps", eps, 0.0, 0.5)
    game = xor_game(f, p)
    upper = eff_local(game, eps, variant="average").eff
    if eps == 0.5:
        return Thm2Check(lower=0.0, upper=upper, holds=0.0 <= upper + 1e-6, alpha=None)
    F = np.where(f != 0, -1.0, 1.0)
    alpha = (1.0 + 2.0 * eps) / (1.0 - 2.0 * eps)
    lower = (1.0 - 2.0 * eps) * gamma2_alpha(F, p, alpha).value
    return Thm2Check(lower=lower, upper=upper, holds=lower <= upper + 1e-6, alpha=alpha)
