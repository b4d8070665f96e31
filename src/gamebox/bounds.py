"""Linear-programming bounds for nonlocal games.

Contents:

* one self-contained LP solver, numpy only: Mehrotra's predictor-corrector
  interior-point method on the homogeneous self-dual embedding, with
  dense normal equations.  Every answer comes with one dual per row and
  passes ``check_lp_certificate`` (residuals and duality gap within
  1e-9) or is refused.  Each result carries deterministic ``stats``
  (size, iterations, checked gap, backend);
* ``ns_game_value`` -- maximum winning probability over the
  no-signalling polytope, within the LP check's 1e-9 and cut to [0, 1]
  (an inputless player's outputs split it into sub-games; a sub-game
  whose cap cannot beat the best so far by more than that is not solved);
* ``eff_ns`` / ``eff_local`` -- "efficiency" partition bounds: the players
  may abort (a per-player extra output), and we maximise the probability
  eta of not aborting subject to winning with conditional probability at
  least ``1 - eps``; ``eff = 1/eta``.  Both relaxations solve one LP,
  built by ``_efficiency_lp`` (which defines the ``worst_case``, ``tilde``
  and ``average`` counting variants), over different columns: the entries
  of a no-signalling correlation give a lower bound on the quantum
  quantity, the weights of a mixture of deterministic strategies an upper
  bound (one column per group of strategies with equal columns, found
  from one exact base-3 integer key per strategy, so that no float table
  over all strategies is built and ``repeat(chsh, 2)`` runs).  Its
  rows are the head rows that fix the column set (no-signalling, or
  weights summing to one), then the mass rows, then the win rows; eta
  is reported within [``ETA_FLOOR``, 1], and at the floor ``eff_ns``
  reports ``1 / ETA_FLOOR`` (still a lower bound) and ``eff_local``
  ``inf`` (the only upper bound it can give);
* ``gamma2_star`` / ``gamma2_alpha`` -- factorisation-norm quantities over
  unit vectors and sign matrices: exact for one row; past that a
  certified bracket (an SDP dual bound) within 1e-7 relative;
* ``check_thm2`` -- sandwich check that the gamma2-based lower bound stays
  below the local partition upper bound for XOR predicates.
"""

from __future__ import annotations

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

_LP_GAP = 1e-9  # largest checked residual or duality gap that solve_lp returns
_IPM_TOL = 1e-11  # relative residuals and gap at which the interior-point iterations stop
_IPM_CAP = 200  # interior-point iterations
_GAMMA2_GAP = 1e-7  # relative duality gap at which a gamma2_star solve stops
_GAMMA2_CAP = 10_000  # iterations of a gamma2_star solve
# The no-signalling LPs hold their rows dense, R x V float64s for R rows
# and V variables, so each caps V before any row is built (until the rows
# are stored sparse):
# - eff_ns: mse's 16 650 variables would take ~650 MB;
# - ns_game_value: chsh^4's 65 536 variables would take 3.64 GiB (7456
#   rows), while magic_square^2's 20 736 (2241 rows) solves in ~11 s at a
#   1.57 GB peak on one BLAS thread.
_NS_LP_VARIABLE_LIMIT = 10_000  # eff_ns
_NS_VALUE_VARIABLE_LIMIT = 25_000  # ns_game_value
_LOCAL_STRATEGY_LIMIT = 10**6  # eff_local's deterministic abort-augmented strategies
_KEY_DIGITS = 39  # base-3 digits in one int64 word of an eff_local strategy key


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
    """The optimum ``value``, a primal point ``x`` and one dual ``y`` per row
    of ``A`` as given, checked by :func:`check_lp_certificate`.

    ``y`` is the dual of the program as stated: at the optimum ``c.x`` equals
    ``b.y`` plus ``ub`` times the positive part of the reduced costs
    ``c - A^T y`` (``c`` negated for a minimisation).  ``stats`` says what
    the solver did, deterministically: ``rows`` and ``cols`` (the shape of
    ``A`` as given), ``iterations``, ``gap`` (the checked duality gap) and
    ``backend``.
    """

    value: float
    x: np.ndarray
    y: np.ndarray
    stats: dict


def _independent_rows(A: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``A`` that are not linear combinations of
    earlier rows, by a row-order Cholesky factorisation of the Gram matrix
    ``G = A A^T``: row i is kept when its residual ``d[i]`` (its squared
    distance from the span of the rows kept so far) exceeds
    ``1e-9 G[i, i]``; the new column of the factor then updates every
    residual."""
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
    return np.array(keep, dtype=np.int64)


def _factors(M: np.ndarray) -> bool:
    """Whether the Cholesky factorisation of ``M`` succeeds with every
    squared pivot above ``1e-9`` of its diagonal entry (the test of
    :func:`_independent_rows`)."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.diag(L) ** 2 > 1e-9 * np.diag(M)))


def _mehrotra(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """min c.x  s.t.  A x = b, x >= 0, by Mehrotra's predictor-corrector
    method on the homogeneous self-dual embedding (Xu, Hung and Ye 1996;
    Andersen and Andersen 2000), with dense normal equations.

    Returns ``(status, x, y, iterations)``.  Status ``optimal``: the
    relative residuals of ``A x = b`` and ``A^T y + z = c`` and the
    relative gap ``c.x - b.y`` are within ``_IPM_TOL``.  Status
    ``infeasible``: mu is below ``_IPM_TOL`` with tau below kappa (tau goes
    to 0 when the primal or the dual program is infeasible, kappa when both
    are feasible).  Status ``stalled``: after ``_IPM_CAP``
    iterations, or once mu is below ``_IPM_TOL`` and a step made the
    residuals worse (rounding in the normal equations has taken over), the
    iterate with the smallest residuals so far.  Returns None, before any
    step, when the first normal matrix ``A A^T`` does not factor: ``A`` has
    dependent rows.
    """
    m, n = A.shape
    x, z, y = np.ones(n), np.ones(n), np.zeros(m)
    tau = kappa = 1.0
    b_scale = 1.0 + np.abs(b).max(initial=0.0)
    c_scale = 1.0 + np.abs(c).max(initial=0.0)
    best = (math.inf,)
    As = np.empty_like(A)  # A scaled by sqrt(x / z) column-wise, rewritten in place
    for it in range(_IPM_CAP + 1):
        r_p = tau * b - A @ x
        r_d = tau * c - A.T @ y - z
        cx, by = c @ x, b @ y
        r_g = cx - by + kappa
        mu = (x @ z + tau * kappa) / (n + 1)
        err = max(np.abs(r_p).max(initial=0.0) / (b_scale * tau), np.abs(r_d).max(initial=0.0) / (c_scale * tau),
                  abs(cx - by) / (tau + abs(cx)))
        if err <= _IPM_TOL:
            return "optimal", x / tau, y / tau, it
        if mu <= _IPM_TOL and tau < kappa:
            return "infeasible", x / tau, y / tau, it
        if it == _IPM_CAP or (mu <= _IPM_TOL and err > best[0]):
            _, x, y, tau, it = best
            return "stalled", x / tau, y / tau, it
        if err < best[0]:
            best = (err, x, y, tau, it)
        d = x / z
        np.multiply(A, np.sqrt(d), out=As)
        M = As @ As.T
        if it == 0 and not _factors(M):
            return None

        def solve(rhs):
            try:
                return np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:  # singular near a degenerate optimum
                return np.linalg.lstsq(M, rhs, rcond=None)[0]

        def direction(eta, r_xz, r_tk, v=None):
            """Newton step that removes the share ``eta`` of the residuals
            and moves x z and tau kappa by ``r_xz`` and ``r_tk``; ``v``
            solves its normal equations, ``q`` those of the tau column."""
            r1 = eta * r_d - r_xz / x
            if v is None:
                v = solve(eta * r_p + A @ (d * r1))
            u = d * (A.T @ v - r1)
            dtau = (eta * r_g + r_tk / tau + c @ u - b @ v) / tau_denom
            dx = u + p * dtau
            return dx, v + q * dtau, (r_xz - z * dx) / x, dtau, (r_tk - kappa * dtau) / tau

        def longest(dx, dz, dtau, dk):
            """The largest step in (0, 1] that keeps x, z, tau and kappa >= 0."""
            return 1.0 / max(1.0, (-dx / x).max(initial=0.0), (-dz / z).max(initial=0.0), -dtau / tau, -dk / kappa)

        # predictor (affine scaling); the tau column's normal equations are solved with it
        q, v = solve(np.column_stack([b + A @ (d * c), r_p + A @ (d * (r_d + z))])).T
        p = d * (A.T @ q - c)
        tau_denom = kappa / tau - c @ p + b @ q
        dx, dy, dz, dtau, dk = direction(1.0, -x * z, -tau * kappa, v)
        gone = 1.0 - longest(dx, dz, dtau, dk)
        g = gone * gone * min(0.1, gone)  # the centring weight
        # corrector: centre towards g mu and cancel the predictor's second-order term
        dx, dy, dz, dtau, dk = direction(1.0 - g, g * mu - x * z - dx * dz, g * mu - tau * kappa - dtau * dk)
        step = 0.99995 * longest(dx, dz, dtau, dk)
        x, y, z = x + step * dx, y + step * dy, z + step * dz
        tau, kappa = tau + step * dtau, kappa + step * dk


def check_lp_certificate(lp: LinearProgram, x: np.ndarray, y: np.ndarray) -> dict:
    """How far ``x`` and ``y`` (one dual per row) are from an optimal
    primal-dual pair of ``lp``, each measure 0 at one.

    In the maximisation form (``c`` and ``y`` negated for a minimisation):
    ``primal_residual`` is the largest violation of a row, of ``x >= 0`` or
    of ``x <= ub``; ``dual_sign_error`` the largest dual of the wrong sign
    (``<=`` rows need ``y >= 0``, ``>=`` rows ``y <= 0``);
    ``reduced_cost_violation`` the largest positive reduced cost
    ``(c - A^T y)_j`` of a variable with no upper bound; and ``gap`` the
    dual bound ``b.y + sum_j ub_j max((c - A^T y)_j, 0)`` minus ``c.x``.
    """
    s = 1.0 if lp.maximize else -1.0
    A = np.asarray(lp.A, dtype=float)
    b = np.asarray(lp.b, dtype=float).reshape(-1)
    c = s * np.asarray(lp.c, dtype=float).reshape(-1)
    y = s * np.asarray(y, dtype=float)
    ub = np.full(c.size, np.inf) if lp.upper_bounds is None else np.asarray(lp.upper_bounds, dtype=float).reshape(-1)
    le, ge = [np.array([t == sense for t in lp.senses], dtype=bool) for sense in ("<=", ">=")]
    excess = A @ x - b
    excess = np.where(le, excess, np.where(ge, -excess, np.abs(excess)))
    primal = max(excess.max(initial=0.0), (-x).max(initial=0.0), (x - ub).max(initial=0.0))
    sign = np.where(le, -y, np.where(ge, y, 0.0)).max(initial=0.0)
    reduced = np.maximum(c - A.T @ y, 0.0)
    bounded = np.isfinite(ub)
    return {
        "primal_residual": float(primal),
        "dual_sign_error": float(sign),
        "reduced_cost_violation": float(reduced[~bounded].max(initial=0.0)),
        "gap": float(b @ y + ub[bounded] @ reduced[bounded] - c @ x),
    }


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve ``lp`` by the interior-point method of :func:`_mehrotra` and
    check the answer with :func:`check_lp_certificate`.

    Variables are non-negative; an upper bound of ``+inf`` bounds nothing,
    a finite one becomes a ``<=`` row.  Inequality rows gain a slack
    variable.  Dependent rows are looked for only when the first normal
    matrix does not factor; they are then left out, after checking that
    their right-hand sides agree with the rows kept, and their duals are 0.

    Raises ``ValidationError`` for a non-finite ``c``, ``A`` or ``b`` or a
    NaN or ``-inf`` upper bound, before any work; ``LPInfeasibleError`` or
    ``LPUnboundedError`` on the two failure modes (an LP whose embedding
    reports either is solved once more with ``c = 0``: it is infeasible if
    that fails too); ``CapabilityError`` rather than return an answer whose
    checked residuals or duality gap exceed ``_LP_GAP``.
    """
    A = np.asarray(lp.A, dtype=float)
    b = np.asarray(lp.b, dtype=float).reshape(-1)
    c = np.asarray(lp.c, dtype=float).reshape(-1)
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
    m, n = b.size, c.size
    bounded = np.zeros(0, dtype=np.int64)
    if lp.upper_bounds is not None:
        ub = np.asarray(lp.upper_bounds, dtype=float).reshape(-1)
        if ub.size != n:
            raise DimensionMismatchError("one upper bound per variable required")
        if np.any(np.isnan(ub) | (ub == -np.inf)):
            raise ValidationError("upper bounds must be numbers or +inf (no bound)")
        bounded = np.flatnonzero(np.isfinite(ub))
        b = np.concatenate([b, ub[bounded]])
        senses += ["<="] * bounded.size

    # standard form, built in one array: the rows, one row x_j <= ub_j per
    # finite bound, a slack column per inequality row; min (-c).x for max c.x
    slack = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[s] for s in senses])
    ineq = np.flatnonzero(slack)
    A_std = np.zeros((b.size, n + ineq.size))
    A_std[:m, :n] = A
    A_std[m + np.arange(bounded.size), bounded] = 1.0
    A_std[ineq, n + np.arange(ineq.size)] = slack[ineq]
    A = A_std
    c_std = np.concatenate([-c if lp.maximize else c, np.zeros(ineq.size)])
    rows = np.arange(b.size)
    out = _mehrotra(A, b, c_std)
    if out is None:
        rows = _independent_rows(A)
        drop = np.setdiff1d(np.arange(b.size), rows)
        coef = np.linalg.lstsq(A[rows].T, A[drop].T, rcond=None)[0]
        if np.abs(b[rows] @ coef - b[drop]).max(initial=0.0) > _LP_GAP * (1.0 + np.abs(b).max()):
            raise LPInfeasibleError("infeasible: dependent equality rows disagree")
        out = _mehrotra(A[rows], b[rows], c_std)
    status, x, y_std, iterations = out
    if status == "infeasible":
        if _mehrotra(A[rows], b[rows], np.zeros_like(c_std))[0] != "optimal":
            raise LPInfeasibleError("infeasible: the interior-point embedding found no feasible point")
        raise LPUnboundedError("objective unbounded over the feasible region")
    y = np.zeros(b.size)
    y[rows] = -y_std if lp.maximize else y_std
    x, y = x[:n], y[:m]
    check = check_lp_certificate(lp, x, y)
    if max(check["primal_residual"], check["dual_sign_error"], check["reduced_cost_violation"],
           abs(check["gap"])) > _LP_GAP:
        raise CapabilityError(f"interior-point answer ({status} after {iterations} iterations) fails its check: {check}")
    stats = {"rows": m, "cols": n, "iterations": iterations, "gap": check["gap"], "backend": "mehrotra"}
    return LPResult(value=float(c @ x), x=x, y=y, stats=stats)


# ---------------------------------------------------------------------------
# no-signalling game value


def _ns_constraint_rows(out_sizes, in_sizes) -> tuple[np.ndarray, np.ndarray]:
    """Normalisation + per-player no-signalling equality rows ``A q = b``
    over the entries of ``q[a_1, ..., a_l, x_1, ..., x_l]`` (row-major),
    of full row rank; ``b`` is ones on the normalisation rows, then zeros.

    First one normalisation row per input x.  Then, for each player j with
    more than one input, the rows equating j's marginal at x_j >= 1 with
    the one at x_j = 0, one per (other inputs x_-j, other outputs a_-j,
    x_j) in row-major order; these cut out the no-signalling polytope, as
    per-player marginal conditions imply every subset marginal condition.
    Of them only those are written where (a) some other player answers
    below its last output and (b) every earlier player i < j at its last
    output has x_i = 0: the rows a row-order walk keeps, a row being kept
    unless it combines the rows before it.  A row failing (a) is a
    difference of normalisation rows minus j's rows at the other a_-j.  Up
    to rows with more players below their last output, a row equates the
    marginal of the players S below their last output at two inputs that
    differ in x_j only, an edge of the grid of the inputs outside S; (b)
    keeps the spanning tree of that grid that the walk finds first.
    """
    l = len(out_sizes)
    shape = tuple(out_sizes) + tuple(in_sizes)
    n_in = math.prod(in_sizes)
    idx = np.arange(math.prod(shape)).reshape(shape)
    top = np.array(out_sizes) - 1  # each player's last output
    grids = []
    for j in range(l):
        if in_sizes[j] == 1:
            continue
        others = [k for k in range(l) if k != j]
        # axes (other inputs, other outputs, x_j, a_j): one row per leading index and x_j >= 1
        grid = idx.transpose([l + k for k in others] + others + [l + j, j])
        keep = np.ones(grid.shape[:-2], dtype=bool)
        keep[(Ellipsis,) + tuple(top[others])] = False  # (a): every other player at its last output
        for i in range(j):  # (b): earlier player i (axes i and l - 1 + i) at its last output, input >= 1
            at = [slice(None)] * (2 * l - 2)
            at[i], at[l - 1 + i] = slice(1, None), top[i]
            keep[tuple(at)] = False
        grids.append(grid[keep])
    A = np.zeros((n_in + sum(g.shape[0] * (g.shape[1] - 1) for g in grids), idx.size))
    A[np.arange(n_in)[:, None], idx.reshape(-1, n_in).T] = 1.0
    start = n_in
    for g in grids:
        r = start + np.arange(g.shape[0] * (g.shape[1] - 1)).reshape(g.shape[0], g.shape[1] - 1, 1)
        A[r, g[:, :1]] = 1.0
        A[r, g[:, 1:]] = -1.0
        start += r.size
    return A, np.concatenate([np.ones(n_in), np.zeros(A.shape[0] - n_in)])


def ns_game_value(game: GamePredicate) -> float:
    """Maximum winning probability over no-signalling correlations, within
    the checked 1e-9 duality gap of its LP.

    Players with a single input are handled by an exact decomposition: a
    no-signalling box with an inputless player is precisely a mixture over
    that player's outputs of (weight x no-signalling box on the remaining
    players), so the linear objective is maximised by conditioning on the
    best output.  A sub-game is solved only if its cap, the weight
    ``sum_x p(x)`` of the inputs at which some answer wins, exceeds the
    best value so far by more than that gap: no correlation wins more
    than the cap.  Remaining
    games are solved by one LP of at most ``_NS_VALUE_VARIABLE_LIMIT``
    variables (checked first, before any sub-game is skipped or solved
    and before any row is built), whose value is cut to [0, 1], a
    probability, when the interior-point answer lies a rounding error
    outside.
    """
    l = game.players
    out_sizes = game.output_sizes
    in_sizes = game.input_sizes
    # the LP, if any, is over the players left once the inputless ones are gone
    lp_players = [k for k in range(l) if in_sizes[k] > 1]
    n_vars = math.prod(out_sizes[k] * in_sizes[k] for k in lp_players)
    if len(lp_players) >= 2 and n_vars > _NS_VALUE_VARIABLE_LIMIT:
        raise BudgetExceededError(f"{n_vars} LP variables exceed the limit {_NS_VALUE_VARIABLE_LIMIT}")

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
            if float(np.sum(p_rest * V_e.any(axis=tuple(range(l - 1))))) <= best + _LP_GAP:
                continue
            sub = GamePredicate(inputs=rest_inputs, outputs=rest_outputs, p=p_rest, V=V_e)
            best = max(best, ns_game_value(sub))
        return best

    if l == 1:
        V = game.V
        return float(sum(game.p[x] * np.max(V[(Ellipsis,) + x]) for x in np.ndindex(*in_sizes)))

    A, b = _ns_constraint_rows(out_sizes, in_sizes)
    # each winning entry scores p(x); entries at p(x) == 0 keep a +0.0 coefficient
    c = np.where(game.V & (game.p != 0.0), game.p, 0.0).reshape(-1)
    res = solve_lp(LinearProgram(c=c, A=A, senses=["="] * b.size, b=b, maximize=True))
    return min(max(float(res.value), 0.0), 1.0)


# ---------------------------------------------------------------------------
# efficiency (partition) bounds


@dataclass(frozen=True)
class PartitionBoundResult:
    eta: float
    eff: float
    variant: str
    relaxation: str
    certificate: Correlation


def _check_eps_variant(eps: float, variant: str) -> None:
    """The checks :func:`eff_ns` and :func:`eff_local` make first, before
    any rows or strategy keys are built."""
    check_range("eps", eps, 0.0, 1.0)
    if variant not in VARIANTS:
        raise ValidationError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _lp_rows(p: np.ndarray, mass: np.ndarray, win: np.ndarray, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """The mass and win rows that the efficiency LP of
    :func:`_efficiency_lp` has for ``variant``: the per-input rows, or
    their ``p``-weighted sum where the variant sums."""
    p = np.asarray(p, dtype=float).reshape(1, -1)
    if variant == "average":
        mass = p @ mass
    if variant != "worst_case":
        win = p @ win
    return mass, win


def _efficiency_lp(
    head: np.ndarray, head_rhs: np.ndarray, mass: np.ndarray, win: np.ndarray, eps: float
) -> tuple[float, np.ndarray]:
    """The abort-augmented efficiency LP shared by :func:`eff_ns` and
    :func:`eff_local`; returns eta, raised to ``ETA_FLOOR`` if below it and
    cut to 1 (a probability) if the interior-point answer lies a rounding
    error above, and the column weights.

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
    the mass rows (=), then the win rows (>=).  An input that no answer
    wins forces eta = 0 under ``worst_case``, reported at the floor.
    """
    n, k = head.shape[1], head.shape[0] + mass.shape[0]
    A = np.zeros((k + win.shape[0], n + 1))
    np.concatenate([head, mass, win], out=A[:, :n])
    A[head.shape[0] : k, n] = -1.0
    A[k:, n] = -(1.0 - eps)
    b = np.concatenate([head_rhs, np.zeros(A.shape[0] - head.shape[0])])
    senses = ["="] * k + [">="] * win.shape[0]
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = solve_lp(LinearProgram(c=c, A=A, senses=senses, b=b, maximize=True))
    return min(max(float(res.x[-1]), ETA_FLOOR), 1.0), res.x[:n]


def _first_of_each(keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the first column of each group of equal columns
    of the integer array ``keys`` (one key word per row)."""
    order = np.lexsort(keys)  # stable: equal keys stay in ascending index order
    ranked = keys[:, order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)
    return np.sort(order[first])


def _distinct_columns(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the first column of each group of bitwise-equal
    columns of ``rows``.

    Columns are compared by an exact key, sorted as one-dimensional arrays
    of uint64 words: rows holding only 0.0 and 1.0 are packed eight to a
    byte, any other row enters as its float64 bit patterns."""
    bits = rows.view(np.uint64)
    is_one = bits == np.float64(1.0).view(np.uint64)
    binary = np.all(is_one | (bits == 0), axis=1)
    packed = np.packbits(is_one[binary], axis=0)
    words = np.zeros((rows.shape[1], -(-packed.shape[0] // 8) * 8), dtype=np.uint8)
    words[:, : packed.shape[0]] = packed.T
    return _first_of_each(np.vstack([words.view(np.uint64).T, bits[~binary]]))


def eff_ns(game: GamePredicate, eps: float, variant: str = "worst_case") -> PartitionBoundResult:
    """Abort-augmented efficiency bound over the no-signalling polytope, a
    lower bound on the quantum quantity; ``eff = 1 / eta``.

    The efficiency LP of :func:`_efficiency_lp`, which defines the
    variants, over the entries of a correlation whose outputs gain one
    abort symbol per player; its head rows are the normalisation and
    no-signalling rows.  The certificate is that correlation.  ``eps`` (in
    [0, 1]) and ``variant`` are checked first, then the LP's variable
    count, counted as :func:`ns_game_value` counts them, against
    ``_NS_LP_VARIABLE_LIMIT`` before any row is built.
    """
    _check_eps_variant(eps, variant)
    out_sizes = game.output_sizes
    in_sizes = game.input_sizes
    shape = tuple(s + 1 for s in out_sizes) + in_sizes
    n_vars = math.prod(shape)
    if n_vars > _NS_LP_VARIABLE_LIMIT:
        raise BudgetExceededError(f"{n_vars} LP variables exceed the limit {_NS_LP_VARIABLE_LIMIT}")
    head, head_rhs = _ns_constraint_rows(shape[: game.players], in_sizes)
    n_q, n_in = head.shape[1], int(np.prod(in_sizes))
    # the non-abort entries, one row per input
    cols = np.arange(n_q).reshape(shape)[tuple(slice(s) for s in out_sizes)].reshape(-1, n_in).T
    rows = np.arange(n_in)[:, None]
    mass = np.zeros((n_in, n_q))
    mass[rows, cols] = 1.0
    win = np.zeros((n_in, n_q))
    win[rows, cols] = game.V.reshape(-1, n_in).T
    eta, q = _efficiency_lp(head, head_rhs, *_lp_rows(game.p, mass, win, variant), eps)
    cert = Correlation(q=q.reshape(shape), players=game.players)
    return PartitionBoundResult(eta=eta, eff=1.0 / eta, variant=variant, relaxation="no_signalling", certificate=cert)


def eff_local(game: GamePredicate, eps: float, variant: str = "worst_case") -> PartitionBoundResult:
    """Abort-augmented efficiency bound over local strategies, an upper
    bound on the quantum quantity; ``eff = 1 / eta``.

    The efficiency LP of :func:`_efficiency_lp`, which defines the
    variants, over the weights of the deterministic abort-augmented
    strategies (at most ``_LOCAL_STRATEGY_LIMIT`` of them); its head row
    makes the weights sum to one.  Strategies with bitwise-equal LP columns share
    one column, the first in index order, which leaves the LP's optimum
    unchanged; :func:`_local_columns` finds them from one exact integer
    key per strategy, so no float table over all strategies is built
    (``repeat(chsh, 2)``, 390 625 strategies, takes well under a second).
    The certificate is the mixture's correlation.  ``eps`` (in [0, 1]) and
    ``variant`` are checked first, then the strategy count against
    ``_LOCAL_STRATEGY_LIMIT`` before any strategy is built.
    """
    _check_eps_variant(eps, variant)
    l = game.players
    in_sizes = game.input_sizes
    aug_sizes = tuple(s + 1 for s in game.output_sizes)
    n_d = math.prod(aug_sizes[j] ** in_sizes[j] for j in range(l))
    if n_d > _LOCAL_STRATEGY_LIMIT:
        raise BudgetExceededError(
            f"{n_d} deterministic abort-augmented strategies exceed the limit {_LOCAL_STRATEGY_LIMIT}"
        )
    maps, cols, mass, win = _local_columns(game, variant)
    eta, w_cols = _efficiency_lp(np.ones((1, cols.size)), np.ones(1), mass, win, eps)

    # the mixture's correlation; each entry sums its strategies d in ascending order
    q = np.zeros(aug_sizes + in_sizes)
    used = w_cols > 1e-12
    d_idx = np.unravel_index(cols[used], tuple(m.shape[0] for m in maps))
    xs = np.indices(in_sizes).reshape(l, -1)
    np.add.at(q, tuple(maps[j][d_idx[j][:, None], xs[j]] for j in range(l)) + tuple(xs), w_cols[used][:, None])
    cert = Correlation(q=q, players=l)
    # at the floor, 1 / eta would be no upper bound on eff*
    eff = math.inf if eta == ETA_FLOOR else 1.0 / eta
    return PartitionBoundResult(eta=eta, eff=eff, variant=variant, relaxation="local", certificate=cert)


def _local_columns(game: GamePredicate, variant: str) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """The columns of :func:`eff_local`'s LP: ``(maps, cols, mass, win)``.

    ``maps[j][d_j, x_j]`` is player j's output (``out_sizes[j]`` meaning
    abort) at input x_j under its d_j-th map; strategy d is the tuple
    (d_1, ..., d_l), numbered row-major.  ``cols`` are the ascending
    indices of the first strategy of each group whose LP columns are
    bitwise equal; ``mass`` and ``win`` are those columns' rows, as
    :func:`_lp_rows` gives them for ``variant``.

    Each strategy gets one exact integer key, base-3 digit per joint input
    x (row-major): 0 when a player aborts, 1 when nobody aborts and the
    answer loses, 2 when it wins.  One int64 word holds ``_KEY_DIGITS``
    digits (3^39 < 2^63), so a game with more inputs has several words.
    The key is summed input by input from the table
    ``digit(a, x) 3^(x mod _KEY_DIGITS)``, gathered along each player's map
    column.  Equal keys mean equal per-input rows, so only the first
    strategy of each key is decoded into rows; groups whose ``p``-weighted
    rows tie are then merged by :func:`_distinct_columns`.  Each group's
    first index is its smallest, so the columns and rows are bitwise those
    of :func:`_distinct_columns` on the rows of every strategy.
    """
    l = game.players
    in_sizes = game.input_sizes
    aug_sizes = tuple(s + 1 for s in game.output_sizes)
    maps = [
        np.array(list(itertools.product(range(aug_sizes[j]), repeat=in_sizes[j])), dtype=np.int64)
        for j in range(l)
    ]
    flat = np.arange(math.prod(in_sizes))
    digit = np.zeros(aug_sizes + in_sizes, dtype=np.int64)
    digit[tuple(slice(s) for s in game.output_sizes)] = 1 + game.V
    code = digit * (3 ** (flat % _KEY_DIGITS)).reshape(in_sizes)
    keys = np.zeros((-(-flat.size // _KEY_DIGITS),) + tuple(m.shape[0] for m in maps), dtype=np.int64)
    for i, x in enumerate(np.ndindex(*in_sizes)):
        part = code[(Ellipsis,) + x]
        for j in range(l):
            part = np.take(part, maps[j][:, x[j]], axis=j)
        keys[i // _KEY_DIGITS] += part
    keys = keys.reshape(keys.shape[0], -1)
    first = _first_of_each(keys)
    # one contiguous run of digits per strategy, the layout of the table of
    # every strategy: p @ rows then runs the same BLAS kernel and rounds alike
    words = keys[:, first].T[:, flat // _KEY_DIGITS]
    digits = np.ascontiguousarray(words // 3 ** (flat % _KEY_DIGITS) % 3).T
    mass, win = _lp_rows(game.p, (digits > 0).astype(float), (digits == 2).astype(float), variant)
    keep = _distinct_columns(np.vstack([mass, win]))
    return maps, first[keep], mass[:, keep], win[:, keep]


# ---------------------------------------------------------------------------
# gamma2-type quantities


@dataclass(frozen=True)
class Gamma2Result:
    value: float
    kind: str  # "exact" (one row) or "lower_bound" (value and upper bracket the norm)
    sign_matrix: np.ndarray | None = None
    upper: float | None = None  # gamma2_star: certified upper end; gamma2_alpha: None


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

    Vectors of dimension min(m, n) suffice.  Exact for one row (closed
    form ``sum |M|``), where ``upper`` equals ``value``.  Past that
    ``value`` and ``upper`` are the ends of the certified duality bracket
    of ``_gamma2_alternating``, closed to a relative gap of
    ``_GAMMA2_GAP`` (1e-7) unless its iteration cap is reached.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0 or not np.all(np.isfinite(M)):
        raise ValidationError("matrix must be 2-d, non-empty and finite")
    A = M if M.shape[0] <= M.shape[1] else M.T
    if A.shape[0] == 1:
        value = float(np.sum(np.abs(A)))
        return Gamma2Result(value=value, kind="exact", upper=value)
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
    ``exact`` when every gamma2* solve is exact (one row); past that each
    solve is a certified bracket within 1e-7 relative, and the result is
    a ``lower_bound``.
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
    kind = "exact" if all(g.kind == "exact" for g in gs) else "lower_bound"
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
