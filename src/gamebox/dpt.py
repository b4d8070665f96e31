"""Closed-form evaluators for direct-product success bounds on repeated
games, a small empirical probe of repetition with one round of classical
communication, a classical feasibility check of the substate
perturbation step, and the smoothed max-divergence of the classical
substate theorem.

The asymptotic constants hidden in the source bounds are exposed as
``exponent_const`` (default 1) and ``beta_const``; they are knobs, not
derived values.  The ``270 l^3 / zeta^2`` admissibility gate of the
second bound is explicit and hard-coded.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import games as games_mod
from .errors import (
    CapabilityError,
    DimensionMismatchError,
    GateViolationError,
    ValidationError,
    check_distribution,
    check_range,
)

_PROBE_TENSOR_LIMIT = 50_000_000
_WIN_EPS = 1e-12
_ASCENT_PASSES = 200
_PRODUCT_START_BUDGET = 10**8  # single-copy strategies that classical_value enumerates for the product start


def _log2_alphabet(alphabet_sizes) -> float:
    if alphabet_sizes is None:
        raise ValidationError("alphabet_sizes required")
    sizes = tuple(check_range("alphabet size", s, 1, math.inf, integer=True) for s in alphabet_sizes)
    return math.log2(check_range("total output alphabet", math.prod(sizes), 2, math.inf))


def delta_of(C_size: int, PrE: float, n: int, alphabet_sizes) -> float:
    """Per-copy information spent by conditioning: ``(|C| log2 prod|A_j| +
    log2(1/PrE)) / n``."""
    check_range("n", n, 1, math.inf, integer=True)
    check_range("PrE", PrE, 0.0, 1.0, lo_open=True)
    check_range("C_size", C_size, 0, math.inf, integer=True)
    return (C_size * _log2_alphabet(alphabet_sizes) + math.log2(1.0 / PrE)) / n


def dpt_case_i_bound(l: int, n: int, c: float, nu: float, alphabet_sizes, exponent_const: float = 1.0) -> float:
    """Success bound ``base^floor(exponent_const nu^2 n / (l^2 log2 prod|A_j|))``
    with ``base = 1 - nu/2 + 4 sqrt(l c)``; returns 1 when the base
    reaches 1 (the bound is vacuous there).  Requires ``c < 1``."""
    check_range("l", l, 1, math.inf, integer=True)
    check_range("n", n, 1, math.inf, integer=True)
    check_range("c", c, 0.0, 1.0, hi_open=True)
    check_range("nu", nu, 0.0, 1.0)
    check_range("exponent_const", exponent_const, 0.0, math.inf, lo_open=True)
    log_alpha = _log2_alphabet(alphabet_sizes)
    base = 1.0 - nu / 2.0 + 4.0 * math.sqrt(l * c)
    if base >= 1.0:
        return 1.0
    exponent = math.floor(exponent_const * nu**2 * n / (l**2 * log_alpha))
    return float(min(max(base, 0.0), 1.0) ** exponent)


def dpt_case_ii_bound(
    l: int, n: int, c: float, eps: float, zeta: float, eff: float, alphabet_sizes, exponent_const: float = 1.0
) -> float:
    """Success bound ``(1 - eps)^floor(exponent_const n / log2 prod|A_j|)``,
    valid only inside the gate ``1 <= c < zeta^2 eff / (270 l^3)``.

    ``eff`` is the caller-supplied partition-bound efficiency.  The gate
    is sound only for a lower bound on eff*, such as ``bounds.eff_ns``:
    an upper bound (``bounds.eff_local``) can widen it past what the
    theorem allows."""
    check_range("l", l, 1, math.inf, integer=True)
    check_range("n", n, 1, math.inf, integer=True)
    c = float(check_range("c", c, 0.0, math.inf))
    check_range("eps", eps, 0.0, 1.0)
    check_range("zeta", zeta, 0.0, 1.0)
    check_range("eff", eff, 1.0, math.inf)
    check_range("exponent_const", exponent_const, 0.0, math.inf, lo_open=True)
    log_alpha = _log2_alphabet(alphabet_sizes)
    ceiling = zeta**2 * eff / (270.0 * l**3)
    if not 1.0 <= c < ceiling:
        raise GateViolationError(
            f"communication c={c} outside admissible range [1, {ceiling}) "
            f"for zeta={zeta}, eff={eff}, l={l}"
        )
    exponent = math.floor(exponent_const * n / log_alpha)
    return float((1.0 - eps) ** exponent)


def randv_bound(
    t: int,
    n: int,
    c: float,
    l: int,
    nu: float,
    beta_const: float,
    alphabet_sizes=None,
    mode: str = "generic",
) -> float:
    """Bound on winning ``t`` randomly chosen copies out of ``n``.

    ``generic`` mode: ``(1 - nu + beta_const (sqrt(l c) + l sqrt(t log2
    prod|A_j| / n)))^t``.  ``mse`` mode uses the specialised base
    ``(1 - nu + beta_const (sqrt(c) + sqrt(t/n))) / 9``.  Bases are
    clamped to [0, 1].  ``alphabet_sizes`` is checked whenever it is given,
    also at t = 0 and in ``mse`` mode, which does not read it; ``generic``
    mode requires it."""
    if mode not in ("generic", "mse"):
        raise ValidationError(f"unknown mode {mode!r}")
    check_range("n", n, 1, math.inf, integer=True)
    check_range("t", t, 0, n, integer=True)
    check_range("c", c, 0.0, math.inf)
    check_range("beta_const", beta_const, 0.0, math.inf)
    check_range("l", l, 1, math.inf, integer=True)
    check_range("nu", nu, 0.0, 1.0)
    log_alpha = None if mode == "mse" and alphabet_sizes is None else _log2_alphabet(alphabet_sizes)
    if t == 0:
        return 1.0
    if mode == "mse":
        base = (1.0 - nu + beta_const * (math.sqrt(c) + math.sqrt(t / n))) / 9.0
    else:
        base = 1.0 - nu + beta_const * (
            math.sqrt(l * c) + l * math.sqrt(t * log_alpha / n)
        )
    return float(min(max(base, 0.0), 1.0) ** t)


# ---------------------------------------------------------------------------
# Empirical repetition probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepetitionProbe:
    """Search task: best success probability for ``n`` parallel copies of a
    two-player game when the players may exchange one simultaneous round
    of ``comm_bits`` classical bits before answering."""

    game: games_mod.GamePredicate
    n: int
    comm_bits: int
    search_budget: int = 2_000_000
    seed: int = 0
    best_value: float | None = None
    kind: str | None = None
    certificate: dict | None = None


def _repeated_tensors(game: games_mod.GamePredicate, n: int):
    """Win weights ``p(x) V(a, b | x, y)`` of the n-fold game, shape
    (NX, NY, MA, MB), tuple indices row-major with copy 0 most significant."""
    rep = games_mod.repeat(game, n, budget=_PROBE_TENSOR_LIMIT)
    return rep.p[:, :, None, None] * rep.V.transpose(2, 3, 0, 1)


def _split_work(NX: int, NY: int, MA: int, MB: int, kA: int, kB: int) -> int:
    g_count = (2**kA) ** NX * (2**kB) ** NY
    fa = MA ** (NX * 2**kB)
    fb = MB ** (NY * 2**kA)
    return g_count * min(fa, fb)


def _protocol_value(PV, g_A, g_B, f_A, f_B) -> float:
    NX, NY = PV.shape[:2]
    a_sel = f_A[np.arange(NX)[:, None], g_B[None, :]]
    b_sel = f_B[:, g_A].T  # (NX, NY)
    return float(
        PV[np.arange(NX)[:, None], np.arange(NY)[None, :], a_sel, b_sel].sum()
    )


def _certificate(kA, kB, g_A, g_B, f_A, f_B) -> dict:
    """A protocol as lists: message maps g_A (NX,), g_B (NY,), output maps f_A (NX, mB), f_B (NY, mA)."""
    g_A, g_B, f_A, f_B = (np.asarray(v).tolist() for v in (g_A, g_B, f_A, f_B))
    return {"kA": kA, "kB": kB, "g_A": g_A, "g_B": g_B, "f_A": f_A, "f_B": f_B}


def _exhaustive_split(PV, kA, kB):
    """Exact optimum over all protocols of one message split; returns
    (value, certificate).

    With the message maps g_A, g_B fixed, the output maps are a
    deterministic strategy of a two-player game in which Alice's input is
    (x, Bob's message) and Bob's is (y, Alice's message):
    ``aug[a, b, x*mB + g_B(y), y*mA + g_A(x)] = PV[x, y, a, b]``, zero
    elsewhere.  :func:`games.best_deterministic` solves it for every
    (g_A, g_B) in lexicographic order; a pair is kept when it beats the
    best by more than 1e-15, and value 1 ends the search.  The caller has
    checked :func:`_split_work` against its budget."""
    NX, NY, MA, MB = PV.shape
    mA, mB = 2**kA, 2**kB
    xs, ys = np.arange(NX)[:, None], np.arange(NY)[None, :]
    wins = PV.transpose(2, 3, 0, 1)
    best, best_cert = -math.inf, None
    for g_A in itertools.product(range(mA), repeat=NX):
        g_A = np.asarray(g_A, dtype=np.int64)
        for g_B in itertools.product(range(mB), repeat=NY):
            g_B = np.asarray(g_B, dtype=np.int64)
            aug = np.zeros((MA, MB, NX * mB, NY * mA))
            aug[:, :, xs * mB + g_B[None, :], ys * mA + g_A[:, None]] = wins
            value, (f_A, f_B) = games_mod.best_deterministic(aug)
            if value > best + 1e-15:
                best = value
                best_cert = _certificate(kA, kB, g_A, g_B, np.reshape(f_A, (NX, mB)), np.reshape(f_B, (NY, mA)))
            if best >= 1.0 - _WIN_EPS:
                return best, best_cert
    return best, best_cert


def _best_outputs(PV, f, f_other, g, g_other):
    """One player's best answer table ``f`` (own inputs, messages received)
    against the other's table ``f_other``, for the messages ``g`` it sends
    and ``g_other`` it receives; ``PV`` has the player's axes first.
    Entry (x, m) is the first argmax of the win weights summed in
    ascending y over the inputs y that send m; a message no y sends keeps
    its entry."""
    other = f_other[:, g].T  # the other player's answer at (x, y)
    gathered = np.take_along_axis(PV, other[:, :, None, None], axis=3)[..., 0]
    sums = np.zeros((PV.shape[0], f.shape[1], PV.shape[2]))
    np.add.at(sums, (slice(None), g_other), gathered)
    return np.where(np.bincount(g_other, minlength=f.shape[1]) > 0, sums.argmax(axis=2), f)


def _best_messages(PV, f, f_other, g_other):
    """One player's best message map for fixed answer tables, oriented as in
    :func:`_best_outputs`: x sends the first m that maximises the win
    weight summed over y, one row sum per (x, m) as numpy sums a 1-D array."""
    NX, NY = PV.shape[:2]
    own = f[:, g_other]  # the player's answer at (x, y)
    gains = PV[np.arange(NX)[:, None, None], np.arange(NY), own[:, None, :], f_other.T[None]]
    return gains.sum(axis=2).argmax(axis=1)


def _ascend(PV, g_A, g_B, f_A, f_B):
    """Block coordinate ascent: each pass sets f_A, f_B, g_A, g_B in turn to
    their exact best responses (Bob's on the transposed tensor), until a
    pass gains at most 1e-15 or after ``_ASCENT_PASSES`` passes.  Returns
    the value and the final maps."""
    PVt = PV.transpose(1, 0, 3, 2)
    value = _protocol_value(PV, g_A, g_B, f_A, f_B)
    for _ in range(_ASCENT_PASSES):
        f_A = _best_outputs(PV, f_A, f_B, g_A, g_B)
        f_B = _best_outputs(PVt, f_B, f_A, g_B, g_A)
        g_A = _best_messages(PV, f_A, f_B, g_B)
        g_B = _best_messages(PVt, f_B, f_A, g_A)
        new_value = _protocol_value(PV, g_A, g_B, f_A, f_B)
        if new_value <= value + 1e-15:
            value = max(value, new_value)
            break
        value = new_value
    return value, (g_A, g_B, f_A, f_B)


def _product_answers(game: games_mod.GamePredicate, n: int):
    """Each player's answers over its n-fold inputs under the per-copy
    product of a classical optimum; None past ``_PRODUCT_START_BUDGET``
    single-copy strategies."""
    if math.prod(m**k for m, k in zip(game.output_sizes, game.input_sizes)) > _PRODUCT_START_BUDGET:
        return None
    maps = games_mod.classical_value(game, budget=_PRODUCT_START_BUDGET).certificate.maps
    answers = []
    for j, (k, m) in enumerate(zip(game.input_sizes, game.output_sizes)):
        table = np.asarray(maps[j])
        copies = np.unravel_index(np.arange(k**n), (k,) * n)  # each copy's input, copy 0 most significant
        answers.append(np.ravel_multi_index(tuple(table[c] for c in copies), (m,) * n))
    return answers


def _ascent_split(PV, kA, kB, seed, product):
    """Yields (value, certificate) of :func:`_ascend` on one split from each
    start in turn: the ``product`` answers with every message 0, when
    given, then eight seeded random protocols."""
    NX, NY, MA, MB = PV.shape
    mA, mB = 2**kA, 2**kB
    starts = []
    if product is not None:
        starts.append((np.zeros(NX, dtype=np.int64), np.zeros(NY, dtype=np.int64),
                       np.repeat(product[0][:, None], mB, axis=1), np.repeat(product[1][:, None], mA, axis=1)))
    for r in range(8):
        rng = np.random.default_rng([seed, kA, r])
        starts.append((rng.integers(0, mA, NX), rng.integers(0, mB, NY),
                       rng.integers(0, MA, (NX, mB)), rng.integers(0, MB, (NY, mA))))
    for start in starts:
        value, protocol = _ascend(PV, *start)
        yield value, _certificate(kA, kB, *protocol)


def empirical_repeated_value(probe: RepetitionProbe) -> RepetitionProbe:
    """Search for the best one-round-communication protocol on ``probe.n``
    parallel copies, split by split (kA from ``comm_bits`` down), keeping a
    protocol that beats the best so far by more than 1e-15 and stopping at
    value 1.

    ``exhaustive`` (exact) when the summed :func:`_split_work` fits in
    ``search_budget`` (an integer >= 0, checked before any work):
    :func:`_exhaustive_split` solves each split.  ``lower_bound``
    otherwise: :func:`_ascend` runs block best responses until a pass
    gains at most 1e-15, from nine starts per split: the per-copy product
    of the classical optimum (when its single-copy strategies are at most
    ``_PRODUCT_START_BUDGET``) and eight seeded ones."""
    game = probe.game
    if game.players != 2:
        raise CapabilityError("repetition probe implemented for two players only")
    check_range("comm_bits", probe.comm_bits, 0, 4, integer=True)
    check_range("n", probe.n, 1, math.inf, integer=True)
    check_range("seed", probe.seed, 0, math.inf, integer=True)
    check_range("search_budget", probe.search_budget, 0, math.inf, integer=True)
    PV = _repeated_tensors(game, probe.n)
    NX, NY, MA, MB = PV.shape
    splits = [(kA, probe.comm_bits - kA) for kA in range(probe.comm_bits, -1, -1)]
    if sum(_split_work(NX, NY, MA, MB, kA, kB) for kA, kB in splits) <= probe.search_budget:
        kind = "exhaustive"
        runs = ([_exhaustive_split(PV, kA, kB)] for kA, kB in splits)
    else:
        kind, product = "lower_bound", _product_answers(game, probe.n)
        runs = (_ascent_split(PV, kA, kB, probe.seed, product) for kA, kB in splits)

    best, best_cert = -math.inf, None
    for value, cert in itertools.chain.from_iterable(runs):
        if value > best + 1e-15:
            best, best_cert = value, cert
        if best >= 1.0 - _WIN_EPS:
            break
    return dataclasses.replace(probe, best_value=min(best, 1.0), kind=kind, certificate=best_cert)


# ---------------------------------------------------------------------------
# Substate perturbation, classical case
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubstateReport:
    """Outcome of the classical substate-perturbation feasibility check."""

    status: str  # "feasible" | "infeasible" | "hypothesis_failed"
    smoothing_pd: float
    marginal_pd: float
    conclusion_pd: float | None
    conclusion_threshold: float
    conclusion_factor: float
    witness: np.ndarray | None


def _purified_distance(F: float) -> float:
    return math.sqrt(max(0.0, 1.0 - min(F, 1.0) ** 2))


def _max_fidelity_capped(sigma: np.ndarray, caps: np.ndarray):
    """Maximise the Bhattacharyya fidelity sum_i sqrt(sigma_i r_i) over
    distributions r with 0 <= r <= caps; exact water-filling on the KKT
    thresholds.  Returns (fidelity, r) or None when no such r exists."""
    sigma = sigma.reshape(-1)
    caps = caps.reshape(-1)
    if caps.sum() < 1.0 - 1e-12:
        return None
    r = np.zeros_like(sigma)
    supp = sigma > 0.0
    cap_supp = float(caps[supp].sum())
    if cap_supp >= 1.0 - 1e-12:
        idx = np.flatnonzero(supp)
        thresholds = caps[idx] / sigma[idx]
        order = idx[np.argsort(thresholds, kind="stable")]
        capped_mass = 0.0
        free_weight = float(sigma[idx].sum())
        s_star = None
        for j in order:
            s_j = caps[j] / sigma[j]
            cand = (1.0 - capped_mass) / free_weight if free_weight > 0 else math.inf
            if cand <= s_j + 1e-15:
                s_star = cand
                break
            capped_mass += float(caps[j])
            free_weight -= float(sigma[j])
        if s_star is None:
            s_star = float(thresholds.max()) if idx.size else 0.0
        r[idx] = np.minimum(caps[idx], sigma[idx] * s_star)
    else:
        r[supp] = caps[supp]
    residual = 1.0 - float(r.sum())
    if residual > 0:
        slack = caps - r
        for j in np.flatnonzero(slack > 0):
            take = min(residual, float(slack[j]))
            r[j] += take
            residual -= take
            if residual <= 1e-15:
                break
    F = float(np.sqrt(sigma * r).sum())
    return min(F, 1.0), r


def _probs(name: str, P) -> np.ndarray:
    """``P`` flattened to a probability vector, entries clipped at 0 after
    the check (within 1e-9) that it is a distribution."""
    p = check_distribution(name, np.asarray(P, dtype=float).reshape(-1), neg_tol=1e-9, sum_tol=1e-9)
    return np.clip(p, 0.0, None)


def smoothed_dmax_classical(P, Q, eps: float) -> float:
    """Smoothed max-divergence: the smallest log2 lambda such that some P'
    with ||P - P'||_1 <= eps and sum(P') = 1 satisfies P' <= 2^lambda Q,
    found by bisection.

    For fixed lambda the minimal ell-1 distance from P to the capped
    simplex {0 <= P' <= 2^lambda Q, sum P' = 1} equals twice the excess
    ``sum_x max(P(x) - 2^lambda Q(x), 0)``, so feasibility is a monotone
    threshold condition in lambda.
    """
    p = _probs("P", P)
    q = _probs("Q", Q)
    if p.size != q.size:
        raise DimensionMismatchError(f"lengths differ: {p.size} vs {q.size}")
    check_range("eps", eps, 0.0, 1.0, hi_open=True)
    outside = float(p[q <= 0.0].sum())
    if 2.0 * outside > eps + 1e-12:
        raise ValidationError(
            f"mass {outside} outside supp(Q) cannot be smoothed away with eps={eps}"
        )

    supp = q > 0.0

    def excess(lam: float) -> float:
        return float(np.clip(p[supp] - (2.0**lam) * q[supp], 0.0, None).sum()) + outside

    def feasible(lam: float) -> bool:
        return 2.0 * excess(lam) <= eps + 1e-12

    lo = 0.0
    if feasible(lo):
        return 0.0
    ratios = p[supp] / q[supp]
    hi = max(1e-6, math.log2(max(float(np.max(ratios)), 1.0)) + 1e-9)
    for _ in range(64):  # rounding guard; beyond max ratio the excess is just `outside`
        if feasible(hi):
            break
        hi += 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def substate_perturbation_check_classical(
    sigma_XB, psi_X, rho_B, c: float, eps: float, delta0: float, delta1: float
) -> SubstateReport:
    """Check, on classical tables, that a distribution close to ``sigma_XB``
    fits under ``2^{c+1} (1 + 4/delta0^2) psi_X (x) rho_B``.

    Hypotheses verified first: some distribution within purified distance
    ``eps`` of ``sigma_XB`` sits below ``2^c psi_X (x) sigma_B`` (with
    ``sigma_B`` the marginal of ``sigma_XB``), and the purified distance
    between ``sigma_B`` and ``rho_B`` is at most ``delta1``.  The
    conclusion asks for purified distance at most ``2 eps + delta0 +
    delta1``.  Both sides are settled exactly by maximising Bhattacharyya
    fidelity over the capped simplex."""
    sigma = np.asarray(sigma_XB, dtype=float)
    if sigma.ndim != 2:
        raise ValidationError(f"sigma_XB must be a 2-d array, got {sigma.ndim} dimensions")
    table = _probs("sigma_XB", sigma).reshape(sigma.shape)
    psi, rho = _probs("psi_X", psi_X), _probs("rho_B", rho_B)
    if (psi.size, rho.size) != table.shape:
        raise ValidationError(
            f"psi_X and rho_B have {psi.size} and {rho.size} entries, sigma_XB has shape {table.shape}"
        )
    check_range("c", c, 0.0, math.inf)
    check_range("eps", eps, 0.0, 1.0)
    check_range("delta0", delta0, 0.0, math.inf, lo_open=True)
    check_range("delta1", delta1, 0.0, math.inf)

    sigma_B = table.sum(axis=0)
    marginal_pd = _purified_distance(float(np.sqrt(sigma_B * rho).sum()))
    factor = 2.0 ** (c + 1.0) * (1.0 + 4.0 / delta0**2)
    threshold = 2.0 * eps + delta0 + delta1

    hyp_caps = (2.0**c) * np.outer(psi, sigma_B)
    hyp = _max_fidelity_capped(table, hyp_caps)
    smoothing_pd = math.inf if hyp is None else _purified_distance(hyp[0])
    if hyp is None or smoothing_pd > eps + 1e-9 or marginal_pd > delta1 + 1e-9:
        return SubstateReport(
            status="hypothesis_failed",
            smoothing_pd=smoothing_pd,
            marginal_pd=marginal_pd,
            conclusion_pd=None,
            conclusion_threshold=threshold,
            conclusion_factor=factor,
            witness=None,
        )

    concl_caps = factor * np.outer(psi, rho)
    concl = _max_fidelity_capped(table, concl_caps)
    if concl is None:
        conclusion_pd = math.inf
        witness = None
    else:
        conclusion_pd = _purified_distance(concl[0])
        witness = concl[1].reshape(table.shape)
    status = "feasible" if conclusion_pd <= threshold + 1e-9 else "infeasible"
    return SubstateReport(
        status=status,
        smoothing_pd=smoothing_pd,
        marginal_pd=marginal_pd,
        conclusion_pd=conclusion_pd,
        conclusion_threshold=threshold,
        conclusion_factor=factor,
        witness=witness,
    )
