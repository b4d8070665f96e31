"""Output checks that do not use the code paths being timed.

Efficiency bounds are re-solved with scipy's HiGHS on LPs built here from
the game tables; game values are compared with closed forms; repetition
probes are compared with the values the package reached when this
benchmark was introduced.  Every check raises ``CheckFailed`` with a
reason, and none runs inside a timed pass.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TOL = 1e-7
ETA_FLOOR = 1e-9  # the package's lower bound on eta, mirrored so the LPs agree

COS2 = math.cos(math.pi / 8) ** 2

# Probe values reached at seed 0 with budget 200 000 by the package revision
# that introduced this benchmark, keyed by (game, copies, comm_bits).
PROBE_REFERENCE = {
    ("chsh", 1, 0): (0.75, "exhaustive"),
    ("chsh", 1, 1): (1.0, "exhaustive"),
    ("chsh", 1, 2): (1.0, "exhaustive"),
    ("chsh", 2, 0): (0.625, "exhaustive"),
    ("chsh", 2, 1): (0.75, "exhaustive"),
    ("chsh", 2, 2): (1.0, "lower_bound"),
    ("magic_square", 1, 0): (8 / 9, "exhaustive"),
    ("magic_square", 1, 1): (1.0, "exhaustive"),
    ("magic_square", 1, 2): (1.0, "lower_bound"),
    ("magic_square", 2, 0): (65 / 81, "lower_bound"),
    ("magic_square", 2, 1): (75 / 81, "lower_bound"),
    ("magic_square", 2, 2): (1.0, "lower_bound"),
}


class CheckFailed(Exception):
    """An output disagreed with its oracle."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def close(got: float, want: float, what: str, tol: float = 1e-9) -> None:
    require(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


# ---------------------------------------------------------------------------
# efficiency (partition) bounds


def _variant_rows(mass, win, p, eps, variant):
    """Equality and >= rows over [columns..., eta] for one counting variant.

    ``mass`` and ``win`` are (inputs, columns) coefficient matrices; ``p`` the
    flattened input distribution.
    """
    if variant == "average":
        mass = (p @ mass)[None, :]
    if variant in ("tilde", "average"):
        win = (p @ win)[None, :]
    eq = np.hstack([mass, -np.ones((mass.shape[0], 1))])
    ge = np.hstack([win, -(1.0 - eps) * np.ones((win.shape[0], 1))])
    return eq, ge


def _solve_eta(norm_eq, norm_rhs, eq, ge):
    from scipy.optimize import linprog

    n = eq.shape[1]
    c = np.zeros(n)
    c[-1] = -1.0
    A_eq = np.vstack([np.hstack([norm_eq, np.zeros((norm_eq.shape[0], 1))]), eq])
    b_eq = np.concatenate([norm_rhs, np.zeros(eq.shape[0])])
    bounds = [(0.0, None)] * (n - 1) + [(ETA_FLOOR, None)]
    res = linprog(c, A_ub=-ge, b_ub=np.zeros(ge.shape[0]), A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    require(res.status == 0, f"HiGHS reference LP failed: {res.message}")
    return float(res.x[-1])


def xor_table(f) -> np.ndarray:
    """Win table V[a, b, x, y] = (a xor b == f[x, y]) of an XOR game."""
    f = np.asarray(f)
    a, b = np.ix_(range(2), range(2))
    return (a ^ b)[:, :, None, None] == f[None, None, :, :]


def reference_eta(V, p, eps: float, variant: str, relaxation: str) -> float:
    """eta of the two-player abort-augmented efficiency LP for win table
    ``V[a, b, x, y]`` and input distribution ``p[x, y]``, by HiGHS."""
    V = np.asarray(V, dtype=bool)
    ma, mb, nx, ny = V.shape
    p = np.asarray(p, dtype=float).reshape(-1)
    inputs = list(itertools.product(range(nx), range(ny)))
    if relaxation == "no_signalling":
        shape = (ma + 1, mb + 1, nx, ny)
        mass = np.zeros((len(inputs),) + shape)
        win = np.zeros_like(mass)
        norm = np.zeros_like(mass)
        for k, (x, y) in enumerate(inputs):
            mass[k, :ma, :mb, x, y] = 1.0
            win[k, :ma, :mb, x, y] = V[:, :, x, y]
            norm[k, :, :, x, y] = 1.0
        ns_rows = []
        for a, x, y in itertools.product(range(ma + 1), range(nx), range(1, ny)):
            row = np.zeros(shape)
            row[a, :, x, y] = 1.0
            row[a, :, x, 0] = -1.0
            ns_rows.append(row)
        for b, y, x in itertools.product(range(mb + 1), range(ny), range(1, nx)):
            row = np.zeros(shape)
            row[:, b, x, y] = 1.0
            row[:, b, 0, y] = -1.0
            ns_rows.append(row)
        norm_eq = np.vstack([norm.reshape(len(inputs), -1), np.array(ns_rows).reshape(len(ns_rows), -1)])
        norm_rhs = np.concatenate([np.ones(len(inputs)), np.zeros(len(ns_rows))])
        mass = mass.reshape(len(inputs), -1)
        win = win.reshape(len(inputs), -1)
    else:
        maps_a = np.array(list(itertools.product(range(ma + 1), repeat=nx)))
        maps_b = np.array(list(itertools.product(range(mb + 1), repeat=ny)))
        mass, win = [], []
        for x, y in inputs:
            a = maps_a[:, x][:, None]
            b = maps_b[:, y][None, :]
            live = (a < ma) & (b < mb)
            mass.append(live.reshape(-1))
            win.append((live & V[np.minimum(a, ma - 1), np.minimum(b, mb - 1), x, y]).reshape(-1))
        mass = np.array(mass, dtype=float)
        win = np.array(win, dtype=float)
        norm_eq = np.ones((1, mass.shape[1]))
        norm_rhs = np.ones(1)
    eq, ge = _variant_rows(mass, win, p, eps, variant)
    return _solve_eta(norm_eq, norm_rhs, eq, ge)


def check_efficiency(game, eps: float, variant: str, relaxation: str, res, reference: float) -> None:
    """Certificate validates, meets its variant's constraints, and eta
    matches ``reference`` (from :func:`reference_eta`)."""
    require((res.variant, res.relaxation) == (variant, relaxation),
            f"result is {res.variant}/{res.relaxation}, asked {variant}/{relaxation}")
    close(res.eff, 1.0 / res.eta, "eff = 1/eta", tol=1e-9 * res.eff)
    cert = res.certificate
    cert.validate()
    q = np.asarray(cert.q, dtype=float)
    V = np.asarray(game.dense_V(), dtype=bool)
    ma, mb = V.shape[:2]
    require(q.shape == (ma + 1, mb + 1) + V.shape[2:], f"certificate shape {q.shape}")
    alice = q.sum(axis=1)  # (a, x, y)
    bob = q.sum(axis=0)  # (b, x, y)
    require(np.abs(alice - alice[:, :, :1]).max() <= TOL, "certificate signals from Bob to Alice")
    require(np.abs(bob - bob[:, :1, :]).max() <= TOL, "certificate signals from Alice to Bob")
    p = np.asarray(game.p, dtype=float)
    mass = q[:ma, :mb].sum(axis=(0, 1))
    win = (q[:ma, :mb] * V).sum(axis=(0, 1))
    eta = res.eta
    if variant == "average":
        close(float((p * mass).sum()), eta, "average non-abort mass", TOL)
    else:
        require(np.abs(mass - eta).max() <= TOL, "per-input non-abort mass differs from eta")
    if variant == "worst_case":
        require((win - (1.0 - eps) * eta).min() >= -TOL, "some input wins below (1-eps) eta")
    else:
        require(float((p * win).sum()) - (1.0 - eps) * eta >= -TOL, "average win below (1-eps) eta")
    close(eta, reference, f"eta vs HiGHS ({relaxation})", TOL)


# ---------------------------------------------------------------------------
# game values


CLASSICAL = {"chsh": 0.75, "magic_square": 8 / 9, "mse": 1 / 9, "chsh^2": 0.625}
NO_SIGNALLING = {"chsh": 1.0, "magic_square": 1.0, "mse": 1 / 9, "chsh^2": 1.0}
SEESAW = {"chsh": COS2, "magic_square": 1.0, "chsh^2": COS2**2}


def check_classical(gb, game, res) -> None:
    close(res.value, CLASSICAL[game.name], f"classical_value({game.name})", 1e-12)
    require(res.kind == "exact", f"classical_value kind {res.kind!r}")
    close(gb.games.strategy_value(game, res.certificate), res.value, "strategy_value(certificate)", 1e-12)


def check_no_signalling(game, value) -> None:
    close(value, NO_SIGNALLING[game.name], f"ns_game_value({game.name})", 1e-9)


def check_seesaw(gb, game, res) -> None:
    close(res.value, SEESAW[game.name], f"seesaw({game.name})", 1e-6)
    replay = gb.games.evaluate_quantum_strategy(game, res.certificate)
    close(min(replay, 1.0), res.value, "evaluate_quantum_strategy(certificate)", 1e-9)


def check_probe(res, classical_n: float) -> None:
    want, want_kind = PROBE_REFERENCE[(res.game.name, res.n, res.comm_bits)]
    got = res.best_value
    require(res.kind in ("exhaustive", "lower_bound"), f"probe kind {res.kind!r}")
    require(got <= 1.0 + 1e-12, f"probe value {got!r} above 1")
    require(got >= classical_n - 1e-12, f"probe value {got!r} below classical^n {classical_n!r}")
    if want_kind == "exhaustive":
        close(got, want, "probe vs exact reference", 1e-12)
    else:
        require(got >= want - 1e-12, f"probe value {got!r} below the reference {want!r}")


# ``lower`` reached by the package revision that introduced this benchmark
# (uniform p), keyed by (case, eps).  The 2-row cases are exact: there
# gamma2_star has a closed form.  The 3x3 case divides by the alternating
# (lower-bound) gamma2_star, so a tighter gamma2_star can only lower it.
THM2_REFERENCE = {
    ("3x3", 0.1): 1.2000000000000095,
    ("2x4", 0.0): 1.2649110640673515,
    ("2x4", 0.05): 1.1384199576606164,
    ("2x4", 0.1): 1.0119288512538813,
    ("2x4", 0.2): 0.7589466384404109,
    ("chsh", 0.1): 1.131370849898476,
}


def reference_thm2_upper(f, p, eps: float) -> float:
    """``upper`` of check_thm2: 1/eta of the average local LP, by HiGHS."""
    return 1.0 / reference_eta(xor_table(f), p, eps, "average", "local")


def check_thm2(label: str, f, p, eps: float, res, reference_upper: float) -> None:
    """``upper`` matches HiGHS, ``lower`` matches the recorded value (exact
    cases) or lies between a proven floor and it (3x3), and ``holds``."""
    close(res.upper, reference_upper, "upper = eff_local vs HiGHS", TOL * reference_upper)
    want = THM2_REFERENCE[(label, eps)]
    f = np.asarray(f)
    if min(f.shape) <= 2:
        close(res.lower, want, "lower vs exact reference", 1e-9)
    else:
        # Sign matrix F itself scores 1/gamma2*(F o p), and gamma2*(M) is at
        # most sqrt(|X||Y|) times the spectral norm of M.
        Fp = np.where(f != 0, -1.0, 1.0) * np.asarray(p, dtype=float)
        floor = (1.0 - 2.0 * eps) / (math.sqrt(f.size) * np.linalg.norm(Fp, 2))
        require(floor - 1e-9 <= res.lower <= want + 1e-9,
                f"lower {res.lower!r} outside [{floor!r}, reference {want!r}]")
    require(bool(res.holds), f"check_thm2 does not hold: lower {res.lower!r} > upper {res.upper!r}")


# ---------------------------------------------------------------------------
# simulator


def check_honest(summary, delta: float) -> None:
    t = summary["tested"]
    tol = 5.0 * math.sqrt(delta * (1.0 - delta) / t)
    close(summary["qber"], delta, f"honest QBER over {t} tested rounds", tol)
    require(not summary["aborted"], "honest run aborted")


def check_baseline(summary) -> None:
    require(summary["aborted"], "baseline cheater was not caught")


def check_test_set(summary, leash: int) -> None:
    # The cheater asks for more than the leash allows, so it spends all of it
    # and is still caught.
    require(summary["leaked_bits"] == leash, f"leaked {summary['leaked_bits']} bits, want the whole {leash}-bit leash")
    require(summary["aborted"], "test-set cheater was not caught")
