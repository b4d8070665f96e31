#!/usr/bin/env python3
"""gamebox benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload partition-lp --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; the package is imported from
``src``.  Set-up is timed in ``SETUP_SAMPLES`` fresh processes (the last one
also measures), and the measuring process repeats passes over the
workload's operations for up to ``--seconds`` (at least one pass).
With ``--trace 1`` one traced pass follows and the per-layer metrics are
reported instead of the end-to-end ones.  Every output is checked after
the passes.  The measuring process is killed ``--seconds`` plus
``CAP_MARGIN_S`` seconds after start; the operations it left unchecked then
count as failed.

Prints each metric with its unit, writes a results file with an
environment stamp under ``perfbench/out/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 without that
line when set-up fails, for instance when ``src/gamebox`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CAP_MARGIN_S = 120.0  # set-up processes, the traced pass and the checks
SETUP_SAMPLES = 5
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import TAG  # noqa: E402

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_worker(argv: list[str], deadline: float) -> dict:
    """Run one worker to completion or to the deadline; collect its events."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killed = False
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    except BaseException:  # interrupted or terminated: take the worker down too
        proc.kill()
        proc.wait()
        raise
    events = {"passes": [], "code": proc.returncode, "killed": killed, "stderr": err}
    for line in out.splitlines():
        if line.startswith(TAG):
            event = json.loads(line[len(TAG):])
            if event["kind"] == "pass":
                events["passes"].append(event)
            else:
                events[event["kind"]] = event
    return events


def git_revision() -> str | None:
    """HEAD of the checkout, or None outside a git clone."""
    if not (ROOT / ".git").exists():  # keep git from reading a repository above the checkout
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int, cpu_s: float | None) -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
        "proc.cpu_s": cpu_s,
    }


def account(ev: dict):
    """Operations attempted and failed, the failures, and peak RSS (MB)."""
    done = ev.get("done")
    if done is not None and ev["code"] == 0:
        return done["attempted"], len(done["failures"]), done["failures"], done["peak_rss_mb"]
    # Killed at the cap or crashed: nothing was checked, and the pass in
    # progress never finished.  Count all of it as failed.
    attempted = len(ev["setup"]["ops"]) * (len(ev["passes"]) + 1)
    reason = "killed at the time cap" if ev["killed"] else f"exited {ev['code']}: {ev['stderr'][-500:]}"
    failures = [{"pass": None, "op": "*", "reason": "worker " + reason}]
    return attempted, attempted, failures, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def fail(message: str, stderr: str = "") -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    if stderr:
        print(stderr[-4000:], file=sys.stderr)
    sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit so that a running worker is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    start = time.monotonic()
    deadline = start + args.seconds + CAP_MARGIN_S
    if not (ROOT / "src" / "gamebox" / "__init__.py").is_file():
        fail(f"no package sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(OUT)]

    # Set-up time: interpreter start to inputs ready, in fresh processes,
    # raw and scaled by the host speed each process sampled while setting up.
    setup_s, setup_scaled = [], []
    for k in range(SETUP_SAMPLES):
        measuring = k == SETUP_SAMPLES - 1
        t0 = time.monotonic()
        ev = run_worker(argv if measuring else argv + ["--setup-only"], deadline)
        if "setup" not in ev or (not measuring and ev["code"] != 0):
            fail("set-up failed", ev["stderr"])
        setup_s.append(ev["setup"]["ready"] - t0)
        setup_scaled.append(setup_s[-1] * ev["setup"]["speed"])

    attempted, failed, failures, peak_rss_mb = account(ev)
    walls = [p["wall_s"] for p in ev["passes"]]
    scaled = [p["scaled_s"] for p in ev["passes"]]
    cpus = [p["cpu_s"] for p in ev["passes"]]
    slowdowns = [x for p in ev["passes"] for x in p["slowdowns"]]
    if not walls:  # killed in the first pass: its time so far, unscaled
        walls = scaled = [time.monotonic() - ev["setup"]["ready"]]
    done = ev.get("done")

    e2e = {"wall_s": statistics.median(scaled), "setup_s": statistics.median(setup_scaled), "peak_rss_mb": peak_rss_mb}
    if args.trace:
        layer = dict((done or {}).get("layer") or {})
        layer.update({
            "wall.raw_s": statistics.median(walls),
            "setup.raw_s": statistics.median(setup_s),
            "host.slowdown": statistics.median(slowdowns) if slowdowns else 0.0,
        })
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit in tracing.LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"wall_s.samples = {len(ev['passes'])} passes")
    print(f"wall_s.raw = {statistics.median(walls):.6g} s; setup_s.raw = {statistics.median(setup_s):.6g} s "
          "(unscaled medians)")
    print(f"fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for f in failures[:10]:
        print(f"FAILED pass {f['pass']} {f['op']}: {f['reason']}")

    report = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload][1],
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed, statistics.median(cpus) if cpus else None),
        "end_to_end": e2e,
        "pass_wall_s": walls,
        "pass_scaled_s": scaled,
        "slowdowns": slowdowns,
        "op_s": dict(zip(ev["setup"]["ops"], zip(*(p["op_s"] for p in ev["passes"])))),
        "pass_cpu_s": cpus,
        "check_s": done["check_s"] if done else None,
        "setup_s_samples": setup_s,
        "setup_scaled_s_samples": setup_scaled,
        "fail_frac": failed / attempted,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "operations": ev["setup"]["ops"],
        "excluded": workloads.EXCLUDED,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
