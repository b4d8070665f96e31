"""One benchmark process: set up a workload, time passes over its
operations, optionally time one traced pass, then check every output.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the package sources.
It reports on stdout, one ``PERFBENCH <json>`` line per event:
``setup`` once inputs are ready, ``pass`` after each timed pass, and
``done`` after the checks.  With ``--setup-only`` it stops after ``setup``.

Times are also scaled by host speed.  Other tenants of a shared host slow
this process by up to 1.8x, for a fraction of a second or for minutes, and
the CPU clock slows as much as the wall clock.  So every ``SAMPLE_PERIOD_S``
of wall time a SIGALRM handler, in the main thread (no extra thread), times
two fixed probes that touch no package: a pure-Python loop and a numpy pass
over 3 MB of arrays.  Their times over their reference times, averaged,
give the slowdown ``f`` of that moment: the interpreter and memory-bound
numpy slow by different factors, and the package does both.  A stretch of
work that took ``dt`` seconds before a sample counts ``dt / f`` scaled
seconds: the time it would have taken with the host at reference speed.
Probe time is left out of both raw and scaled times.  A change to the
package moves scaled and raw times by the same factor.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import time
from pathlib import Path
from time import perf_counter, process_time

TAG = "PERFBENCH "
SAMPLE_PERIOD_S = 0.02
PROBE_LOOPS = 5_000
MEM_PROBE_LEN = 1 << 17  # float64 elements per array, three arrays
# The probes' times on an idle core of a 2-vCPU Xeon VM; they set the scale only.
PROBE_REF_S = 0.00025
MEM_PROBE_REF_S = 0.0003


class SpeedSampler:
    """Times the probes from a SIGALRM handler every ``SAMPLE_PERIOD_S``."""

    def __init__(self):
        self.samples = []  # (perf_counter at the probes' end, probe seconds, slowdown)

    def _probe(self, signum, frame) -> None:
        t = perf_counter()
        s = 0
        for k in range(PROBE_LOOPS):
            s += k * k
        t_py = perf_counter()
        self._np.add(self._a, self._b, out=self._c)
        self._np.multiply(self._c, 0.5, out=self._a)
        now = perf_counter()
        slowdown = ((t_py - t) / PROBE_REF_S + (now - t_py) / MEM_PROBE_REF_S) / 2.0
        self.samples.append((now, now - t, slowdown))

    def start(self) -> None:
        import numpy  # the package imports it as well; set-up time counts it once

        self._np = numpy
        self._a, self._b, self._c = (numpy.ones(MEM_PROBE_LEN) for _ in range(3))
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def measure(self, t0: float, t1: float):
        """Raw and scaled seconds of work in ``[t0, t1]``, probes left out,
        and the slowdowns sampled in it.

        Work after the interval's last sample is scaled by that sample.
        """
        inside = [(t, p, f) for t, p, f in self.samples if t0 < t <= t1]
        last = [f for t, p, f in self.samples if t <= t0][-1:] or [1.0]
        raw = scaled = 0.0
        start, f_last = t0, last[0]
        for t, p, f in inside:
            dt = max(0.0, t - p - start)
            raw += dt
            scaled += dt / f
            start, f_last = t, f
        tail = t1 - start
        return raw + tail, scaled + tail / f_last, [f for _, _, f in inside]


def emit(kind: str, **fields) -> None:
    print(TAG + json.dumps({"kind": kind, **fields}), flush=True)


class Raised:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"raised {type(exc).__name__}: {exc}"


def run_pass(ops):
    """Run every operation once, in order.

    Returns the pass's start and end (``perf_counter``), its CPU seconds,
    each operation's wall seconds, and the results.
    """
    results, op_s = [], []
    c0 = process_time()
    t0 = t = perf_counter()
    for op in ops:
        try:
            results.append(op.run())
        except Exception as exc:  # a failing operation is counted, not fatal
            results.append(Raised(exc))
        now = perf_counter()
        op_s.append(now - t)
        t = now
    return t0, now, process_time() - c0, op_s, results


def check_all(ops, passes) -> list[dict]:
    failures = []
    for k, results in enumerate(passes):
        for op, result in zip(ops, results):
            reason = result.reason if isinstance(result, Raised) else None
            if reason is None:
                try:
                    op.check(result)
                except Exception as exc:  # includes oracles.CheckFailed
                    reason = f"{type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append({"pass": k, "op": op.name, "reason": reason[:500]})
    return failures


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t = perf_counter()
    sampler = SpeedSampler()
    sampler.start()
    started = perf_counter()
    import gamebox
    import gamebox.cli  # noqa: F401  (the README commands' entry point)
    import_s = perf_counter() - t

    import tracing
    import workloads

    workdir = Path(args.out) / f"work-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t = perf_counter()
    ops = workloads.WORKLOADS[args.workload][0](gamebox, args.seed, workdir)
    inputs_s = perf_counter() - t
    if tracer:
        tracer.uninstall()
    ready, t = time.monotonic(), perf_counter()
    raw, scaled, _ = sampler.measure(started, t)
    emit("setup", ready=ready, speed=scaled / raw, import_s=import_s, inputs_s=inputs_s,
         ops=[op.name for op in ops])
    if args.setup_only:
        sampler.stop()
        return

    # Timed passes, tracing off.
    passes, walls, cpus = [], [], []
    start = perf_counter()
    while True:
        t0, t1, cpu, op_s, results = run_pass(ops)
        wall, scaled, slowdowns = sampler.measure(t0, t1)
        passes.append(results)
        walls.append(wall)
        cpus.append(cpu - (t1 - t0 - wall))
        emit("pass", wall_s=wall, scaled_s=scaled, cpu_s=cpus[-1], op_s=op_s, slowdowns=slowdowns)
        # Stop before a pass that would end past --seconds (one pass at least).
        if perf_counter() - start + wall > args.seconds:
            break
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer = None
    if tracer:
        tracer.install()
        tracer.run_id = "pass"
        try:
            t0, t1, _, _, results = run_pass(ops)
            traced_wall = t1 - t0
        finally:
            tracer.uninstall()
        passes.append(results)
        layer = tracer.layer_metrics()
        layer.update({
            "setup.import_s": import_s,
            "setup.inputs_s": inputs_s,
            "proc.cpu_s": statistics.median(cpus),
            "trace.overhead_frac": traced_wall / statistics.median(walls) - 1.0,
        })
        tracer.write_spans(Path(args.out) / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")

    t = perf_counter()
    failures = check_all(ops, passes)
    emit("done", peak_rss_mb=peak_rss_mb, attempted=len(ops) * len(passes), failures=failures, layer=layer,
         check_s=perf_counter() - t)


if __name__ == "__main__":
    main()
