"""Spans and counts recorded around the package's public functions.

The tracer patches module attributes and a few class methods from outside
the package, so ``src/gamebox`` stays unchanged.  Because the package calls
its own modules through attributes (``bounds.solve_lp``,
``games_mod.classical_value``, ``qcore.psd_sqrt``, ``diqkd.run_protocol``),
patched attributes also see the nested calls.  Names imported into another
module by ``from ... import name`` (``entropy.binary_entropy`` inside
``diqkd``) stay invisible; their cost is negligible here.

Spans stay in memory until the run ends.  Hot per-cell boundaries
(``GamePredicate.win``, ``LeakageChannel.send``) are counted, not spanned,
so that tracing adds little to the calls it measures.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import io
import json
import sys
from collections import Counter
from time import perf_counter

SPANNED_MODULES = ("games", "bounds", "dpt", "diqkd", "qcore")
BOX_CLASSES = ("HonestBoxes", "BaselineCheatingBoxes", "TestSetCheatingBoxes")
LP_BUILDERS = ("bounds.ns_game_value", "bounds.eff_ns", "bounds.eff_local")

# Per-layer metrics: name -> unit.  Counts (unit "count", "bit", "B") repeat
# exactly between two traced runs at one seed.
LAYER_UNITS = {
    "bounds.solve_lp.calls": "count",
    "bounds.solve_lp.s": "s",
    "bounds.solve_lp.rows_max": "count",
    "bounds.solve_lp.cols_max": "count",
    "bounds.solve_lp.a_mb_max": "MB",
    "bounds.lp_build.s": "s",
    "bounds.gamma2_star.calls": "count",
    "bounds.gamma2_star.s": "s",
    "bounds.gamma2_alpha.self_s": "s",
    "games.win.calls": "count",
    "games.classical_value.s": "s",
    "games.seesaw.s": "s",
    "games.repeat.s": "s",
    "qcore.psd_sqrt.calls": "count",
    "qcore.psd_sqrt.s": "s",
    "dpt.empirical_repeated_value.self_s": "s",
    "dpt.probe.exhaustive": "count",
    "dpt.probe.lower_bound": "count",
    "diqkd.run_protocol.calls": "count",
    "diqkd.rounds": "count",
    "diqkd.run_protocol.self_s": "s",
    "diqkd.produce.s": "s",
    "diqkd.produce.ns_per_round": "ns",
    "diqkd.abort_test.s": "s",
    "diqkd.channel.sends": "count",
    "diqkd.channel.bits": "bit",
    "diqkd.serfling_mc.s": "s",
    "diqkd.sweep.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.out_bytes": "B",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "proc.cpu_s": "s",
    "trace.overhead_frac": "ratio",
    "wall.raw_s": "s",
    "setup.raw_s": "s",
    "host.slowdown": "ratio",
}
COUNT_METRICS = tuple(name for name, unit in LAYER_UNITS.items() if unit in ("count", "bit", "B"))


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _observe_solve_lp(tracer, args, kwargs, result, before):
    lp = _first_arg(args, kwargs, "lp")
    rows, cols = len(lp.b), len(lp.c)
    tracer.maxima["bounds.solve_lp.rows_max"] = max(tracer.maxima.get("bounds.solve_lp.rows_max", 0), rows)
    tracer.maxima["bounds.solve_lp.cols_max"] = max(tracer.maxima.get("bounds.solve_lp.cols_max", 0), cols)
    # bytes of the dense constraint matrix as passed in (float64), not measured
    a_mb = rows * cols * 8 / 2**20
    tracer.maxima["bounds.solve_lp.a_mb_max"] = max(tracer.maxima.get("bounds.solve_lp.a_mb_max", 0.0), a_mb)


def _observe_probe(tracer, args, kwargs, result, before):
    tracer.counts[f"dpt.probe.{result.kind}"] += 1


def _observe_run_protocol(tracer, args, kwargs, result, before):
    tracer.counts["diqkd.rounds"] += _first_arg(args, kwargs, "params").n


def _stdout_position():
    return sys.stdout.tell() if isinstance(sys.stdout, io.StringIO) else None


def _observe_cli_main(tracer, args, kwargs, result, before):
    if before is not None:
        written = sys.stdout.getvalue()[before:]
        tracer.counts["cli.out_bytes"] += len(written.encode("utf-8"))


def _observe_send(tracer, args, kwargs, result, before):
    tracer.counts["diqkd.channel.bits"] += int(args[3] if len(args) > 3 else kwargs["bits"])


_NO_SPANS = {"calls": 0, "s": 0.0, "self_s": 0.0}

_OBSERVERS = {
    "bounds.solve_lp": (None, _observe_solve_lp),
    "dpt.empirical_repeated_value": (None, _observe_probe),
    "diqkd.run_protocol": (None, _observe_run_protocol),
    "cli.main": (_stdout_position, _observe_cli_main),
}


class Tracer:
    """Records spans ``[name, start, end, parent, run_id, outermost]`` and counts.

    ``outermost`` is false for a span nested inside a span of the same name,
    so that recursive calls are not timed twice.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.run_id = "setup"
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name, fn):
        before, observe = _OBSERVERS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.run_id, tracer._active[name] == 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer._active[name] += 1
            state = before() if before else None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._active[name] -= 1
                stack.pop()
            if observe:
                observe(tracer, args, kwargs, result, state)
            return result

        return wrapper

    def _counted(self, name, fn, observe=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if observe:
                observe(self, args, kwargs, result, None)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of each layer module and the hot methods."""
        import gamebox
        import gamebox.cli

        for short in SPANNED_MODULES:
            mod = getattr(gamebox, short)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                self._patch(mod, attr, self._spanned(f"{short}.{attr}", obj))
        self._patch(gamebox.cli, "main", self._spanned("cli.main", gamebox.cli.main))
        games, diqkd = gamebox.games, gamebox.diqkd
        self._patch(games.GamePredicate, "win", self._counted("games.win.calls", games.GamePredicate.win))
        self._patch(diqkd.LeakageChannel, "send", self._counted("diqkd.channel.sends", diqkd.LeakageChannel.send, _observe_send))
        for cls_name in BOX_CLASSES:
            cls = getattr(diqkd, cls_name)
            self._patch(cls, "produce", self._spanned("diqkd.produce", cls.__dict__["produce"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def summarize(self) -> dict[str, dict]:
        """Per span name: call count, outermost total seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _run, _outer in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent, _run, outer) in enumerate(self.spans):
            agg = out.setdefault(name, dict(_NO_SPANS))
            agg["calls"] += 1
            if outer:
                agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Span- and count-derived per-layer metrics (without the setup,
        process and overhead figures, which the worker adds)."""
        agg = self.summarize()

        def get(name, key):
            return agg.get(name, _NO_SPANS)[key]

        rounds = self.counts["diqkd.rounds"]
        produce_s = get("diqkd.produce", "s")
        return {
            "bounds.solve_lp.calls": get("bounds.solve_lp", "calls"),
            "bounds.solve_lp.s": get("bounds.solve_lp", "s"),
            "bounds.solve_lp.rows_max": self.maxima.get("bounds.solve_lp.rows_max", 0),
            "bounds.solve_lp.cols_max": self.maxima.get("bounds.solve_lp.cols_max", 0),
            "bounds.solve_lp.a_mb_max": self.maxima.get("bounds.solve_lp.a_mb_max", 0.0),
            "bounds.lp_build.s": sum(get(name, "self_s") for name in LP_BUILDERS),
            "bounds.gamma2_star.calls": get("bounds.gamma2_star", "calls"),
            "bounds.gamma2_star.s": get("bounds.gamma2_star", "s"),
            "bounds.gamma2_alpha.self_s": get("bounds.gamma2_alpha", "self_s"),
            "games.win.calls": self.counts["games.win.calls"],
            "games.classical_value.s": get("games.classical_value", "s"),
            "games.seesaw.s": get("games.seesaw", "s"),
            "games.repeat.s": get("games.repeat", "s"),
            "qcore.psd_sqrt.calls": get("qcore.psd_sqrt", "calls"),
            "qcore.psd_sqrt.s": get("qcore.psd_sqrt", "s"),
            "dpt.empirical_repeated_value.self_s": get("dpt.empirical_repeated_value", "self_s"),
            "dpt.probe.exhaustive": self.counts["dpt.probe.exhaustive"],
            "dpt.probe.lower_bound": self.counts["dpt.probe.lower_bound"],
            "diqkd.run_protocol.calls": get("diqkd.run_protocol", "calls"),
            "diqkd.rounds": rounds,
            "diqkd.run_protocol.self_s": get("diqkd.run_protocol", "self_s"),
            "diqkd.produce.s": produce_s,
            "diqkd.produce.ns_per_round": produce_s * 1e9 / rounds if rounds else 0.0,
            "diqkd.abort_test.s": get("diqkd.abort_test", "s"),
            "diqkd.channel.sends": self.counts["diqkd.channel.sends"],
            "diqkd.channel.bits": self.counts["diqkd.channel.bits"],
            "diqkd.serfling_mc.s": get("diqkd.serfling_mc", "s"),
            "diqkd.sweep.self_s": get("diqkd.sweep", "self_s"),
            "cli.main.calls": get("cli.main", "calls"),
            "cli.main.self_s": get("cli.main", "self_s"),
            "cli.out_bytes": self.counts["cli.out_bytes"],
        }

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent, run id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, run, _outer in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9), parent, run]) + "\n")
