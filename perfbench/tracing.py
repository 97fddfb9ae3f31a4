"""Span tracing of sonsim's public functions, installed from outside.

Each target function is replaced by a wrapper that records one span
(name, start, end, parent) per call.  A function imported elsewhere with
``from .x import y`` is a separate module attribute, so the wrapper is
bound wherever the original object appears in any ``sonsim`` module;
otherwise calls such as ``mdp.build_cluster`` or ``dqn.backward`` would go
unseen.  Spans stay in memory until :meth:`Tracer.write_spans`.

The bookkeeping before the clock starts and after it stops falls into the
parent span's self time; that is the tracing overhead the benchmark
reports as traced minus untraced wall time.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# (module, qualified name) of every traced function.
TARGETS = (
    ("radio", "build_cluster"),
    ("radio", "step_mobility"),
    ("radio", "reassign_serving"),
    ("radio", "rx_power_matrix"),
    ("radio", "compute_sinr_all"),
    ("radio", "compute_throughputs"),
    ("mdp", "SonEnv.reset"),
    ("mdp", "SonEnv.step"),
    ("faults", "sample_event"),
    ("faults", "apply_fault"),
    ("faults", "clear_fault"),
    ("baselines", "RandomAgent.act"),
    ("baselines", "FifoAgent.act"),
    ("baselines", "FifoAgent.observe"),
    ("dqn", "DqnAgent.act"),
    ("dqn", "DqnAgent.observe"),
    ("dqn", "ReplayMemory.sample"),
    ("nn", "forward"),
    ("nn", "backward"),
    ("nn", "adam_step"),
    ("nn", "save_params"),
    ("runner", "run_episode"),
    ("metrics", "summarize_run"),
    ("metrics", "write_cdf_csv"),
    ("metrics", "write_episodes_csv"),
    ("metrics", "write_summary_csv"),
    ("metrics", "write_trace_csv"),
    ("experiment", "run_single"),
    ("experiment", "run_experiment"),
    ("config", "parse_config"),
)

ROOT_SPAN = "experiment.run_experiment"
STEP_SPAN = "mdp.SonEnv.step"

# Layers for the self-time breakdown: a span belongs to the layer of the
# nearest enclosing entry point below, radio work inside SonEnv.step is
# per-TTI radio, and everything else (runner, step and orchestration self
# time, the staging copy) is "other".  The layers partition the root span.
LAYER_ENTRIES = {
    "radio.build_cluster": "drop",
    "mdp.SonEnv.reset": "reset",
    **{f"{m}.{f}": "agent" for m, f in TARGETS if m in ("dqn", "baselines")},
    **{f"metrics.{f}": "metrics" for m, f in TARGETS if m == "metrics"},
}
LAYERS = ("drop", "reset", "per_tti_radio", "agent", "metrics", "other")


class Tracer:
    """In-memory span store plus the two work counters the layers lack."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counters = {"radio.ues_dropped": 0, "metrics.csv_bytes": 0}

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span.  ``name`` is a string or
        a callable taking the call's positional arguments; ``after`` gets
        (args, result) once the span is closed."""
        names, start, end, parent, stack = (self.names, self.start, self.end,
                                            self.parent, self._stack)
        clock = time.perf_counter
        fixed = None if callable(name) else name

        def traced(*args, **kwargs):
            i = len(start)
            names.append(fixed if fixed is not None else name(args))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the already-imported ``sonsim`` package."""
        def count_drop(args, result):
            self.counters["radio.ues_dropped"] += len(result[1])

        def count_bytes(args, result):
            self.counters["metrics.csv_bytes"] += os.path.getsize(args[0])

        after = {"build_cluster": count_drop}
        after.update({w: count_bytes for w in ("write_cdf_csv", "write_episodes_csv",
                                               "write_summary_csv", "write_trace_csv")})
        for module, qualname in TARGETS:
            mod = importlib.import_module(f"sonsim.{module}")
            label = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(label, cls.__dict__[meth]))
                continue
            original = getattr(mod, qualname)
            if qualname == "run_single":
                wrapped = self.wrap(lambda args, label=label: f"{label}.{args[0]}", original)
            else:
                wrapped = self.wrap(label, original, after.get(qualname))
            for name, other in list(sys.modules.items()):
                if other is None or not (name == "sonsim" or name.startswith("sonsim.")):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapped)

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds, the counters,
        and the self time of each layer (LAYERS) under ``run_experiment``."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        self_s = dur[:]
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_s[p] -= dur[i]

        table: dict[str, dict] = {}
        layers = dict.fromkeys(LAYERS, 0.0)
        layer: list[str | None] = [None] * n
        in_step = [False] * n
        for i, name in enumerate(self.names):
            p = self.parent[i]
            up = layer[p] if p >= 0 else None
            if p >= 0:
                in_step[i] = in_step[p] or self.names[p] == STEP_SPAN
            if name in LAYER_ENTRIES and up in (None, "other"):
                layer[i] = LAYER_ENTRIES[name]
            elif up not in (None, "other"):
                layer[i] = up
            elif name == ROOT_SPAN or up is not None:
                is_radio = in_step[i] and name.startswith("radio.")
                layer[i] = "per_tti_radio" if is_radio else "other"
            if layer[i] is not None:
                layers[layer[i]] += self_s[i]
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += self_s[i]
        return {"functions": table, "counters": dict(self.counters), "layers": layers}

    def write_spans(self, path) -> None:
        """One CSV row per span, times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]}\n")
