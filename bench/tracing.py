"""Spans and counters around the package's layer entry points.

The recorder replaces module and class attributes of an imported
`blockmatch` with timing wrappers at run time; nothing under src/ is
edited. Each span keeps its name, start, end and parent span; all spans
of one recorder belong to one CLI command. Spans stay in memory until
`dump` writes them out. A hook whose target no longer exists is listed in
`missing` and its metrics are left out; the command still runs.
"""

import importlib
import time
from array import array
from collections import Counter

# (module, attribute path, span name, wrapper kind)
HOOKS = (
    ("blockmatch.cli", "load_frames", "cli.load_frames", "load_frames"),
    ("blockmatch.cli", "open_sequence", "video_io.decode", "decode"),
    ("blockmatch.cli", "estimate_frame", "motion.estimate_frame", "span"),
    ("blockmatch.motion", "_full_search", "motion.full_search", "span"),
    ("blockmatch.motion", "_debm_search", "motion.debm_search", "debm_block"),
    ("blockmatch.motion", "_sad_wide", "motion.sad", "sad"),
    ("blockmatch.baselines", "_sad_wide", "motion.sad", "sad"),
    ("blockmatch.motion", "provider", "motion.objective", "objective"),
    ("blockmatch.de", "run", "de.run", "de_run"),
    ("blockmatch.estimator", "fitness_of", "estimator.dispatch", "span"),
    ("blockmatch.estimator", "HistoryStore.nearest", "estimator.nearest", "span"),
    ("blockmatch.estimator", "classify", "estimator.rule", "rule"),
    ("blockmatch.baselines", "_tss_search", "baselines.tss", "span"),
    ("blockmatch.baselines", "_ds_search", "baselines.ds", "span"),
    ("blockmatch.baselines", "_CachedCost.__call__", "baselines.cost", "span"),
    ("blockmatch.cli", "compensate", "motion.compensate", "span"),
    ("blockmatch.cli", "mse", "metrics.mse", "span"),
    ("blockmatch.cli", "aggregate", "metrics.aggregate", "span"),
    ("blockmatch.cli", "write_report", "video_io.write", "span"),
    ("blockmatch.cli", "write_mv_dump", "video_io.write", "span"),
)

# Spans whose individual durations are kept as per-block samples; de.run
# contributes its self time (operators, without the fitness provider).
SAMPLED = ("motion.full_search", "motion.debm_search", "baselines.tss",
           "baselines.ds", "de.run")


class Recorder:
    def __init__(self, command_id: str):
        self.command_id = command_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.cells: set | None = None  # lattice cells evaluated in the current debm block
        self.attached: list[str] = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def timed(self, name: str, fn):
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            index = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- wrapper kinds -----------------------------------------------------

    # Counters each wrapper kind feeds; they start at zero when the hook is
    # attached, so a counter is absent exactly when its hook is.
    COUNTERS = {
        "load_frames": ("cli.buffered_frames",),
        "decode": ("video_io.frames",),
        "debm_block": ("debm.distinct_cells",),
        "sad": ("debm.sad_calls",),
        "de_run": ("de.trace_records", "de.last_improving_generation", "de.runs"),
        "rule": ("rule.near_best", "rule.unexplored", "rule.neighbor_copy"),
    }

    def _wrap(self, kind: str, name: str, fn):
        for counter in self.COUNTERS.get(kind, ()):
            self.counters[counter] += 0
        if kind == "span":
            return self.timed(name, fn)
        if kind == "load_frames":
            timed = self.timed(name, fn)

            def load_frames(*args, **kwargs):
                frames = timed(*args, **kwargs)
                self.counters["cli.buffered_frames"] = max(
                    self.counters["cli.buffered_frames"], len(frames))
                return frames
            return load_frames
        if kind == "decode":
            name_id = self._name_id(name)

            def open_sequence(*args, **kwargs):
                return self._timed_iter(name_id, fn(*args, **kwargs))
            return open_sequence
        if kind == "debm_block":
            timed = self.timed(name, fn)

            def debm_block(*args, **kwargs):
                self.cells = set()
                try:
                    return timed(*args, **kwargs)
                finally:
                    self.counters["debm.distinct_cells"] += len(self.cells)
                    self.cells = None
            return debm_block
        if kind == "sad":
            timed = self.timed(name, fn)

            def sad(*args):
                if self.cells is not None:
                    self.cells.add(args[3:5])  # (u, v)
                    self.counters["debm.sad_calls"] += 1
                return timed(*args)
            return sad
        if kind == "objective":
            def provider(store, params, objective):
                return fn(store, params, self.timed(name, objective))
            return provider
        if kind == "de_run":
            timed = self.timed(name, fn)

            def de_run(*args, **kwargs):
                result = timed(*args, **kwargs)
                self._count_de_trace(result)
                return result
            return de_run
        if kind == "rule":
            def classify(*args, **kwargs):
                rule = fn(*args, **kwargs)
                self.counters["rule." + rule.name.lower()] += 1
                return rule
            return classify
        raise ValueError(f"unknown hook kind {kind!r}")

    def _timed_iter(self, name_id: int, iterator):
        while True:
            index = self.open(name_id)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(index)
            self.counters["video_io.frames"] += 1
            yield item

    def _count_de_trace(self, result) -> None:
        trace = result[1] if isinstance(result, tuple) and len(result) == 2 else None
        generations = getattr(trace, "generations", None)
        if generations is None:
            return
        self.counters["de.trace_records"] += sum(
            len(g.calls) + len(g.mutations) for g in generations)
        best = [g.best_fitness for g in generations]
        last = max((i for i in range(1, len(best)) if best[i] < best[i - 1]), default=0)
        self.counters["de.last_improving_generation"] += last
        self.counters["de.runs"] += 1

    # -- attach, summarize, dump -------------------------------------------

    def attach(self, hooks=HOOKS) -> None:
        for module_name, path, name, kind in hooks:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            setattr(owner, attr, self._wrap(kind, name, fn))
            self.attached.append(label)

    def _arrays(self):
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return np, name, parent, start, end

    def summary(self) -> dict:
        """Count, total and self time per span name, per-block samples and
        counters. Self time is a span's duration minus its children's."""
        np, name, parent, start, end = self._arrays()
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        own = duration - child
        spans, samples = {}, {}
        for name_id, label in enumerate(self.names):
            mask = name == name_id
            spans[label] = {
                "count": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
            if label in SAMPLED:
                values = own[mask] if label == "de.run" else duration[mask]
                samples[label] = (values * 1e6).tolist()
        return {
            "command": self.command_id,
            "spans": spans,
            "samples_us": samples,
            "counters": dict(self.counters),
            "attached": self.attached,
            "missing": self.missing,
        }

    def dump(self, path: str) -> None:
        np, name, parent, start, end = self._arrays()
        np.savez(path, command=np.array(self.command_id), names=np.array(self.names),
                 name=name, parent=parent, start=start, end=end)
