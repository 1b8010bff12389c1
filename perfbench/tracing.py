"""Spans around the public callables of every otlab module, kept in memory.

:meth:`Tracer.install` wraps each public function of the five layers and
rebinds it in every otlab module namespace and module-level dict that holds
it.  So a call is seen whether it goes through ``security.holevo``,
``numerics.holevo`` or cli's handler table, and module-level functions
looked up at call time are seen on internal calls too.  Public classes get
their ``__init__`` wrapped in place, which counts every construction without
breaking ``isinstance``.  A span records its name, start, end and parent;
counters are taken at the same boundaries.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("numerics", "protocol", "security", "checksim", "cli")
_CLI_PUBLIC = ("main", "build_parser", "run_table", "run_verify", "run_curve", "run_checksim")

# Spans whose calls are counted as they are.
_CALL_COUNTS = {
    "numerics.DensityOperator": "numerics.density_built",
    "numerics.PureState": "numerics.pure_built",
    "numerics.mutual_information": "numerics.mi_calls",
    "security.lemma1_reduce": "security.lemma1_reduce_calls",
    "security.returned_ensemble": "security.ensembles_built",
    "protocol.run_honest": "protocol.runs",
}


def _povm(tracer, idx, args):
    tracer.counts["numerics.povm_built"] += 1
    tracer.counts["numerics.povm_elements"] += len(args["elements"])


def _tradeoff_curve(tracer, idx, args):
    tracer.counts["curve_samples"] += int(args["n_samples"])


def _simulate_instances(tracer, idx, args):
    # A per-instance mix draws its components recursively; count the outer draw.
    parent = tracer.parent[idx]
    if parent < 0 or tracer.names[tracer.name_id[parent]] != "checksim.simulate_instances":
        tracer.counts["checksim.instances_drawn"] += int(args["n"])


def _sample_labels(tracer, idx, args):
    tracer.counts["checksim.label_keys_drawn"] += int(args["trials"]) * int(args["m"])


def _run_protocol(tracer, idx, args, protocol, bob):
    config = args["config"]
    checked = config.k_bob + (config.k_alice if protocol == 3 else 0)
    tracer.counts["checksim.instances_checked"] += config.trials * checked
    tracer.pairs[idx] = (f"p{protocol}.{args['alice'].kind}.{bob}", config.trials)


# Spans whose counters need the call's arguments.
_ARG_HOOKS = {
    "numerics.Povm": _povm,
    "security.tradeoff_curve": _tradeoff_curve,
    "checksim.simulate_instances": _simulate_instances,
    "checksim.sample_labels": _sample_labels,
    "checksim.run_protocol2": lambda t, i, a: _run_protocol(t, i, a, 2, "honest"),
    "checksim.run_protocol3": lambda t, i, a: _run_protocol(t, i, a, 3, a["bob"].kind),
}

COUNTS = ("numerics.povm_built", "numerics.povm_elements", "numerics.density_built",
          "numerics.pure_built", "numerics.mi_calls", "security.lemma1_reduce_calls",
          "security.ensembles_built", "protocol.runs", "checksim.instances_drawn",
          "checksim.label_keys_drawn", "checksim.instances_checked")

# Strategy pairs the check workloads run; each gets a trials-per-second metric.
PAIRS = ("p2.honest.honest", "p2.learn-y.honest", "p2.param.honest", "p2.mix.honest",
         "p3.honest.honest", "p3.honest.computational", "p3.honest.phase-noise")


class Tracer:
    """Span store and counters for one traced pass."""

    def __init__(self):
        self.names = []
        self.name_id, self.parent = array("i"), array("q")
        self.start, self.end = array("d"), array("d")
        self.counts = Counter()
        self.pairs = {}   # span index -> (strategy pair, trials) of a protocol run
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        count = _CALL_COUNTS.get(name)
        hook = _ARG_HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        clock, stack = time.perf_counter, self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            if count:
                self.counts[count] += 1
            if hook:
                try:
                    hook(self, idx, signature.bind(*args, **kwargs).arguments)
                except (KeyError, AttributeError):
                    pass  # a renamed parameter drops the count, never the call
            stack.append(idx)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = begin
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public callable of the five layers."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "otlab" or name.startswith("otlab.")]
        for layer in LAYERS:
            mod = sys.modules[f"otlab.{layer}"]
            for attr in getattr(mod, "__all__", _CLI_PUBLIC):
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qualname = f"{layer}.{attr}"
                if isinstance(obj, type):
                    init = obj.__dict__.get("__init__")
                    if init is None or issubclass(obj, BaseException):
                        continue
                    obj.__init__ = self._wrap(qualname, init)
                    self._restore.append((obj, "__init__", init))
                    continue
                wrapper = self._wrap(qualname, obj)
                for holder in modules:
                    namespace = vars(holder)
                    # Module-level dicts such as cli's handler table hold
                    # functions too; rebind their entries as well.
                    tables = [namespace] + [v for v in namespace.values() if type(v) is dict]
                    for table in tables:
                        for key, value in list(table.items()):
                            if value is obj:
                                table[key] = wrapper
                                self._restore.append((table, key, obj))

    def uninstall(self) -> None:
        for table, key, value in reversed(self._restore):
            if isinstance(table, type):
                setattr(table, key, value)
            else:
                table[key] = value
        self._restore.clear()

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "name_id": np.frombuffer(self.name_id, np.int32),
                "parent": np.frombuffer(self.parent, np.int64),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end)}


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    parent = np.asarray(parent)
    duration = np.asarray(end) - np.asarray(start)
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def layer_self_times(names, name_id, parent, start, end) -> dict:
    """Total self time per layer, the layer being a span name's prefix."""
    own = self_times(parent, start, end)
    per_name = np.bincount(np.asarray(name_id), weights=own, minlength=len(names))
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in zip(names, per_name):
        totals[str(name).split(".")[0]] += float(seconds)
    return totals


def layer_metrics(tracer: Tracer, payload_bytes: int, overhead_ratio: float) -> dict:
    """The per-layer metrics of one traced pass, as (value, unit) pairs."""
    spans = tracer.arrays()
    duration = spans["end"] - spans["start"]
    counts = tracer.counts
    metrics = {f"{layer}.self_s": (seconds, "s")
               for layer, seconds in layer_self_times(**spans).items()}
    for name in COUNTS:
        metrics[name] = (counts[name], "count")

    busy = dict(zip(tracer.names, np.bincount(spans["name_id"], weights=duration,
                                              minlength=len(tracer.names))))

    def per_second(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    metrics["security.curve_samples_per_s"] = (
        per_second(counts["curve_samples"], busy.get("security.tradeoff_curve", 0.0)), "1/s")
    runs = counts["protocol.runs"]
    metrics["protocol.us_per_run"] = (
        1e6 * busy.get("protocol.run_honest", 0.0) / runs if runs else 0.0, "us")
    drawn = counts["checksim.instances_drawn"]
    metrics["checksim.checked_ratio"] = (
        counts["checksim.instances_checked"] / drawn if drawn else 0.0, "ratio")
    pair_busy = {pair: [0.0, 0] for pair in PAIRS}
    for idx, (pair, trials) in tracer.pairs.items():
        pair_busy[pair][0] += float(duration[idx])
        pair_busy[pair][1] += trials
    for pair, (seconds, trials) in pair_busy.items():
        metrics[f"checksim.trials_per_s.{pair}"] = (per_second(trials, seconds), "1/s")
    metrics["cli.payload_bytes"] = (payload_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics
