"""In-memory span tracer wrapped around the public functions of gridrates' layers.

`Tracer.install()` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent, run id) and
rebinds the wrapper wherever the package imported the function by name,
so nested calls (`theta_sweep` -> `effort_matrix`) nest as parent/child
spans. A few private CLI helpers and the clusterings' `to_json` are traced
under the names the benchmark reports. Spans stay in a list until the run
ends; `uninstall()` restores the originals.

A span records nothing while `run_id` is None, so output checks can call
the library without polluting the trace.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("profiles", "model", "kmeans", "robust", "vulnerability")

# (span name, module, class or None, attribute): traced besides the layers'
# public functions
EXTRA_TARGETS = (
    ("cli.load_clustering", "gridrates.cli", None, "_load_clustering"),
    ("cli.write_table", "gridrates.cli", None, "_write_table"),
    ("cli.write_json", "gridrates.cli", None, "_write_json"),
    ("cli.clustering_to_json", "gridrates.kmeans", "Clustering", "to_json"),
    ("cli.clustering_to_json", "gridrates.robust", "RateClustering", "to_json"),
)

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Records spans of traced calls; one instance per benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.run_id = None
        self.command = None          # CLI subcommand being run, set by the runner
        self.facts = defaultdict(list)   # (run_id, key) -> observed values
        self._undo: list = []

    # -- recording --------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block (used for each CLI command)."""
        if self.run_id is None:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.run_id])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = perf_counter()
        self.stack.pop()

    def note(self, key, value):
        """Record a count observed at a layer boundary in the current run."""
        self.facts[(self.run_id, key)].append(value)

    def wrap(self, name, fn):
        tracer = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.run_id is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap the layers' public functions and the extra CLI targets."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "gridrates" or name.startswith("gridrates.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"gridrates.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for other in modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is obj:
                            self._patch(other, other_attr, wrapper)
        for name, module_name, cls_name, attr in EXTRA_TARGETS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            self._patch(owner, attr, self.wrap(name, vars(owner)[attr]))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def summary(self, run_id) -> dict:
        """Per span name: calls, inclusive seconds and self seconds in one run."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[RUN] == run_id and span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict = defaultdict(lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
        for idx, span in enumerate(self.spans):
            if span[RUN] != run_id:
                continue
            wall = span[END] - span[START]
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["wall_s"] += wall
            entry["self_s"] += wall - child_time[idx]
        return dict(out)

    def fact(self, run_id, key, reduce=sum, default=0):
        values = self.facts.get((run_id, key))
        return reduce(values) if values else default


# ---------------------------------------------------------------------------
# counts observed at layer boundaries, from a traced call's result
# ---------------------------------------------------------------------------

def _ingest(tracer, result):
    tracer.note("profiles.ingest.rows", result.population.n_users)
    tracer.note("profiles.ingest.excluded", result.n_excluded)


def _kmeans(tracer, result):
    # (work size, iterations, fixpoint); the largest call is the tariff's
    tracer.note("kmeans.calls", (len(result.user_ids) * result.k,
                                 result.n_iter, result.label_fixpoint))


def _band_tariff(tracer, result):
    if tracer.command == "cluster":
        tracer.note("robust.k", result.k)


def _efforts(tracer, result):
    ids, efforts, labels, prices = result
    tracer.note("vulnerability.effort_pairs", len(ids) * (prices.size - 1))


def _reports_json(tracer, result):
    tracer.note("vulnerability.reports_json.bytes", len(result.encode("utf-8")))


def _smoothness(tracer, result):
    tracer.note("vulnerability.reachable_pairs", len(result.pairs))


OBSERVERS = {
    "profiles.ingest_csv": _ingest,
    "kmeans.kmeans_profiles": _kmeans,
    "robust.gkc": _band_tariff,
    "robust.skc": _band_tariff,
    "vulnerability.effort_matrix": _efforts,
    "vulnerability.reports_to_json": _reports_json,
    "vulnerability.measure_smoothness": _smoothness,
}
