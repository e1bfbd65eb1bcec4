"""Instruments installed from outside the program: per-step clocks and layer spans.

While an instrument is installed, the learner class names in the
``pwltree.harness`` namespace are replaced by factories that build the
learner and hand it to the instrument, which wraps methods on that one
instance.  So the instrument sees every learner that ``make_learner``,
``run_experiment`` and ``verify_equivalence`` build.  The tracer also
replaces module-level names (``cli.main``, ``harness.run_stream``, the
``rho_table`` imported by the tree learners, ...) with spanning wrappers.
Nothing under ``src/`` is edited, and leaving :func:`installed` restores
every name.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter_ns

import numpy as np

from pwltree import adaptive_tree, cli, fixed_tree, harness, mixture, trees

# harness name of each learner class -> (layer, kind)
LEARNERS = {
    "FixedTreeRegressor": ("fixed_tree", "dft"),
    "AdaptiveTreeRegressor": ("adaptive_tree", "dat"),
    "DirectMixtureRegressor": ("mixture", "direct"),
    "LinearFilter": ("baselines", "lf"),
    "VolterraFilter": ("baselines", "vf"),
    "GaussianKernelRegressor": ("baselines", "gkr"),
}
TREE_KINDS = ("dat", "dft")
COUNTERS = ("kappa_accumulations", "regressor_evaluations")
LAYERS = ("cli", "harness", "datagen", "trees", "separators", "fixed_tree",
          "adaptive_tree", "mixture", "baselines")


@contextlib.contextmanager
def installed(instrument):
    """Route every learner the harness builds, and every name in
    ``instrument.patches()``, through ``instrument`` for the duration."""
    patches = [(harness, name, _factory(getattr(harness, name), instrument))
               for name in LEARNERS]
    patches += instrument.patches()
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield instrument
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)


def _factory(cls, instrument):
    def build(*args, **kwargs):
        return instrument.build(cls, args, kwargs)
    return build


class StepClock:
    """Per-step latency of the tree learners (``dat`` and ``dft``).

    Stream mode: a step runs from ``predict`` entry to ``update`` exit, as
    ``harness.run_stream`` drives them.  Lockstep mode: a step is one pair
    of ``verify_equivalence``, from the collapsed learner's ``step`` entry
    to the explicit mixture's ``step`` exit; the collapsed learner's squared
    errors are kept for its normalized error.
    """

    def __init__(self, lockstep: bool):
        self.lockstep = lockstep
        self.records = []  # (kind, starts, ends, squared errors), one per learner
        self._ends = None  # ends of the lockstep pair in flight

    def patches(self) -> list:
        return []

    def build(self, cls, args, kwargs):
        learner = cls(*args, **kwargs)
        kind = LEARNERS[cls.__name__][1]
        if kind in TREE_KINDS:
            starts, ends, e2 = array("q"), array("q"), array("d")
            self.records.append((kind, starts, ends, e2))
            if self.lockstep:
                self._time_pair_start(learner, starts, ends, e2)
            else:
                self._time_stream_step(learner, starts, ends)
        elif kind == "direct" and self.lockstep:
            self._time_pair_end(learner)
        return learner

    @staticmethod
    def _time_stream_step(learner, starts, ends):
        predict, update = learner.predict, learner.update

        def timed_predict(x_ext):
            starts.append(perf_counter_ns())
            return predict(x_ext)

        def timed_update(x_ext, d_t, pred):
            update(x_ext, d_t, pred)
            ends.append(perf_counter_ns())

        learner.predict, learner.update = timed_predict, timed_update

    def _time_pair_start(self, learner, starts, ends, e2):
        step = learner.step

        def timed_step(x_ext, d_t):
            self._ends = ends
            starts.append(perf_counter_ns())
            y, e = step(x_ext, d_t)
            e2.append(e * e)
            return y, e

        learner.step = timed_step

    def _time_pair_end(self, learner):
        step = learner.step

        def timed_step(x_ext, d_t):
            out = step(x_ext, d_t)
            self._ends.append(perf_counter_ns())
            return out

        learner.step = timed_step

    def latencies_us(self, kind: str) -> list[np.ndarray]:
        """Completed step latencies of each ``kind`` learner, in µs (a step
        cut short by a divergence has no end and is left out)."""
        return [(np.frombuffer(ends, dtype=np.int64)
                 - np.frombuffer(starts, dtype=np.int64)[:len(ends)]) / 1e3
                for k, starts, ends, _ in self.records if k == kind]

    def norm_err(self) -> dict:
        """Lockstep mode: final time-normalized error of each collapsed learner."""
        return {kind: float(np.mean(e2)) for kind, _, _, e2 in self.records if len(e2)}


class Tracer:
    """Spans around every call into a pwltree layer, kept in memory.

    Each span records its name, start, end and parent span.  A learner's
    ``predict`` (or, in lockstep, the collapsed learner's ``step``) opens a
    step; the learner spans of one step share its step id, and spans
    outside a step carry -1.  Around each tree-learner ``predict`` the
    learner's own work counters are read, so per-step counts are measured
    where the work happens.  Wrapper overhead falls in the caller's self
    time.
    """

    COLUMNS = ("id", "parent", "name", "start", "end", "step")

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.columns = {key: array("q") for key in self.COLUMNS}
        self._stack: list[int] = []
        self._next_id = 0
        self._open_steps = 0
        self.step = -1
        self.counts = {layer: dict.fromkeys(COUNTERS, 0) for layer in ("fixed_tree", "adaptive_tree")}
        self.tree_learners = []  # (layer, learner): every instance whose counters were read
        self.partitions = []  # partition count of every explicit mixture built

    # -- span recording ------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, opens_step: bool) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        if opens_step:
            if self._open_steps == 0:
                self.step += 1
            self._open_steps += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name_id, t0, t1, opens_step, in_step) -> None:
        self._stack.pop()
        if opens_step:
            self._open_steps -= 1
        cols = self.columns
        cols["id"].append(sid)
        cols["parent"].append(parent)
        cols["name"].append(name_id)
        cols["start"].append(t0)
        cols["end"].append(t1)
        cols["step"].append(self.step if in_step else -1)

    def wrap(self, name, fn, opens_step=False, in_step=False):
        name_id = self._name_id(name)

        def spanned(*args, **kwargs):
            sid, parent = self._open(opens_step)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name_id, t0, perf_counter_ns(), opens_step, in_step)

        return spanned

    def _wrap_rho_table(self, fn):
        """``trees.rho_table`` spans, named by whether the call missed the
        lru cache (a cold build) or hit it."""
        cold_id = self._name_id("trees.rho_table")
        warm_id = self._name_id("trees.rho_table.cached")
        cache = trees.rho_table

        def spanned(depth):
            misses = cache.cache_info().misses
            sid, parent = self._open(False)
            t0 = perf_counter_ns()
            try:
                return fn(depth)
            finally:
                t1 = perf_counter_ns()
                cold = cache.cache_info().misses > misses
                self._close(sid, parent, cold_id if cold else warm_id, t0, t1, False, False)

        return spanned

    def _wrap_counted_predict(self, layer, learner, spanned):
        counts = self.counts[layer]

        def counted(x_ext):
            kappa, regs = learner.kappa_accumulations, learner.regressor_evaluations
            pred = spanned(x_ext)
            counts["kappa_accumulations"] += learner.kappa_accumulations - kappa
            counts["regressor_evaluations"] += learner.regressor_evaluations - regs
            return pred

        return counted

    def patches(self) -> list:
        wrap = self.wrap
        out = [(cli, "main", wrap("cli.main", cli.main))]
        for name in ("run_experiment", "run_stream", "average_metrics", "write_metrics_csv",
                     "write_summary_json", "make_learner", "verify_equivalence"):
            out.append((harness, name, wrap(f"harness.{name}", getattr(harness, name))))
        out.append((harness, "generate", wrap("datagen.generate", harness.generate)))
        for module in (fixed_tree, adaptive_tree):
            out.append((module, "rho_table", self._wrap_rho_table(module.rho_table)))
        for module in (fixed_tree, adaptive_tree, mixture):
            out.append((module, "initial_directions",
                        wrap("separators.initial_directions", module.initial_directions)))
        for name in ("enumerate_partitions", "membership_matrix"):
            out.append((mixture, name, wrap(f"trees.{name}", getattr(mixture, name))))
        return out

    def build(self, cls, args, kwargs):
        layer, kind = LEARNERS[cls.__name__]
        learner = self.wrap(f"{layer}.{cls.__name__}", cls)(*args, **kwargs)
        prefix = f"baselines.{kind}" if layer == "baselines" else layer
        methods = ["predict", "update", "step"]
        if kind == "dat":
            methods += ["update_weights", "update_boundaries", "boundary_factors"]
        for method in methods:
            # the explicit mixture only ever runs inside the collapsed learner's step
            opens_step = method in ("predict", "step") and kind != "direct"
            spanned = self.wrap(f"{prefix}.{method}", getattr(learner, method),
                                opens_step=opens_step, in_step=True)
            if method == "predict" and kind in TREE_KINDS:
                spanned = self._wrap_counted_predict(layer, learner, spanned)
            setattr(learner, method, spanned)
        if kind in TREE_KINDS:
            self.tree_learners.append((layer, learner))
        elif kind == "direct":
            self.partitions.append(len(learner.partitions))
        return learner

    # -- results ---------------------------------------------------------
    def arrays(self) -> dict:
        return {key: np.frombuffer(col, dtype=np.int64) for key, col in self.columns.items()}

    def counter_problems(self) -> list[str]:
        """Differences between the counts read at the predict boundary and
        the learners' own counters (both must be exact)."""
        problems = []
        for layer, counts in self.counts.items():
            for counter, measured in counts.items():
                own = sum(getattr(learner, counter) for lay, learner in self.tree_learners if lay == layer)
                if own != measured:
                    problems.append(f"{layer}.{counter}: traced {measured}, learners {own}")
        return problems

    def layer_metrics(self, wall_ns: int) -> dict:
        """Per-layer metrics over every recorded span; ``wall_ns`` is the
        time the traced rounds spent inside calls into pwltree."""
        cols = self.arrays()
        n_names = len(self.names)
        dur = (cols["end"] - cols["start"]).astype(float)
        index_of = np.empty(self._next_id, dtype=np.int64)
        index_of[cols["id"]] = np.arange(len(dur))
        nested = cols["parent"] >= 0
        parent_idx = index_of[cols["parent"][nested]]
        child = np.bincount(parent_idx, weights=dur[nested], minlength=len(dur))
        self_ns = dur - child
        calls = np.bincount(cols["name"], minlength=n_names)
        total = np.bincount(cols["name"], weights=dur, minlength=n_names)
        self_total = np.bincount(cols["name"], weights=self_ns, minlength=n_names)

        def calls_of(name):
            i = self._name_ids.get(name)
            return int(calls[i]) if i is not None else 0

        def per_call(name, scale, totals=total):
            i = self._name_ids.get(name)
            return float(totals[i] / calls[i] / scale) if calls_of(name) else 0.0

        out = {}
        for name in ("adaptive_tree.predict", "adaptive_tree.update_weights",
                     "adaptive_tree.update_boundaries", "adaptive_tree.boundary_factors",
                     "fixed_tree.predict", "fixed_tree.update", "mixture.predict", "mixture.update"):
            out[f"{name}_us"] = per_call(name, 1e3)
        for kind in ("lf", "gkr"):
            out[f"baselines.{kind}_step_us"] = (per_call(f"baselines.{kind}.predict", 1e3)
                                                + per_call(f"baselines.{kind}.update", 1e3))
        # steps inside run_stream: learner predict spans whose parent is a run_stream span
        run_stream = self._name_ids.get("harness.run_stream")
        predicts = [i for i, n in enumerate(self.names) if n.endswith(".predict")]
        in_run_stream = np.zeros(len(dur), dtype=bool)
        in_run_stream[nested] = cols["name"][parent_idx] == run_stream
        steps = int(np.count_nonzero(in_run_stream & np.isin(cols["name"], predicts)))
        out["harness.run_stream_self_us"] = float(self_total[run_stream] / steps / 1e3) if steps else 0.0
        out["harness.run_experiment_s"] = per_call("harness.run_experiment", 1e9)
        for name in ("average_metrics", "write_metrics_csv", "write_summary_json"):
            out[f"harness.{name}_ms"] = per_call(f"harness.{name}", 1e6)
        out["cli.self_ms"] = per_call("cli.main", 1e6, totals=self_total)
        out["harness.verify_equivalence_s"] = per_call("harness.verify_equivalence", 1e9)
        out["datagen.generate_ms"] = per_call("datagen.generate", 1e6)
        out["trees.rho_table_ms"] = per_call("trees.rho_table", 1e6)
        out["separators.initial_directions_ms"] = per_call("separators.initial_directions", 1e6)

        for layer, counts in self.counts.items():
            steps = calls_of(f"{layer}.predict")
            for counter, measured in counts.items():
                out[f"{layer}.{counter}_per_step"] = measured / steps if steps else 0.0
        out["mixture.partitions"] = float(np.mean(self.partitions)) if self.partitions else 0.0

        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.int64)
        layer_self = np.bincount(layer_of, weights=self_total, minlength=len(LAYERS))
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.share"] = float(layer_self[i] / wall_ns)
        out["uncovered_share"] = float(1.0 - dur[~nested].sum() / wall_ns)
        return out

    def save(self, path) -> None:
        """Write every span (columns plus the name table) as one ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
