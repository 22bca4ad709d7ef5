"""Spans and counts around the calls into each layer of ``kacrice``.

Nothing under ``src/`` is changed: ``install`` rebinds module and class
attributes to wrappers defined here.  A module-level function is rebound in
every loaded ``kacrice`` module that holds it, so names imported from
another module (``formulas.sine_angle_lines``, ``oracle.sample``) are traced
too.  A helper that no longer exists is recorded as absent; its metrics
read 0 and are named in the trace file.

A span's self time is its duration minus the time covered by its child
spans.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import statistics
import sys
import time


def _bound(func, args, kwargs) -> dict:
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Count hooks: (counts, func, args, kwargs, result) -> None.

def _basis_points(counts, func, args, kwargs, result):
    pts = args[1] if len(args) > 1 else kwargs["pts"]
    counts["fields.basis.points"] += len(pts) if getattr(pts, "ndim", 1) > 1 else 1


def _bisect_steps(counts, func, args, kwargs, result):
    counts["oracle.bisect.steps"] += int(result[1])


def _mc_samples(counts, func, args, kwargs, result):
    n = int(_bound(func, args, kwargs)["n_samples"])
    counts["oracle.mc.samples"] += n
    counts["oracle.mc.excluded"] += n - int(result.n)


def _dedup_roots(counts, func, args, kwargs, result):
    counts["oracle.dedup.roots_in"] += len(args[0])
    counts["oracle.dedup.roots_kept"] += len(result)


def _candidate_pairs(counts, func, args, kwargs, result):
    counts["oracle.segment_grid.candidates.pairs"] += len(result[0])


def _crossings(counts, func, args, kwargs, result):
    count, clean = result
    counts["oracle.crossings.hits"] += int(count)
    counts["oracle.crossings.resampled"] += 0 if clean else 1


def _density_work(counts, func, args, kwargs, result):
    arguments = _bound(func, args, kwargs)
    counts["formulas.density_point.fiber_nodes"] += int(arguments["fiber_nodes"])
    counts["formulas.density_point.jets"] += int(arguments["n_samples"])


# (module, attribute path, span name, count hook, sample kind, rebind everywhere)
# Sample kinds collect per-realization counts for the traced checks.
WRAPPED = [
    ("fields", "sample", "fields.sample", None, None, True),
    ("fields", "MonomialBasis.evaluate", "fields.basis", _basis_points, None, True),
    ("fields", "MonomialBasis.evaluate_and_gradient", "fields.basis", _basis_points, None, True),
    ("oracle", "count_zeros_circle", "oracle.count_zeros_circle", None, "count", True),
    ("oracle", "_circle_roots", "oracle.circle_roots", None, None, True),
    ("oracle", "_bisect_circle", "oracle.bisect", _bisect_steps, None, True),
    ("oracle", "mc_expected_count_seeded", "oracle.mc", _mc_samples, None, True),
    ("oracle", "count_common_zeros_sphere", "oracle.sphere", None, "count", True),
    ("oracle", "_projective_dedup", "oracle.dedup", _dedup_roots, None, True),
    ("oracle", "_sphere_tangent_frames", "oracle.tangent_frames", None, None, True),
    ("oracle", "_SegmentGrid.__init__", "oracle.segment_grid.build", None, None, True),
    ("oracle", "_SegmentGrid.candidates", "oracle.segment_grid.candidates",
     _candidate_pairs, None, True),
    ("oracle", "_count_crossings", "oracle.crossings", _crossings, "crossing", True),
    ("oracle", "haar_rotation", "oracle.rotations", None, None, True),
    ("formulas", "expected_count", "formulas.expected_count", None, None, True),
    ("formulas", "density_point", "formulas.density_point", _density_work, None, True),
    ("formulas", "_conditional_jet_sampler", "formulas.jet_sampler", None, None, True),
    ("formulas", "kinematic_rhs_sphere", "formulas.kinematic_rhs", None, None, True),
    ("linalg", "sine_angle_lines", "linalg.sine_angle_lines", None, None, True),
    ("config", "ExperimentConfig.from_json", "config.parse", None, None, True),
    # Model and curve construction from the config; the sphere experiment
    # calls kostlan_model directly, so only the CLI's binding is traced.
    ("cli", "build_model", "cli.build_model", None, None, True),
    ("cli", "build_curve", "cli.build_model", None, None, True),
    ("cli", "kostlan_model", "cli.build_model", None, None, False),
    ("cli", "write_records", "cli.write_records", None, None, True),
]

# Per-layer metric -> (unit, source, key).  Sources: "self" is the per-operation
# self time of a span, "calls" its number of calls, "count" a hook's counter,
# whose key starts with the name of the span that produces it.
LAYER_METRICS = {
    "fields.sample.calls": ("count", "calls", "fields.sample"),
    "fields.sample.self_s": ("s", "self", "fields.sample"),
    "fields.basis.calls": ("count", "calls", "fields.basis"),
    "fields.basis.points": ("count", "count", "fields.basis.points"),
    "fields.basis.self_s": ("s", "self", "fields.basis"),
    "oracle.circle_roots.calls": ("count", "calls", "oracle.circle_roots"),
    "oracle.circle_roots.self_s": ("s", "self", "oracle.circle_roots"),
    "oracle.bisect.calls": ("count", "calls", "oracle.bisect"),
    "oracle.bisect.steps": ("count", "count", "oracle.bisect.steps"),
    "oracle.bisect.self_s": ("s", "self", "oracle.bisect"),
    "oracle.count_zeros_circle.self_s": ("s", "self", "oracle.count_zeros_circle"),
    "oracle.mc.self_s": ("s", "self", "oracle.mc"),
    "oracle.mc.samples": ("count", "count", "oracle.mc.samples"),
    "oracle.mc.excluded": ("count", "count", "oracle.mc.excluded"),
    "oracle.sphere.calls": ("count", "calls", "oracle.sphere"),
    "oracle.sphere.self_s": ("s", "self", "oracle.sphere"),
    "oracle.dedup.calls": ("count", "calls", "oracle.dedup"),
    "oracle.dedup.roots_in": ("count", "count", "oracle.dedup.roots_in"),
    "oracle.dedup.roots_kept": ("count", "count", "oracle.dedup.roots_kept"),
    "oracle.dedup.self_s": ("s", "self", "oracle.dedup"),
    "oracle.tangent_frames.calls": ("count", "calls", "oracle.tangent_frames"),
    "oracle.tangent_frames.self_s": ("s", "self", "oracle.tangent_frames"),
    "oracle.segment_grid.build_s": ("s", "self", "oracle.segment_grid.build"),
    "oracle.segment_grid.candidates.self_s": ("s", "self", "oracle.segment_grid.candidates"),
    "oracle.segment_grid.pairs": ("count", "count", "oracle.segment_grid.candidates.pairs"),
    "oracle.crossings.self_s": ("s", "self", "oracle.crossings"),
    "oracle.crossings.hits": ("count", "count", "oracle.crossings.hits"),
    "oracle.rotations.drawn": ("count", "calls", "oracle.rotations"),
    "oracle.rotations.resampled": ("count", "count", "oracle.crossings.resampled"),
    "formulas.expected_count.self_s": ("s", "self", "formulas.expected_count"),
    "formulas.density_point.calls": ("count", "calls", "formulas.density_point"),
    "formulas.density_point.self_s": ("s", "self", "formulas.density_point"),
    "formulas.density_point.fiber_nodes": ("count", "count", "formulas.density_point.fiber_nodes"),
    "formulas.density_point.jets": ("count", "count", "formulas.density_point.jets"),
    "formulas.jet_sampler.self_s": ("s", "self", "formulas.jet_sampler"),
    "formulas.kinematic_rhs.self_s": ("s", "self", "formulas.kinematic_rhs"),
    "linalg.sine_angle_lines.self_s": ("s", "self", "linalg.sine_angle_lines"),
    "config.parse.self_s": ("s", "self", "config.parse"),
    "cli.build_model.self_s": ("s", "self", "cli.build_model"),
    "cli.write_records.self_s": ("s", "self", "cli.write_records"),
}
OVERHEAD_METRIC = "trace.overhead_pct"
# Spans are kept for the first few traced operations only (a circle
# operation makes thousands); aggregates cover every traced operation.
SPAN_OPS = 3


class Tracer:
    """Span stack, per-operation aggregates and per-realization samples."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []   # (op, span id, parent id, name, start, end)
        self._next_id = 0
        self._stack: list[list] = []   # [span id, child time] of open spans
        self.op = -1
        self.self_time: list[collections.Counter] = []
        self.calls: list[collections.Counter] = []
        self.counts: list[collections.Counter] = []
        self.samples: list[list[tuple[int, bool]]] = []
        self.wrapped: set[str] = set()
        self.absent: list[str] = []

    def begin_op(self):
        self.op += 1
        self.self_time.append(collections.Counter())
        self.calls.append(collections.Counter())
        self.counts.append(collections.Counter())
        self.samples.append([])
        self.enabled = True

    def end_op(self):
        self.enabled = False

    def wrap(self, name, func, hook=None, sample_kind=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                if tracer.op < SPAN_OPS:
                    tracer.spans.append((tracer.op, span_id, parent, name, start, end))
                tracer.self_time[-1][name] += duration - frame[1]
                tracer.calls[-1][name] += 1
            if hook is not None:
                hook(tracer.counts[-1], func, args, kwargs, result)
            if sample_kind == "count":
                tracer.samples[-1].append((int(result.count), bool(result.flagged)))
            elif sample_kind == "crossing" and result[1]:
                tracer.samples[-1].append((int(result[0]), False))
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Rebind every attribute in WRAPPED; ``modules`` maps short names to modules."""
        for mod_name, path, span, hook, sample_kind, everywhere in WRAPPED:
            owner = modules.get(mod_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.absent.append(f"{mod_name}.{path}")
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(span, raw.__func__, hook, sample_kind)))
            elif isinstance(owner, type) or not everywhere:
                setattr(owner, attr, self.wrap(span, raw, hook, sample_kind))
            else:
                wrapper = self.wrap(span, raw, hook, sample_kind)
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").split(".")[0] == "kacrice"
                            and vars(mod).get(attr) is raw):
                        setattr(mod, attr, wrapper)
            self.wrapped.add(span)

    def metrics(self) -> dict:
        """Per-layer metrics per operation: the median over the traced operations
        (for counts, the lower median, so a count stays a whole number)."""
        out = {}
        for metric, (unit, source, key) in LAYER_METRICS.items():
            table = {"self": self.self_time, "calls": self.calls, "count": self.counts}[source]
            values = [per_op[key] for per_op in table] or [0]
            if unit == "s":
                out[metric] = {"value": float(statistics.median(values)), "unit": unit}
            else:
                out[metric] = {"value": statistics.median_low(values), "unit": unit}
        return out

    def absent_metrics(self) -> list[str]:
        missing = {span for _, _, span, *_ in WRAPPED} - self.wrapped
        return sorted(m for m, (_, _, key) in LAYER_METRICS.items()
                      if any(key == s or key.startswith(s + ".") for s in missing))

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["absent_helpers"] = self.absent
        doc["absent_metrics"] = self.absent_metrics()
        doc["per_op"] = [
            {"self_s": dict(s), "calls": dict(c), "counts": dict(n)}
            for s, c, n in zip(self.self_time, self.calls, self.counts)
        ]
        doc["span_fields"] = ["op", "id", "parent", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
