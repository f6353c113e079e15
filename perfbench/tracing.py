"""Spans and counts at the vehicle3d layer boundaries, recorded from outside
the package.

Each traced function is replaced, for the duration of one pass, at the
name its caller looks it up by: `cli` calls its own imported
`refine_ablation`, so wrapping that name records top-level calls only,
while `refine`'s module globals catch the recursive cascade's solves.
A span is [name, start, end, parent index (-1 at top level), result info].
"""
from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name)
PATCHES = (
    ("vehicle3d.cli", "refine_ablation", "refine.refine_ablation"),
    ("vehicle3d.cli", "learn_em", "shape.learn_em"),
    ("vehicle3d.cli", "generate_scene", "scene_io.generate_scene"),
    ("vehicle3d.cli", "parse_labels", "scene_io.parse_labels"),
    ("vehicle3d.cli", "emit_labels", "scene_io.emit_labels"),
    ("vehicle3d.refine", "refine", "refine.refine"),
    ("vehicle3d.refine", "stacked_residuals", "energy.stacked_residuals"),
    ("vehicle3d.refine", "total_energy", "energy.total_energy"),
    ("vehicle3d.metrics", "pr_curve", "metrics.pr_curve"),
    ("vehicle3d.metrics", "iou_3d", "geometry.iou_3d"),
    ("vehicle3d.metrics", "iou_bev", "geometry.iou_bev"),
    ("vehicle3d.metrics", "iou_2d", "geometry.iou_2d"),
    ("vehicle3d.metrics", "label_to_pose", "scene_io.label_to_pose"),
)

_RESULT_INFO = {
    # iterations, accepted steps, converged
    "refine.refine": lambda r: (r.iterations, len(r.energy_path) - 1, bool(r.converged)),
    "shape.learn_em": lambda r: (r.iterations,),
}

# Per-layer metrics of the traced run: (name, unit, better, what it should
# move).  A metric of a layer the workload does not reach reads 0.
LAYER_METRICS = (
    ("energy.stacked_residuals.calls", "count", "lower", "instances_per_s_norm on fit, ablate"),
    ("energy.stacked_residuals.us_p50", "us", "lower", "instances_per_s_norm on fit, ablate"),
    ("energy.stacked_residuals.us_p95", "us", "lower", "instances_per_s_norm on fit, ablate"),
    ("energy.total_energy.calls", "count", "lower", "instances_per_s_norm on fit, ablate (read-out pass)"),
    ("refine.refine.calls", "count", "lower", "instances_per_s_norm on ablate (1500 -> 750 single-pass ladder), fit"),
    ("refine.refine.ms_p50", "ms", "lower", "instances_per_s_norm on fit, ablate"),
    ("refine.refine.ms_p95", "ms", "lower", "instances_per_s_norm on fit, ablate"),
    ("refine.refine_ablation.ms_p50", "ms", "lower", "instances_per_s_norm on fit (top-level calls)"),
    ("refine.refine_ablation.ms_p95", "ms", "lower", "instances_per_s_norm on fit (top-level calls)"),
    ("refine.iterations_p50", "count", "lower", "instances_per_s_norm on fit"),
    ("refine.iterations_p95", "count", "lower", "instances_per_s_norm on fit"),
    ("refine.accept_ratio", "ratio", "higher", "instances_per_s_norm on fit"),
    ("refine.converged_share", "ratio", "higher", "instances_per_s_norm and quality on fit"),
    ("refine.self_share", "ratio", "lower", "instances_per_s_norm on fit"),
    ("geometry.iou_3d.calls", "count", "lower", "instances_per_s_norm on ablate"),
    ("geometry.iou_bev.calls", "count", "lower", "instances_per_s_norm on ablate"),
    ("geometry.iou_2d.calls", "count", "lower", "instances_per_s_norm on ablate"),
    ("geometry.iou_3d.us_p50", "us", "lower", "instances_per_s_norm on ablate"),
    ("geometry.iou_bev.us_p50", "us", "lower", "instances_per_s_norm on ablate"),
    ("metrics.pr_curve.calls", "count", "lower", "instances_per_s_norm on ablate"),
    ("metrics.pr_curve.ms_p50", "ms", "lower", "instances_per_s_norm on ablate"),
    ("metrics.pr_curve.self_share", "ratio", "lower", "instances_per_s_norm on ablate"),
    ("scene_io.label_to_pose.calls", "count", "lower", "instances_per_s_norm on ablate"),
    ("scene_io.generate_scene.ms_p50", "ms", "lower", "setup_s on every workload"),
    ("scene_io.parse_labels.ms_sum", "ms", "lower", "instances_per_s_norm on fit, ablate"),
    ("scene_io.emit_labels.ms_sum", "ms", "lower", "instances_per_s_norm on fit, ablate"),
    ("shape.learn_em.iterations", "count", "lower", "instances_per_s_norm on shape-learn"),
    ("shape.em_iter_ms", "ms", "lower", "instances_per_s_norm on shape-learn"),
    ("cli.self_share", "ratio", "lower", "instances_per_s_norm on every workload"),
    ("trace.overhead", "ratio", "lower", "none: traced pass time over the untraced median"),
    ("quality.failed_share", "ratio", "lower", "ok_share on every workload"),
    ("quality.degenerate_share", "ratio", "lower", "v4 boxes with a printed size <= 0 (fit, ablate)"),
    ("quality.alp_1m_moderate", "percent", "higher", "v4 box quality (fit, ablate)"),
    ("quality.ap3d_0.25_moderate", "percent", "higher", "v4 box quality (fit, ablate)"),
    ("quality.apbev_0.5_moderate", "percent", "higher", "v4 box quality (fit, ablate)"),
    ("quality.em_reproj_rmse_px", "px", "lower", "learned model quality (shape-learn)"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        spans, open_spans = self.spans, self._open
        info = _RESULT_INFO.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()
            if info is not None:
                span[4] = info(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, names=None):
        """Wrap every patch point (or those whose span name is in `names`)
        and restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                if names is not None and name not in names:
                    continue
                module = sys.modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, setup_spans, pass_s: float, untraced_median_s: float,
                  quality: dict) -> dict:
    """Every LAYER_METRICS value from one traced pass (`spans`) and the
    traced set-up (`setup_spans`)."""
    durations = {}
    for name, start, end, _, _ in spans:
        durations.setdefault(name, []).append(end - start)
    own = self_times(spans)

    def calls(name):
        return len(durations.get(name, ()))

    def pct(name, q, scale):
        return _percentile(durations.get(name, []), q) * scale

    def self_share(prefix):
        return sum(t for span, t in zip(spans, own) if span[0].startswith(prefix)) / pass_s

    solves = [span[4] for span in spans if span[0] == "refine.refine"]
    iterations = [s[0] for s in solves]
    em = [span for span in spans if span[0] == "shape.learn_em"]
    em_iterations = sum(span[4][0] for span in em)
    em_ms = sum(span[2] - span[1] for span in em) * 1e3
    top_level = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    setup_durations = [end - start for name, start, end, _, _ in setup_spans
                       if name == "scene_io.generate_scene"]

    values = {
        "energy.stacked_residuals.calls": calls("energy.stacked_residuals"),
        "energy.stacked_residuals.us_p50": pct("energy.stacked_residuals", 50, 1e6),
        "energy.stacked_residuals.us_p95": pct("energy.stacked_residuals", 95, 1e6),
        "energy.total_energy.calls": calls("energy.total_energy"),
        "refine.refine.calls": calls("refine.refine"),
        "refine.refine.ms_p50": pct("refine.refine", 50, 1e3),
        "refine.refine.ms_p95": pct("refine.refine", 95, 1e3),
        "refine.refine_ablation.ms_p50": pct("refine.refine_ablation", 50, 1e3),
        "refine.refine_ablation.ms_p95": pct("refine.refine_ablation", 95, 1e3),
        "refine.iterations_p50": _percentile(iterations, 50),
        "refine.iterations_p95": _percentile(iterations, 95),
        "refine.accept_ratio": (sum(s[1] for s in solves) / sum(iterations)
                                if sum(iterations) else 0.0),
        "refine.converged_share": (sum(s[2] for s in solves) / len(solves)
                                   if solves else 0.0),
        "refine.self_share": self_share("refine."),
        "geometry.iou_3d.calls": calls("geometry.iou_3d"),
        "geometry.iou_bev.calls": calls("geometry.iou_bev"),
        "geometry.iou_2d.calls": calls("geometry.iou_2d"),
        "geometry.iou_3d.us_p50": pct("geometry.iou_3d", 50, 1e6),
        "geometry.iou_bev.us_p50": pct("geometry.iou_bev", 50, 1e6),
        "metrics.pr_curve.calls": calls("metrics.pr_curve"),
        "metrics.pr_curve.ms_p50": pct("metrics.pr_curve", 50, 1e3),
        "metrics.pr_curve.self_share": self_share("metrics.pr_curve"),
        "scene_io.label_to_pose.calls": calls("scene_io.label_to_pose"),
        "scene_io.generate_scene.ms_p50": _percentile(setup_durations, 50) * 1e3,
        "scene_io.parse_labels.ms_sum": sum(durations.get("scene_io.parse_labels", ())) * 1e3,
        "scene_io.emit_labels.ms_sum": sum(durations.get("scene_io.emit_labels", ())) * 1e3,
        "shape.learn_em.iterations": em_iterations,
        "shape.em_iter_ms": em_ms / em_iterations if em_iterations else 0.0,
        "cli.self_share": (pass_s - top_level) / pass_s,
        "trace.overhead": pass_s / untraced_median_s,
    }
    for key in ("failed_share", "degenerate_share", "alp_1m_moderate",
                "ap3d_0.25_moderate", "apbev_0.5_moderate", "em_reproj_rmse_px"):
        value = quality.get(key)
        values["quality." + key] = 0.0 if value is None else value
    return values
