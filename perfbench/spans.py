"""Span tracer for the traced benchmark run.

Wrappers are bound where each name is *used*: the package imports with
``from .x import f``, so replacing ``signal_core.stft`` would miss the
``stft`` that ``vocoder`` already holds. Each entry of ``SITES`` names the
module attribute to replace and the metric prefix it reports under, which
is the module that defines the function.

Only ``run.py --trace 1`` imports this module. Wrappers are installed for
one traced operation at a time and removed after it, so untraced
operations run the unmodified package.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from prosovc import diffusion, encoders, evaluate, pipeline, signal_core, vocoder

# (module whose attribute is replaced, attribute, metric prefix)
SITES = [
    (pipeline, "highpass_filter", "signal_core.highpass_filter"),
    (pipeline, "mel_spectrogram", "signal_core.mel_spectrogram"),
    (pipeline, "extract_prosody", "prosody.extract_prosody"),
    (pipeline, "unitize", "prosody.unitize"),
    (pipeline, "train_unit_codebook", "prosody.train_unit_codebook"),
    (pipeline, "f0_mean_transfer", "transform.f0_mean_transfer"),
    (pipeline, "modulate", "transform.modulate"),
    (pipeline, "conversion_rate", "transform.conversion_rate"),
    (pipeline, "speaker_embedding", "encoders.speaker_embedding"),
    (pipeline, "average_mel_target", "encoders.average_mel_target"),
    (pipeline, "build_style", "conditioning.build_style"),
    (pipeline, "build_condition", "conditioning.build_condition"),
    (pipeline, "predict_noise", "diffusion.predict_noise"),
    (pipeline, "reverse_sample", "diffusion.reverse_sample"),
    (pipeline, "train_step", "diffusion.train_step"),
    (pipeline, "resample_mel", "rate_control.resample_mel"),
    (pipeline, "mel_to_linear", "vocoder.mel_to_linear"),
    (pipeline, "griffin_lim", "vocoder.griffin_lim"),
    (pipeline, "read_pfck", "formats.read_pfck"),
    (pipeline, "write_pfck", "formats.write_pfck"),
    (vocoder, "stft", "signal_core.stft"),
    (vocoder, "istft", "signal_core.istft"),
    (diffusion, "cond_forward_cache", "conditioning.cond_forward_cache"),
    (diffusion, "cond_backward", "conditioning.cond_backward"),
    (evaluate, "convert", "pipeline.convert"),
    (evaluate, "extract_features", "pipeline.extract_features"),
    # the benchmark's own calls, which it makes through these attributes
    (signal_core, "load_wav", "signal_core.load_wav"),
    (signal_core, "save_wav", "signal_core.save_wav"),
    (encoders, "load_alignment", "encoders.load_alignment"),
    (pipeline, "load_bundle", "pipeline.load_bundle"),
    (pipeline, "save_bundle", "pipeline.save_bundle"),
    (pipeline, "convert", "pipeline.convert"),
    (pipeline, "train_toy", "pipeline.train_toy"),
    (evaluate, "modulation_sweep", "evaluate.modulation_sweep"),
]

FUNCTIONS = sorted({name for _, _, name in SITES})

RATIOS = {
    "diffusion.steps_per_request": "steps/request",
    "vocoder.gl_iters_per_request": "iters/request",
    "prosody.analyses_per_level": "analyses/level",
    "trace_overhead_frac": "ratio",
}

# Share of a span that its children, or of an operation that its root
# spans, must cover for the per-layer numbers to account for the wall time.
MIN_COVERAGE = 0.9

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Records spans [name, start_ns, end_ns, parent index, request id] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self._request]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    @contextmanager
    def active(self, request):
        """Install every wrapper for the duration of one operation."""
        saved = []
        self._request = request
        try:
            for module, attr, name in SITES:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self._request = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def analyse(spans, op_walls_ns: dict) -> tuple[dict, dict, list[str]]:
    """Self time and call count per function, coverage figures, and violations.

    op_walls_ns maps each request id to the wall time the benchmark measured
    around that operation.
    """
    child_ns = [0] * len(spans)
    problems = []
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            outer = spans[parent]
            if span[START] < outer[START] or span[END] > outer[END]:
                problems.append(f"span {span[NAME]} lies outside its parent {outer[NAME]}")
            child_ns[parent] += span[END] - span[START]
    self_s = dict.fromkeys(FUNCTIONS, 0.0)
    calls = dict.fromkeys(FUNCTIONS, 0)
    covered = {"pipeline.convert": [0, 0], "pipeline.train_toy": [0, 0]}
    root_ns = dict.fromkeys(op_walls_ns, 0)
    for span, children in zip(spans, child_ns):
        duration = span[END] - span[START]
        own = duration - children
        if own < 0:
            problems.append(f"span {span[NAME]} has negative self time {own} ns")
        self_s[span[NAME]] += own * 1e-9
        calls[span[NAME]] += 1
        if span[NAME] in covered:
            covered[span[NAME]][0] += children
            covered[span[NAME]][1] += duration
        if span[PARENT] < 0:
            root_ns[span[REQUEST]] += duration
    coverage = {f"{name}.child_coverage": c / d for name, (c, d) in covered.items() if d}
    coverage["ops.root_coverage"] = min(root_ns[r] / op_walls_ns[r] for r in op_walls_ns)
    for key, value in coverage.items():
        if value < MIN_COVERAGE:
            problems.append(f"{key} is {value:.3f}, below {MIN_COVERAGE}")
    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = calls[name]
    return metrics, coverage, problems
