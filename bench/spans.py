"""In-memory span recorder wrapped around the library's public calls.

The recorder rebinds the module-level names through which one layer calls
another (``cftwlas.estimator.build_system``, ``cftwlas.montecarlo.crlb``, ...)
to timing wrappers, so spans nest exactly as the calls do without any change
to the library. Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (module, attribute) pairs through which the library calls into its layers.
# The layer of a span is the module that defines the wrapped function.
CALL_SITES = (
    ("cftwlas.cli", "run_campaign"),
    ("cftwlas.montecarlo", "sample_ud_state"),
    ("cftwlas.montecarlo", "forward_model"),
    ("cftwlas.montecarlo", "noise_for_snr"),
    ("cftwlas.montecarlo", "add_noise"),
    ("cftwlas.montecarlo", "crlb"),
    ("cftwlas.montecarlo", "estimate"),
    ("cftwlas.montecarlo", "make_initializer"),
    ("cftwlas.montecarlo", "gauss_newton"),
    ("cftwlas.estimator", "raw_estimate"),
    ("cftwlas.estimator", "wls_refine"),
    ("cftwlas.estimator", "build_system"),
    ("cftwlas.estimator", "coefficients_from_system"),
    ("cftwlas.estimator", "solve_pair_detailed"),
    ("cftwlas.estimator", "compute_residuals"),
    ("cftwlas.estimator", "jacobian"),
    ("cftwlas.estimator", "predict_measurements"),
    ("cftwlas.baseline", "compute_residuals"),
    ("cftwlas.baseline", "jacobian"),
    ("cftwlas.baseline", "predict_measurements"),
    ("cftwlas.analysis", "jacobian"),
)

# A campaign run starts with drawing its device state.
RUN_START = "scenario.sample_ud_state"


def _finite(state) -> bool:
    return state is not None and bool(np.isfinite(state.as_vector()).all())


def _solve_attrs(args, result):
    return {"real": len(result.pairs), "complex": len(result.complex_pairs)}


def _raw_attrs(args, result):
    best, candidates = result
    winner = next(c for c in candidates if c.state is best)
    return {"candidates": len(candidates), "complex_win": winner.from_fallback}


def _estimate_attrs(args, result):
    flags = result.flags
    return {
        "degenerate": flags.degenerate_geometry,
        "no_real_root": flags.no_real_root_fallback,
        "refine_singular": flags.refinement_singular,
        "failed": not _finite(
            result.refined if result.refined is not None else result.raw
        ),
        "an_count": args[1].count,
    }


def _gn_attrs(args, result):
    trace = result[1]
    return {
        "iterations": trace.iterations_used,
        "converged": trace.converged,
        "diverged": trace.diverged,
        "failed": not _finite(result[0]),
        "an_count": args[1].count,
    }


# Counts recorded at the boundary where the work happens.
ATTRS = {
    "polysolve.solve_pair_detailed": _solve_attrs,
    "estimator.raw_estimate": _raw_attrs,
    "estimator.estimate": _estimate_attrs,
    "baseline.gauss_newton": _gn_attrs,
}


class Tracer:
    """Records (id, name, start, end, parent, run id, attrs) per call."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._sites: list[tuple] = []
        self._campaign_runs = 0

    def wrap(self, fn):
        """``fn`` recording a span named ``<layer>.<function>`` per call."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        attrs_of = ATTRS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if name == RUN_START:
                self._campaign_runs += 1
                self.run_id = -self._campaign_runs
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                attrs = {"error": error} if error else {}
                if attrs_of is not None and error is None:
                    attrs.update(attrs_of(args, result))
                spans[sid] = (sid, name, start, end, parent, self.run_id, attrs)

        return traced

    def install(self) -> None:
        """Rebind every call site to its tracing wrapper."""
        if not self._sites:
            for module_name, attr in CALL_SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._sites.append((module, attr, original, self.wrap(original)))
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for sid, name, start, end, parent, run, attrs in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "run": run, **attrs,
                }) + "\n")


class SpanIndex:
    """Durations, self times and children of recorded spans, in microseconds."""

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        for sid, _, _, _, parent, _, _ in spans:
            if parent >= 0:
                self.children[parent].append(sid)

    def duration_us(self, sid: int) -> float:
        span = self.spans[sid]
        return (span[3] - span[2]) / 1e3

    def self_us(self, sid: int) -> float:
        return self.duration_us(sid) - sum(
            self.duration_us(c) for c in self.children[sid]
        )

    def named(self, name: str) -> list[int]:
        return [s[0] for s in self.spans if s[1] == name]

    def durations_us(self, name: str) -> np.ndarray:
        return np.array([self.duration_us(s) for s in self.named(name)])

    def descendants(self, sid: int) -> list[int]:
        out, todo = [], list(self.children[sid])
        while todo:
            child = todo.pop()
            out.append(child)
            todo.extend(self.children[child])
        return out

    def layer_self_us(self, roots: list[int]) -> dict[str, np.ndarray]:
        """Per root span, the self time of each layer in its subtree."""
        per_layer: dict[str, list[float]] = defaultdict(lambda: [0.0] * len(roots))
        for i, root in enumerate(roots):
            for sid in [root, *self.descendants(root)]:
                layer = self.spans[sid][1].split(".", 1)[0]
                per_layer[layer][i] += self.self_us(sid)
        return {layer: np.array(vals) for layer, vals in per_layer.items()}
