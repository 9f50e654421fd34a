"""Workloads, input synthesis, timed passes and correctness checks.

Load is closed-loop from one client process: every call starts after the
previous one returned. Campaigns at ``workers=2`` start two worker processes
through the library's own pool, and the client waits while they run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import calibration
from cftwlas import cli
from cftwlas.baseline import gauss_newton, make_initializer
from cftwlas.estimator import estimate
from cftwlas.montecarlo import CampaignConfig, MethodSpec, run_campaign
from cftwlas.scenario import (
    AnchorSet,
    MeasurementSet,
    NoiseSpec,
    UdState,
    add_noise,
    build_square_scenario,
    forward_model,
    noise_for_snr,
    sample_ud_state,
)

CF = ("cftwlas", 50.0)
GN50 = ("gauss_newton", 50.0)
GN200 = ("gauss_newton", 200.0)
# Workloads whose campaign runs no Gauss-Newton method still time this one in
# their per-call pass, so every workload reports the closed form next to GN.
# The traced run's GN overhead and closed-form/GN ratios use this method.
GN_REFERENCE = MethodSpec(kind="gauss_newton", init_std_m=50.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    an_counts: tuple[int, ...]
    snr_db: tuple[float, ...]
    methods: tuple[tuple[str, float], ...]  # (kind, init_std_m)
    runs: int  # runs per cell of one campaign
    call_runs: int  # runs per cell timed call by call; the first ``runs`` match
    workers: int
    via_cli: bool

    def config_dict(self, seed: int, runs: int, workers: int | None = None) -> dict:
        """The campaign as the JSON config that ``cftwlas simulate`` reads."""
        return {
            "an_counts": list(self.an_counts),
            "snr_db": list(self.snr_db),
            "runs": runs,
            "seed": seed,
            "workers": self.workers if workers is None else workers,
            "methods": [
                {"kind": kind} if kind == "cftwlas"
                else {"kind": kind, "init_std_m": init}
                for kind, init in self.methods
            ],
        }

    def config(self, seed: int, runs: int) -> CampaignConfig:
        return CampaignConfig(
            an_counts=self.an_counts,
            snr_db=self.snr_db,
            runs=runs,
            seed=seed,
            workers=self.workers,
            methods=tuple(MethodSpec(kind=k, init_std_m=i) for k, i in self.methods),
        )

    def call_methods(self, cfg: CampaignConfig) -> list[tuple[int, MethodSpec]]:
        """Methods of the per-call pass with their campaign stream index."""
        methods = list(enumerate(cfg.methods))
        if all(spec.kind != "gauss_newton" for _, spec in methods):
            methods.append((len(methods), GN_REFERENCE))
        return methods


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="cf_8an_30db",
            why="criterion-2 cell, closed form only: the estimate() hot path, "
            "mostly 4-root polysolve calls; GN only as a per-call reference",
            an_counts=(8,),
            snr_db=(30.0,),
            methods=(CF,),
            runs=250,
            call_runs=1000,
            workers=1,
            via_cli=False,
        ),
        Workload(
            name="contrast_8an_3method",
            why="benchmark preset's 3 methods at 10 and 30 dB: GN, jacobian and "
            "predict carry 2/3 of the work; hardest root mix at 10 dB",
            an_counts=(8,),
            snr_db=(10.0, 30.0),
            methods=(CF, GN50, GN200),
            runs=50,
            call_runs=500,
            workers=1,
            via_cli=False,
        ),
        Workload(
            name="sweep_small_w2",
            why="12 small cells through cli.main at workers=2: pool start-up, "
            "synthesis, small-M crlb and CSV output carry the largest share",
            an_counts=(4, 5),
            snr_db=(10.0, 18.0, 26.0, 34.0, 42.0, 50.0),
            methods=(CF,),
            runs=100,
            call_runs=100,
            workers=2,
            via_cli=True,
        ),
    )
}


class CheckFailed(Exception):
    """A correctness check of the benchmark did not hold."""


@dataclass(frozen=True)
class RunInput:
    run: int
    snr_db: float
    anchors: AnchorSet
    truth: UdState
    meas: MeasurementSet
    noise: NoiseSpec
    inits: dict  # method label -> Gauss-Newton initial state


def make_inputs(
    cfg: CampaignConfig, methods: list[tuple[int, MethodSpec]]
) -> list[RunInput]:
    """Synthesize every campaign run from the seed exactly as the campaign does.

    Run ``(cell, run)`` draws from ``SeedSequence([seed, cell, run, 0])`` and
    method ``mi`` initializes Gauss-Newton from stream ``mi + 1``, so the
    per-call pass sees the same inputs as the campaign pass.
    """
    inputs = []
    cells = [(an, snr) for an in cfg.an_counts for snr in cfg.snr_points]
    for cell, (an_count, snr_db) in enumerate(cells):
        anchors = build_square_scenario(cfg.anchor_side_m, an_count, cfg.response_step_s)
        for run in range(cfg.runs):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, cell, run, 0]))
            truth = sample_ud_state(
                rng,
                cfg.region_side_m,
                cfg.vmax_mps,
                cfg.offset_range_s,
                cfg.drift_range_ppm,
                center=anchors.center,
                ndim=anchors.ndim,
            )
            noise = noise_for_snr(truth, anchors, snr_db, cfg.response_sigma_rule)
            meas = add_noise(forward_model(truth, anchors), noise, rng)
            inits = {}
            for mi, spec in methods:
                if spec.kind == "gauss_newton":
                    method_rng = np.random.default_rng(
                        np.random.SeedSequence([cfg.seed, cell, run, mi + 1])
                    )
                    inits[spec.label] = make_initializer(truth, spec.init_std_m, method_rng)
            inputs.append(
                RunInput(run, snr_db, anchors, truth, meas, noise, inits)
            )
    return inputs


def setup(name: str, seed: int) -> None:
    """What a user pays before the first result: config, anchors, first calls."""
    wl = WORKLOADS[name]
    cfg = wl.config(seed, 1)
    methods = wl.call_methods(cfg)
    inp = make_inputs(cfg, methods)[0]
    for _, spec in methods:
        call_method(spec, inp, estimate, gauss_newton)


def call_method(spec: MethodSpec, inp: RunInput, estimate_fn, gn_fn):
    """One estimation call; returns (state or None, GN iterations or None)."""
    if spec.kind == "cftwlas":
        report = estimate_fn(inp.meas, inp.anchors, inp.noise, refine_steps=spec.refine_steps)
        return (report.refined if report.refined is not None else report.raw), None
    state, trace = gn_fn(
        inp.meas,
        inp.anchors,
        inp.noise,
        inp.inits[spec.label],
        max_iter=spec.max_iter,
        tol=spec.tol_m,
    )
    return state, trace.iterations_used


def finite(state) -> bool:
    return state is not None and bool(np.isfinite(state.as_vector()).all())


# Inputs per timing block of the per-call pass; each block is scaled by the
# host-speed calibration measured right before and after it.
BLOCK_INPUTS = 25


@dataclass
class CallPass:
    """Per-call latencies (ns) with their input and timing block, and the
    result of each input's first call."""

    latency_ns: dict = field(default_factory=lambda: defaultdict(list))
    index: dict = field(default_factory=lambda: defaultdict(list))
    block: dict = field(default_factory=lambda: defaultdict(list))
    first: dict = field(default_factory=lambda: defaultdict(dict))
    block_scale: list = field(default_factory=list)
    calls: int = 0
    failed: int = 0

    def timed_call(self, spec, inputs, idx, estimate_fn, gn_fn) -> None:
        t0 = time.perf_counter_ns()
        state, iterations = call_method(spec, inputs[idx], estimate_fn, gn_fn)
        elapsed = time.perf_counter_ns() - t0
        label = spec.label
        self.latency_ns[label].append(elapsed)
        self.index[label].append(idx)
        self.block[label].append(len(self.block_scale))
        self.first[label].setdefault(idx, (state, iterations))
        self.calls += 1
        self.failed += not finite(state)

    def per_input_us(self, label: str) -> dict:
        """Fastest latency of each input over its visits, in microseconds at
        the reference host speed; a stall that hit one visit drops out."""
        scale = np.take(self.block_scale, self.block[label])
        best: dict = {}
        for idx, lat in zip(self.index[label], np.asarray(self.latency_ns[label]) * scale):
            best[idx] = min(best.get(idx, math.inf), lat / 1e3)
        return best


def per_call_pass(
    inputs: list[RunInput],
    order: np.ndarray,
    methods: list[tuple[int, MethodSpec]],
    visits: int,
) -> CallPass:
    """Time one call at a time, ``visits`` times over ``order``.

    Each input is run through every method in turn, so methods share the
    machine's conditions; calls are grouped in blocks of ``BLOCK_INPUTS``
    inputs between host-speed calibrations.
    """
    out = CallPass()
    before = calibration.kernel_seconds()
    total = visits * len(order)
    for i in range(total):
        idx = int(order[i % len(order)])
        for _, spec in methods:
            out.timed_call(spec, inputs, idx, estimate, gauss_newton)
        if (i + 1) % BLOCK_INPUTS == 0 or i + 1 == total:
            after = calibration.kernel_seconds()
            out.block_scale.append(calibration.scale(before, after))
            before = after
    return out


def paired_pass(
    inputs: list[RunInput],
    order: np.ndarray,
    methods: list[tuple[int, MethodSpec]],
    tracer,
) -> tuple[CallPass, CallPass]:
    """Each call once untraced and once traced, back to back.

    Pairing the two calls on one input under the same machine conditions is
    what makes their difference a measure of the tracing overhead.
    """
    plain, traced = CallPass(), CallPass()
    estimate_traced = tracer.wrap(estimate)
    gn_traced = tracer.wrap(gauss_newton)
    try:
        for i, idx in enumerate(order.tolist()):
            for _, spec in methods:
                # Alternate which call goes first: the second one finds the
                # input's data in cache.
                for traced_now in ((False, True) if i % 2 else (True, False)):
                    if traced_now:
                        tracer.install()
                        tracer.run_id = idx
                        traced.timed_call(spec, inputs, idx, estimate_traced, gn_traced)
                    else:
                        tracer.uninstall()
                        plain.timed_call(spec, inputs, idx, estimate, gauss_newton)
    finally:
        tracer.uninstall()
    plain.block_scale.append(1.0)
    traced.block_scale.append(1.0)
    return plain, traced


# --- campaign pass -----------------------------------------------------------


def cells_from_stats(stats) -> dict:
    return {
        (c.method, c.snr_db, c.an_count): {
            "runs": c.runs,
            "rmse_pos": c.rmse.pos,
            "crlb_pos": c.crlb_mean.pos,
            "large": c.large_error_rate,
            "fail": c.failure_rate,
            "mean_iter": c.mean_iterations,
        }
        for c in stats.cells
    }


def cells_from_summary(summary: dict) -> dict:
    return {
        (c["method"], float(c["snr_db"]), c["an_count"]): {
            "runs": c["runs"],
            "rmse_pos": c["rmse_pos_m"],
            "crlb_pos": c["crlb_pos_m"],
            "large": c["large_error_rate"],
            "fail": c["failure_rate"],
            "mean_iter": c["mean_iterations"],
        }
        for c in summary["cells"]
    }


@dataclass
class CampaignRun:
    wall_s: float
    cells: dict
    signature: object  # compared across repeats: CSV bytes or stats repr
    scale: float = 1.0  # host-speed factor, see calibration


def campaign_once(
    wl: Workload, seed: int, runs: int, outdir: Path, via_cli: bool,
    workers: int | None = None, tag: str = "campaign", cli_main=None,
) -> CampaignRun:
    """One full campaign, through ``cli.main`` or ``run_campaign``."""
    if via_cli:
        cfg_path = outdir / f"{tag}.config.json"
        csv_path = outdir / f"{tag}.csv"
        summary_path = outdir / f"{tag}.summary.json"
        cfg_path.write_text(json.dumps(wl.config_dict(seed, runs, workers)))
        argv = ["simulate", "--config", str(cfg_path), "--csv", str(csv_path),
                "--summary", str(summary_path)]
        main = cli.main if cli_main is None else cli_main
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        wall = time.perf_counter() - t0
        if code != 0:
            raise CheckFailed(f"cftwlas simulate exited with {code}")
        summary = json.loads(summary_path.read_text())
        return CampaignRun(wall, cells_from_summary(summary), csv_path.read_bytes())
    cfg = wl.config(seed, runs)
    if workers is not None:
        cfg = replace(cfg, workers=workers)
    t0 = time.perf_counter()
    stats = run_campaign(cfg)
    wall = time.perf_counter() - t0
    signature = repr([replace(c, wall_s=0.0) for c in stats.cells])
    return CampaignRun(wall, cells_from_stats(stats), signature)


def campaign_pass(
    wl: Workload, seed: int, runs: int, outdir: Path, min_reps: int, budget_s: float
) -> list[CampaignRun]:
    """Repeat the campaign until ``budget_s`` elapsed; every repeat must agree."""
    reps = []
    before = calibration.kernel_seconds()
    while True:
        rep = campaign_once(wl, seed, runs, outdir, wl.via_cli)
        after = calibration.kernel_seconds()
        rep.scale = calibration.scale(before, after)
        before = after
        if reps and rep.signature != reps[0].signature:
            raise CheckFailed(f"campaign repeat {len(reps)} differs from the first")
        reps.append(rep)
        if len(reps) >= min_reps and sum(r.wall_s for r in reps) >= budget_s:
            return reps


# --- accuracy and correctness ------------------------------------------------


def accuracy(cells: dict) -> dict:
    """The seed-fixed accuracy figures of one campaign, with their run counts."""
    cf = [c for (method, _, _), c in cells.items() if method == "cftwlas"]
    cf_runs = sum(c["runs"] for c in cf)
    pairs = sum(c["runs"] for c in cells.values())
    return {
        "cf_rmse_over_crlb": (
            float(np.median([c["rmse_pos"] / c["crlb_pos"] for c in cf])), cf_runs,
        ),
        "cf_large_error_rate": (
            sum(c["large"] * c["runs"] for c in cf) / cf_runs, cf_runs,
        ),
        "failed_share": (
            sum(round(c["fail"] * c["runs"]) for c in cells.values()) / pairs, pairs,
        ),
    }


def check_against_calls(
    cells: dict, inputs: list[RunInput], runs: int, methods, calls: CallPass
) -> None:
    """The campaign's per-cell figures must follow from the per-call results.

    Recomputes, from the first call on the campaign's ``runs`` inputs of
    every cell, each cell's failure
    count, position RMSE and mean GN iterations, so every failed estimate of
    the per-call pass must be counted in the campaign's failure rate.
    """
    for _, spec in methods:
        label = spec.label
        by_cell: dict = {}
        for idx, inp in enumerate(inputs):  # run order, as the campaign sums
            if inp.run >= runs:
                continue
            state, iterations = calls.first[label][idx]
            key = (label, inp.snr_db, inp.anchors.count)
            acc = by_cell.setdefault(key, [np.zeros(4), 0, 0, 0, 0])
            acc[1] += 1
            acc[4] += iterations or 0
            if finite(state):
                err = (state.pos - inp.truth.pos)
                vel = (state.vel - inp.truth.vel)
                acc[0] += [
                    float(np.sum(err**2)), float(np.sum(vel**2)),
                    (state.offset - inp.truth.offset) ** 2,
                    (state.drift - inp.truth.drift) ** 2,
                ]
                acc[2] += 1
            else:
                acc[3] += 1
        for key, (sums, runs, ok, failed, iters) in by_cell.items():
            if key not in cells:
                continue  # a per-call reference method the campaign does not run
            cell = cells[key]
            if round(cell["fail"] * cell["runs"]) != failed:
                raise CheckFailed(f"{key}: {failed} failed calls, campaign counts "
                                  f"{cell['fail'] * cell['runs']:g}")
            rmse = math.sqrt(sums[0] / ok) if ok else math.nan
            if not math.isclose(rmse, cell["rmse_pos"], rel_tol=1e-9):
                raise CheckFailed(f"{key}: per-call RMSE {rmse!r} != campaign "
                                  f"{cell['rmse_pos']!r}")
            if cell["mean_iter"] is not None and not math.isclose(
                iters / runs, cell["mean_iter"], rel_tol=1e-12
            ):
                raise CheckFailed(f"{key}: GN iterations differ from the campaign")


def check_noise_free_recovery() -> int:
    """Noise-free TOAs on a fixed set of states must give back the truth.

    Returns the number of estimates made. Raises CheckFailed on any miss.
    """
    rng = np.random.default_rng(20211107)
    count = 0
    for an_count in (4, 5, 8):
        anchors = build_square_scenario(800.0, an_count)
        unit = NoiseSpec(np.ones(an_count), 1.0)
        for _ in range(8):
            truth = sample_ud_state(rng, 500.0, center=anchors.center)
            report = estimate(forward_model(truth, anchors), anchors, unit)
            count += 1
            if report.refined is None:
                raise CheckFailed(f"noise-free estimate failed ({an_count} anchors)")
            got, want = report.refined.as_vector(), truth.as_vector()
            if np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) > 1e-6:
                raise CheckFailed(f"noise-free estimate off ({an_count} anchors)")
    return count
