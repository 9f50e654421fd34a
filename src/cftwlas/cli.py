"""Command-line front end: campaign execution, single estimates, bound
evaluation, and flop models.

External files use meters and seconds; clock offsets are given in seconds and
drifts in parts-per-million, converted internally to the meter-scaled
representation. Campaign results are emitted as a CSV of per-cell rows plus a
JSON summary embedding the fully resolved configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .analysis import crlb, flops_cftwlas, flops_iterative_per_iter
from .errors import ConfigurationError, GeometryError
from .estimator import estimate
from .montecarlo import (
    CampaignStats,
    benchmark_config,
    config_from_dict,
    config_to_dict,
    run_campaign,
)
from .scenario import SPEED_OF_LIGHT, AnchorSet, MeasurementSet, NoiseSpec, UdState
from .scenario import _check_sizes, noise_for_snr

CSV_COLUMNS = [
    "method",
    "snr_db",
    "an_count",
    "runs",
    "rmse_pos_m",
    "rmse_vel_mps",
    "rmse_b_m",
    "rmse_w_mps",
    "crlb_pos_m",
    "large_error_rate",
    "fallback_rate",
    "wall_s",
]


def _fmt(value: float) -> str:
    return format(value, ".9g") if isinstance(value, float) else str(value)


def _cell_dicts(stats: CampaignStats, include_timing: bool) -> list[dict]:
    """Per-cell summary records, stable-ordered by (method, SNR, anchor count).

    Measured wall time varies between runs, so it is zeroed unless timing was
    explicitly requested; this keeps default output reproducible byte for byte
    for a fixed seed.
    """
    cells = []
    for cell in stats.cells:  # cells are already sorted
        cells.append(
            {
                "method": cell.method,
                "snr_db": cell.snr_db if math.isfinite(cell.snr_db) else "inf",
                "an_count": cell.an_count,
                "runs": cell.runs,
                "rmse_pos_m": cell.rmse.pos,
                "rmse_vel_mps": cell.rmse.vel,
                "rmse_b_m": cell.rmse.offset,
                "rmse_w_mps": cell.rmse.drift,
                "raw_rmse_pos_m": cell.raw_rmse.pos if cell.raw_rmse else None,
                "crlb_pos_m": cell.crlb_mean.pos,
                "crlb_vel_mps": cell.crlb_mean.vel,
                "crlb_b_m": cell.crlb_mean.offset,
                "crlb_w_mps": cell.crlb_mean.drift,
                "large_error_rate": cell.large_error_rate,
                "fallback_rate": cell.fallback_rate,
                "failure_rate": cell.failure_rate,
                "flops_per_call": cell.flops_per_call,
                "mean_iterations": cell.mean_iterations,
                "wall_s": cell.wall_s if include_timing else 0.0,
            }
        )
    return cells


def _write_csv(path: str, cells: list[dict]) -> None:
    """One CSV row per cell record: its ``CSV_COLUMNS``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for cell in cells:
            writer.writerow([_fmt(cell[col]) for col in CSV_COLUMNS])


def _load_json(path: str) -> dict:
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ConfigurationError(f"{context}: missing key '{key}'")
    return data[key]


def _numbers(data: dict, key: str, context: str, scalar: bool = False):
    """``data[key]`` as a float array, or a float when ``scalar``, naming
    the file and key when it holds something else or a value that is not
    finite (JSON ``null`` reads as NaN, ``1e999`` as infinity, and an
    integer too large for a double overflows)."""
    value = _require(data, key, context)
    try:
        numbers = float(value) if scalar else np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{context}: key '{key}': {exc}") from exc
    if not np.isfinite(numbers).all():
        raise ConfigurationError(f"{context}: key '{key}': values must be finite")
    return numbers


def _state_from_dict(data: dict, context: str) -> UdState:
    pos = _numbers(data, "pos_m", context)
    vel = _numbers(data, "vel_mps", context)
    offset = _numbers(data, "offset_s", context, scalar=True) * SPEED_OF_LIGHT
    drift = _numbers(data, "drift_ppm", context, scalar=True) * 1e-6 * SPEED_OF_LIGHT
    return UdState(pos, vel, offset, drift)


def _state_to_dict(state: UdState) -> dict:
    return {
        "pos_m": state.pos.tolist(),
        "vel_mps": state.vel.tolist(),
        "offset_s": state.offset / SPEED_OF_LIGHT,
        "drift_ppm": state.drift / SPEED_OF_LIGHT * 1e6,
    }


def _anchors_from_dict(data: dict, context: str) -> AnchorSet:
    positions = _numbers(data, "anchors", context)
    schedule = _numbers(data, "schedule_s", context)
    return AnchorSet(positions, schedule)


def _noise_from_dict(data: dict, count: int, context: str) -> NoiseSpec:
    sigma_req = _numbers(data, "sigma_request_m", context)
    if sigma_req.ndim == 0:
        sigma_req = np.full(count, float(sigma_req))
    sigma_resp = _numbers(data, "sigma_response_m", context, scalar=True)
    return NoiseSpec(sigma_req, sigma_resp)


def _emit(payload: dict, output: str | None) -> None:
    """Write a result as indented JSON to ``output``, or print it."""
    text = json.dumps(payload, indent=2)
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_simulate(args) -> int:
    if args.config:
        cfg = config_from_dict(_load_json(args.config))
    elif args.preset == "benchmark":
        cfg = benchmark_config()
    else:
        raise ConfigurationError("simulate needs --config FILE or --preset benchmark")
    overrides = {
        key: getattr(args, key) for key in ("seed", "runs", "workers")
        if getattr(args, key) is not None
    }
    if overrides:
        cfg = config_from_dict({**config_to_dict(cfg), **overrides})

    # An output path that cannot be written fails now, not after the runs.
    for path in (args.csv, args.summary):
        open(path, "a").close()
    cells = _cell_dicts(run_campaign(cfg), args.timing)
    _write_csv(args.csv, cells)
    summary = {
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "timing_included": args.timing,
        "cells": cells,
    }
    _emit(summary, args.summary)
    print(f"wrote {len(cells)} rows to {args.csv} and summary to {args.summary}")
    return 0


def _cmd_estimate(args) -> int:
    data = _load_json(args.input)
    context = args.input
    anchors = _anchors_from_dict(data, context)
    meas = MeasurementSet(
        _numbers(data, "request_toa_m", context),
        _numbers(data, "response_toa_m", context),
    )
    noise = _noise_from_dict(data, anchors.count, context)
    truth = None
    if "truth" in data:
        truth = _state_from_dict(data["truth"], f"{context}: truth")
        _check_sizes(anchors, state=truth)
    report = estimate(meas, anchors, noise, refine_steps=args.refine_steps)
    payload = {
        "raw": _state_to_dict(report.raw) if report.raw else None,
        "refined": _state_to_dict(report.refined) if report.refined else None,
        "flags": asdict(report.flags),
        "candidates": len(report.candidates),
    }
    if truth is not None and report.refined is not None:
        payload["position_error_m"] = float(
            np.linalg.norm(report.refined.pos - truth.pos)
        )
    _emit(payload, args.output)
    return 0


def _cmd_crlb(args) -> int:
    data = _load_json(args.input)
    context = args.input
    anchors = _anchors_from_dict(data, context)
    state = _state_from_dict(_require(data, "ud", context), f"{context}: ud")
    if "snr_db" in data:
        snr_db = _numbers(data, "snr_db", context, scalar=True)
        noise = noise_for_snr(state, anchors, snr_db)
    else:
        noise = _noise_from_dict(data, anchors.count, context)
    result = crlb(state, anchors, noise)
    payload = {
        "pos_rmse_bound_m": math.sqrt(result.blocks.pos),
        "vel_rmse_bound_mps": math.sqrt(result.blocks.vel),
        "offset_rmse_bound_m": math.sqrt(result.blocks.offset),
        "drift_rmse_bound_mps": math.sqrt(result.blocks.drift),
        "crlb_matrix": result.crlb.tolist(),
    }
    _emit(payload, args.output)
    return 0


def _cmd_flops(args) -> int:
    print(f"cftwlas_flops={flops_cftwlas(args.dims, args.anchors)}")
    print(
        "iterative_flops_per_iteration="
        f"{flops_iterative_per_iter(args.dims, args.anchors)}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cftwlas",
        description="Two-way TOA localization and synchronization toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte-Carlo campaign")
    sim.add_argument("--config", help="campaign configuration JSON file")
    sim.add_argument(
        "--preset",
        choices=["benchmark"],
        help="use a built-in configuration instead of --config",
    )
    sim.add_argument("--seed", type=int, help="override the master seed")
    sim.add_argument("--runs", type=int, help="override runs per cell")
    sim.add_argument("--workers", type=int, help="override worker processes")
    sim.add_argument("--csv", default="campaign.csv", help="output CSV path")
    sim.add_argument("--summary", default="campaign.json", help="summary JSON path")
    sim.add_argument(
        "--timing",
        action="store_true",
        help="include measured wall time (breaks byte-level reproducibility)",
    )
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="estimate from a measurement file")
    est.add_argument("--input", required=True, help="measurement JSON file")
    est.add_argument("--output", help="write result JSON here instead of stdout")
    est.add_argument("--refine-steps", type=int, default=1)
    est.set_defaults(func=_cmd_estimate)

    bound = sub.add_parser("crlb", help="evaluate the estimation bound")
    bound.add_argument("--input", required=True, help="scenario JSON file")
    bound.add_argument("--output", help="write result JSON here instead of stdout")
    bound.set_defaults(func=_cmd_crlb)

    flops = sub.add_parser("flops", help="print the flop-count models")
    flops.add_argument("--dims", type=int, default=2)
    flops.add_argument("--anchors", type=int, default=8)
    flops.set_defaults(func=_cmd_flops)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
