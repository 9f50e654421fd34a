"""Seeded Monte-Carlo campaigns: RMSE vs SNR sweeps and anchor-count ablations.

Every run derives its own random stream from the master seed, the cell index,
and the run index, so campaign statistics are bit-identical for a fixed seed
at any parallelism level. Wall-clock measurements are inherently volatile and
are kept separate from the deterministic statistics.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import groupby, repeat

import numpy as np

from .analysis import BlockValues, crlb, flops_cftwlas, flops_iterative_per_iter
# bench/spans.py rebinds gauss_newton and make_initializer here, so both
# names stay importable.
from .baseline import (  # noqa: F401
    _gauss_newton_batch,
    gauss_newton,
    make_initializer,
)
from .errors import ConfigurationError, DegenerateGeometryError
from .estimator import estimate, estimate_batch
from .scenario import (
    _SIGMA_REDUCERS,
    NoiseSpec,
    add_noise,
    build_square_scenario,
    forward_model,
    noise_for_snr,
    sample_ud_state,
)

_METHOD_KINDS = ("cftwlas", "gauss_newton")
# Runs per stacked closed-form or Gauss-Newton batch; bounds its memory.
_BATCH_ROWS = 256


@dataclass(frozen=True)
class MethodSpec:
    """One estimation method to run in a campaign."""

    kind: str = "cftwlas"
    refine_steps: int = 1
    init_std_m: float = 50.0
    max_iter: int = 20
    tol_m: float = 1e-4

    def __post_init__(self) -> None:
        if self.kind not in _METHOD_KINDS:
            raise ConfigurationError(f"unknown method kind {self.kind!r}")
        if self.refine_steps < 1:
            raise ConfigurationError("refine_steps must be >= 1")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")
        for key in ("init_std_m", "tol_m"):
            if not getattr(self, key) >= 0.0:
                raise ConfigurationError(f"{key} must be >= 0")

    @property
    def label(self) -> str:
        if self.kind == "cftwlas":
            return "cftwlas"
        return f"gauss_newton_init{self.init_std_m:g}"


@dataclass(frozen=True)
class CampaignConfig:
    """Scenario, prior, sweep, and execution parameters of one campaign."""

    anchor_side_m: float = 800.0
    an_counts: tuple[int, ...] = (8,)
    response_step_s: float = 0.010
    region_side_m: float = 500.0
    vmax_mps: float = 50.0
    offset_range_s: tuple[float, float] = (0.0, 20e-6)
    drift_range_ppm: tuple[float, float] = (-10.0, 10.0)
    snr_db: tuple[float, ...] = (30.0,)
    noise_free: bool = False
    runs: int = 2000
    seed: int = 0
    methods: tuple[MethodSpec, ...] = (MethodSpec(),)
    response_sigma_rule: str = "mean"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigurationError("runs must be >= 1")
        if not self.noise_free and not self.snr_db:
            raise ConfigurationError("snr_db list must be non-empty")
        if not self.an_counts:
            raise ConfigurationError("an_counts must be non-empty")
        if not self.methods:
            raise ConfigurationError("methods must be non-empty")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        for key in ("region_side_m", "vmax_mps"):
            if not getattr(self, key) >= 0.0:
                raise ConfigurationError(f"{key} must be >= 0")
        for key in ("offset_range_s", "drift_range_ppm"):
            if not all(math.isfinite(bound) for bound in getattr(self, key)):
                raise ConfigurationError(f"{key} bounds must be finite")
        if self.response_sigma_rule not in _SIGMA_REDUCERS:
            raise ConfigurationError(
                f"unknown response_sigma_rule {self.response_sigma_rule!r}"
            )

    @property
    def snr_points(self) -> tuple[float, ...]:
        return (math.inf,) if self.noise_free else tuple(self.snr_db)


def benchmark_config(
    runs: int = 10_000,
    snr_db: tuple[float, ...] = tuple(float(s) for s in range(10, 51, 2)),
    seed: int = 0,
    workers: int = 1,
) -> CampaignConfig:
    """The reference experiment: 800 m anchor square with 8 anchors, device
    prior inside a concentric 500 m square, 10i ms response schedule, offset
    uniform over [0, 20] us, drift uniform over [-10, 10] ppm, speed uniform
    up to 50 m/s; closed-form method plus Gauss-Newton with 50 m and 200 m
    initialization noise."""
    return CampaignConfig(
        snr_db=snr_db,
        runs=runs,
        seed=seed,
        workers=workers,
        methods=(
            MethodSpec(kind="cftwlas"),
            MethodSpec(kind="gauss_newton", init_std_m=50.0),
            MethodSpec(kind="gauss_newton", init_std_m=200.0),
        ),
    )


@dataclass(frozen=True)
class CellStats:
    """Aggregated results of one (method, SNR, anchor-count) cell."""

    method: str
    snr_db: float
    an_count: int
    runs: int
    rmse: BlockValues
    raw_rmse: BlockValues | None
    crlb_mean: BlockValues
    large_error_rate: float
    fallback_rate: float
    failure_rate: float
    flops_per_call: int
    mean_iterations: float | None
    # Volatile: measured solver time, not reproducible. A batch's time is
    # shared evenly over its runs, so a run's share is not its own cost.
    wall_s: float


@dataclass(frozen=True)
class CampaignStats:
    """Deterministic campaign results plus volatile timing."""

    config: CampaignConfig
    cells: tuple[CellStats, ...]

    def cell(self, method: str, snr_db: float, an_count: int) -> CellStats:
        for c in self.cells:
            if c.method == method and c.snr_db == snr_db and c.an_count == an_count:
                return c
        raise KeyError((method, snr_db, an_count))


def _synthesize(cfg: CampaignConfig, anchors, center, snr_db, cell_index, run):
    """One run's truth, measurements, noise and square-rooted bound blocks."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, cell_index, run, 0]))
    ud = sample_ud_state(
        rng,
        cfg.region_side_m,
        cfg.vmax_mps,
        cfg.offset_range_s,
        cfg.drift_range_ppm,
        center=center,
        ndim=anchors.ndim,
    )
    clean = forward_model(ud, anchors)
    if cfg.noise_free:
        noise = NoiseSpec(np.ones(anchors.count), 1.0)
        meas = clean
    else:
        noise = noise_for_snr(ud, anchors, snr_db, cfg.response_sigma_rule)
        meas = add_noise(clean, noise, rng)
    try:
        blocks = crlb(ud, anchors, noise).blocks
        crlb_sqrt = (
            math.sqrt(blocks.pos),
            math.sqrt(blocks.vel),
            math.sqrt(blocks.offset),
            math.sqrt(blocks.drift),
        )
    except DegenerateGeometryError:
        crlb_sqrt = (math.nan,) * 4
    return ud, meas, noise, crlb_sqrt


def _sq_errors(states: np.ndarray, truths: np.ndarray, ndim: int) -> list:
    """Per-block squared errors of K (K, 2N+2) states, None for a row that
    is not finite."""
    sq = (states - truths) ** 2
    pos, vel = sq[:, 0], sq[:, ndim]
    for i in range(1, ndim):
        pos = pos + sq[:, i]
        vel = vel + sq[:, ndim + i]
    blocks = np.stack([pos, vel, sq[:, 2 * ndim], sq[:, 2 * ndim + 1]], axis=1)
    finite = np.isfinite(states).all(axis=1)
    return [tuple(b) if ok else None for b, ok in zip(blocks.tolist(), finite.tolist())]


def _closed_form(spec: MethodSpec, runs, anchors) -> list[tuple]:
    """Method records (fallback, squared block errors, raw squared block
    errors, seconds, iterations) of the closed form on every run, solved
    ``_BATCH_ROWS`` runs per batch.

    A run the batch leaves without a finite state goes through ``estimate``,
    which runs the same kernels on that row alone and reports the same
    result.
    """
    ndim = anchors.ndim
    records = []
    for lo in range(0, len(runs), _BATCH_ROWS):
        chunk = runs[lo : lo + _BATCH_ROWS]
        start = time.perf_counter()
        batch = estimate_batch(
            np.array([meas.request_toa for _, meas, _, _ in chunk]),
            np.array([meas.response_toa for _, meas, _, _ in chunk]),
            np.array([noise.weights() for _, _, noise, _ in chunk]),
            anchors,
            refine_steps=spec.refine_steps,
        )
        raw = batch.raw
        final = np.where(np.isnan(batch.refined), raw, batch.refined)
        seconds = [(time.perf_counter() - start) / len(chunk)] * len(chunk)
        fallback = batch.no_real_root.tolist()
        for i in np.flatnonzero(~np.isfinite(final).all(axis=1)).tolist():
            _, meas, noise, _ = chunk[i]
            start = time.perf_counter()
            report = estimate(meas, anchors, noise, refine_steps=spec.refine_steps)
            seconds[i] += time.perf_counter() - start
            state = report.refined if report.refined is not None else report.raw
            final[i] = np.nan if state is None else state.as_vector()
            raw[i] = np.nan if report.raw is None else report.raw.as_vector()
            fallback[i] = report.flags.no_real_root_fallback
        truths = np.array([ud.as_vector() for ud, _, _, _ in chunk])
        records.extend(
            zip(
                fallback,
                _sq_errors(final, truths, ndim),
                _sq_errors(raw, truths, ndim),
                seconds,
                [None] * len(chunk),
            )
        )
    return records


def _gauss_newton(cfg, spec, mi, cell_index, start, runs, anchors) -> list[tuple]:
    """Method records of one Gauss-Newton method (see ``_closed_form``),
    iterated ``_BATCH_ROWS`` runs per batch.

    Run ``r`` starts from ``make_initializer`` on its own stream
    ``SeedSequence([seed, cell, r, mi + 1])``; a batch's rows equal, bit for
    bit, what ``gauss_newton`` reports for each run alone. A run whose
    iterate sits on an anchor has no state and counts as failed.
    """
    ndim = anchors.ndim
    records = []
    for lo in range(0, len(runs), _BATCH_ROWS):
        chunk = runs[lo : lo + _BATCH_ROWS]
        clock = time.perf_counter()
        inits = []
        for run, (ud, _, _, _) in enumerate(chunk, start + lo):
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, cell_index, run, mi + 1])
            )
            inits.append(make_initializer(ud, spec.init_std_m, rng).as_vector())
        states, _, iterations, converged, _, _ = _gauss_newton_batch(
            np.array([meas.stacked() for _, meas, _, _ in chunk]),
            np.array([noise.weights() for _, _, noise, _ in chunk]),
            np.array(inits),
            anchors,
            spec.max_iter,
            spec.tol_m,
        )
        seconds = (time.perf_counter() - clock) / len(chunk)
        truths = np.array([ud.as_vector() for ud, _, _, _ in chunk])
        records.extend(
            (not c, err2, None, seconds, it)
            for c, err2, it in zip(
                converged, _sq_errors(states, truths, ndim), iterations
            )
        )
    return records


def _run_window(cfg, window):
    """Records of one window ``(cell_index, an_count, snr_db, start, stop)``,
    runs ``start`` to ``stop`` of one cell: the square-rooted bound blocks,
    then one method record per method (see ``_closed_form``); an error entry
    is None when the state is missing or non-finite."""
    cell_index, an_count, snr_db, start, stop = window
    anchors = build_square_scenario(cfg.anchor_side_m, an_count, cfg.response_step_s)
    center = anchors.center
    runs = [
        _synthesize(cfg, anchors, center, snr_db, cell_index, run)
        for run in range(start, stop)
    ]
    per_method = [
        _closed_form(spec, runs, anchors)
        if spec.kind == "cftwlas"
        else _gauss_newton(cfg, spec, mi, cell_index, start, runs, anchors)
        for mi, spec in enumerate(cfg.methods)
    ]
    return [(run[3], methods) for run, methods in zip(runs, zip(*per_method))]


def _aggregate_cell(cfg, an_count, snr_db, records) -> list[CellStats]:
    """Reduce per-run records, in run order, to one CellStats per method.

    A run is a large-error run when its position error strictly exceeds three
    times the square root of that run's position-bound trace. Runs without a
    usable estimate count as failures and as large errors, and are excluded
    from the RMSE averages.
    """
    runs = len(records)
    crlb_sums = np.zeros(4)
    for crlb_sqrt, _ in records:
        crlb_sums += crlb_sqrt
    crlb_mean = BlockValues(*(crlb_sums / runs).tolist())

    cells = []
    for mi, spec in enumerate(cfg.methods):
        ref_sums = np.zeros(4)
        raw_sums = np.zeros(4)
        n_ok = n_raw = n_large = n_fallback = n_fail = 0
        wall = 0.0
        iter_total = 0
        for crlb_sqrt, methods in records:
            fallback, ref_err2, raw_err2, seconds, iterations = methods[mi]
            wall += seconds
            if iterations is not None:
                iter_total += iterations
            if fallback:
                n_fallback += 1
            if ref_err2 is None:
                n_fail += 1
                n_large += 1
            else:
                ref_sums += ref_err2
                n_ok += 1
                if math.sqrt(ref_err2[0]) > 3.0 * crlb_sqrt[0]:
                    n_large += 1
            if raw_err2 is not None:
                raw_sums += raw_err2
                n_raw += 1
        rmse = (
            BlockValues(*np.sqrt(ref_sums / n_ok).tolist())
            if n_ok
            else BlockValues(math.nan, math.nan, math.nan, math.nan)
        )
        raw_rmse = BlockValues(*np.sqrt(raw_sums / n_raw).tolist()) if n_raw else None
        if spec.kind == "cftwlas":
            flops = flops_cftwlas(2, an_count)
            mean_iter = None
        else:
            flops = flops_iterative_per_iter(2, an_count)
            mean_iter = iter_total / runs
        cells.append(
            CellStats(
                method=spec.label,
                snr_db=snr_db,
                an_count=an_count,
                runs=runs,
                rmse=rmse,
                raw_rmse=raw_rmse,
                crlb_mean=crlb_mean,
                large_error_rate=n_large / runs,
                fallback_rate=n_fallback / runs,
                failure_rate=n_fail / runs,
                flops_per_call=flops,
                mean_iterations=mean_iter,
                wall_s=wall,
            )
        )
    return cells


def _reduce(cfg, windows, batches) -> list[CellStats]:
    """Aggregate each cell once the records of its windows, which arrive in
    window order, are in."""
    cells = []
    pairs = zip(windows, batches)
    for (_, an_count, snr_db), group in groupby(pairs, key=lambda p: p[0][:3]):
        records = [record for _, batch in group for record in batch]
        cells.extend(_aggregate_cell(cfg, an_count, snr_db, records))
    return cells


def run_campaign(cfg: CampaignConfig) -> CampaignStats:
    """Execute all (anchor-count, SNR) cells and aggregate per method.

    Each cell splits into ``workers`` windows of runs; the windows of all
    cells go through one process pool (or run in this process at one worker).
    Per-run estimator failures are recorded in the statistics and never abort
    the campaign. Reduction order is fixed by run index, so results do not
    depend on the worker count.
    """
    exec_cells = [
        (an, snr) for an in cfg.an_counts for snr in cfg.snr_points
    ]
    chunk = math.ceil(cfg.runs / cfg.workers)
    windows = [
        (cell_index, an_count, snr_db, lo, min(lo + chunk, cfg.runs))
        for cell_index, (an_count, snr_db) in enumerate(exec_cells)
        for lo in range(0, cfg.runs, chunk)
    ]
    if cfg.workers == 1:
        cells = _reduce(cfg, windows, map(_run_window, repeat(cfg), windows))
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            cells = _reduce(cfg, windows, pool.map(_run_window, repeat(cfg), windows))
    cells.sort(key=lambda c: (c.method, c.snr_db, c.an_count))
    return CampaignStats(config=cfg, cells=tuple(cells))


# --- configuration (de)serialization -------------------------------------

_CONFIG_KEYS = frozenset(f.name for f in fields(CampaignConfig))
_METHOD_KEYS = frozenset(f.name for f in fields(MethodSpec))


def _method_from_dict(data: dict, index: int) -> MethodSpec:
    if not isinstance(data, dict):
        raise ConfigurationError(f"config key 'methods[{index}]': expected an object")
    unknown = set(data) - _METHOD_KEYS
    if unknown:
        raise ConfigurationError(
            f"config key 'methods[{index}].{sorted(unknown)[0]}': unknown key"
        )
    try:
        return MethodSpec(**data)
    except (TypeError, ConfigurationError) as exc:
        raise ConfigurationError(f"config key 'methods[{index}]': {exc}") from exc


def config_from_dict(data: dict) -> CampaignConfig:
    """Build a campaign configuration from parsed JSON, naming bad keys."""
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be an object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigurationError(f"config key '{sorted(unknown)[0]}': unknown key")
    kwargs: dict = {}
    for key, value in data.items():
        try:
            if key == "methods":
                kwargs[key] = tuple(
                    _method_from_dict(item, i) for i, item in enumerate(value)
                )
            elif key == "an_counts":
                kwargs[key] = tuple(int(v) for v in value)
            elif key == "snr_db":
                kwargs[key] = tuple(float(v) for v in value)
            elif key in ("offset_range_s", "drift_range_ppm"):
                lo, hi = value
                kwargs[key] = (float(lo), float(hi))
            elif key in ("noise_free",):
                if not isinstance(value, bool):
                    raise ConfigurationError("expected true or false")
                kwargs[key] = value
            elif key in ("runs", "seed", "workers"):
                kwargs[key] = int(value)
            elif key == "response_sigma_rule":
                kwargs[key] = str(value)
            else:
                kwargs[key] = float(value)
        except ConfigurationError as exc:
            raise ConfigurationError(f"config key '{key}': {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"config key '{key}': {exc}") from exc
    try:
        return CampaignConfig(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"config: {exc}") from exc


def config_to_dict(cfg: CampaignConfig) -> dict:
    """Resolved configuration as JSON-ready primitives, in field order."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(cfg).items()
    }
