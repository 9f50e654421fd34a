"""Seeded Monte-Carlo campaigns: RMSE vs SNR sweeps and anchor-count ablations.

Every run derives its own random streams from the master seed, the cell index,
the run index and the stream index, ``SeedSequence([seed, cell, run,
stream])`` as ``default_rng`` seeds them, so campaign statistics are
bit-identical for a fixed seed at any parallelism level. A window's streams
are seeded together: their PCG64 states are hashed in one array pass and set,
run by run, on one reused generator (``_streams``). Wall-clock measurements
are inherently volatile and are kept separate from the deterministic
statistics.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, is_dataclass
from itertools import chain, groupby, islice, repeat
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .analysis import (
    BlockValues,
    _evaluate,
    crlb,
    flops_cftwlas,
    flops_iterative_per_iter,
)
# bench/spans.py rebinds estimate, gauss_newton, make_initializer,
# forward_model, noise_for_snr and add_noise here, so those names stay
# importable.
from .baseline import _gauss_newton_batch, gauss_newton, make_initializer  # noqa: F401
from .errors import ConfigurationError, DegenerateGeometryError, GeometryError
from .estimator import estimate, estimate_batch  # noqa: F401
from .scenario import (  # noqa: F401
    _SIGMA_REDUCERS,
    _SQUARE_AN_COUNTS,
    NoiseSpec,
    _sigmas,
    add_noise,
    build_square_scenario,
    forward_model,
    noise_for_snr,
    sample_ud_state,
)

_METHOD_KINDS = ("cftwlas", "gauss_newton")
# Most runs in one window, which the closed form solves as one stacked batch
# and each group of Gauss-Newton methods with one stop rule as another, of
# the window's runs once per method in the group; bounds their memory.
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
        for key in ("refine_steps", "max_iter"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1")
        if not 0.0 <= self.init_std_m < math.inf:
            raise ConfigurationError("init_std_m must be finite and >= 0")
        if not self.tol_m >= 0.0:
            raise ConfigurationError("tol_m must be >= 0")

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
        for key in ("runs", "workers"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if not self.noise_free and not self.snr_db:
            raise ConfigurationError("snr_db list must be non-empty")
        if not self.an_counts:
            raise ConfigurationError("an_counts must be non-empty")
        if not set(self.an_counts) <= set(_SQUARE_AN_COUNTS):
            raise ConfigurationError(f"an_counts must be among {_SQUARE_AN_COUNTS}")
        if not self.methods:
            raise ConfigurationError("methods must be non-empty")
        # Each (method label, SNR, anchor count) keys one CSV row.
        labels = [method.label for method in self.methods]
        keyed = ("an_counts", list(self.an_counts)), ("snr_db", list(self.snr_db))
        for key, values in (("method labels", labels), *keyed):
            for value in values:
                if values.count(value) > 1:
                    raise ConfigurationError(f"{key} must be distinct; {value!r} repeats")
        for key in ("anchor_side_m", "response_step_s"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ConfigurationError(f"{key} must be finite and > 0")
        for key in ("region_side_m", "vmax_mps"):
            if not 0.0 <= getattr(self, key) < math.inf:
                raise ConfigurationError(f"{key} must be finite and >= 0")
        for key in ("offset_range_s", "drift_range_ppm", "snr_db"):
            if not all(math.isfinite(value) for value in getattr(self, key)):
                raise ConfigurationError(f"{key} values must be finite")
        for key in ("offset_range_s", "drift_range_ppm"):
            lo, hi = getattr(self, key)
            # The sign bit, as the state draw tests it: (0.0, -0.0) is reversed.
            if not (math.copysign(1.0, hi - lo) > 0.0 and hi - lo < math.inf):
                raise ConfigurationError(f"{key} must be (lo, hi) with lo <= hi")
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
    # Volatile: measured solver time, not reproducible. The cell's share, by
    # rows, of each batch of the method that its runs were in, summed: a
    # batch holds runs of several cells, and a Gauss-Newton batch the runs of
    # every method that shares its stop rule. No run has a time of its own.
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


class _MethodRecord(NamedTuple):
    """One method's results on R runs, in run order: the (R,) no-real-root
    fallback (closed form) or non-converged (Gauss-Newton) flags, the (R, 4)
    squared block errors of the final states (a NaN row is a run without a
    finite state) and of the closed form's raw states, the (R,) Gauss-Newton
    iterations and the method's seconds on these runs: their share, by rows,
    of the batches that solved them."""

    flagged: np.ndarray
    err2: np.ndarray
    raw_err2: np.ndarray | None
    iterations: np.ndarray | None
    seconds: float


def _join(records) -> _MethodRecord:
    """One record of consecutive records of a method, in run order."""
    *stacks, seconds = zip(*records)
    return _MethodRecord(
        *(None if s[0] is None else np.concatenate(s) for s in stacks), sum(seconds)
    )


def _sq_errors(states: np.ndarray, truths: np.ndarray, ndim: int) -> np.ndarray:
    """(K, 4) per-block squared errors of K (K, 2N+2) states, NaN in a row
    whose state is not finite."""
    sq = (states - truths) ** 2
    pos, vel = sq[:, :ndim].sum(axis=1), sq[:, ndim : 2 * ndim].sum(axis=1)
    blocks = np.stack([pos, vel, sq[:, 2 * ndim], sq[:, 2 * ndim + 1]], axis=1)
    blocks[~np.isfinite(states).all(axis=1)] = np.nan
    return blocks


def _closed_form(spec: MethodSpec, truths, gamma, weights, anchors) -> _MethodRecord:
    """The closed form's record on a window's stacked runs, solved as one
    batch; a run's final state is the refined one, or the raw one where the
    refinement failed."""
    start = time.perf_counter()
    batch = estimate_batch(gamma, weights, anchors, spec.refine_steps)
    final = np.where(np.isnan(batch.refined), batch.raw, batch.refined)
    seconds = time.perf_counter() - start
    err2 = _sq_errors(final, truths, anchors.ndim)
    raw_err2 = _sq_errors(batch.raw, truths, anchors.ndim)
    return _MethodRecord(batch.no_real_root, err2, raw_err2, None, seconds)


def _rows(record: _MethodRecord, lo: int, hi: int) -> _MethodRecord:
    """Rows ``lo`` to ``hi`` of a record, with their share of its seconds."""
    *stacks, seconds = record
    share = seconds * (hi - lo) / len(record.err2)
    return _MethodRecord(*(None if s is None else s[lo:hi] for s in stacks), share)


def _gauss_newton(
    cfg, group, window, truths, gamma, weights, anchors
) -> list[_MethodRecord]:
    """The records of the Gauss-Newton methods ``group``, ``(mi, spec)``
    pairs that share one ``(max_iter, tol_m)``, on a window's stacked runs,
    iterated as one batch that holds the window's runs once per method.

    Run ``r`` of cell ``c`` starts, for method ``mi``, where
    ``make_initializer`` puts it from its own stream
    ``SeedSequence([seed, c, r, mi + 1])``, which ``_streams`` seeds for the
    whole window at once: N standard normals, scaled and added to the true
    position on the stack as ``Generator.normal`` computes
    ``loc + scale * z``, with zero dynamics. A batch's rows equal, bit for
    bit, what ``gauss_newton`` reports for each run alone. A run whose
    iterate sits on an anchor has no state and counts as failed. Each
    method's seconds are its share of the batch.
    """
    n, rows = anchors.ndim, len(truths)
    clock = time.perf_counter()
    inits = np.zeros((len(group) * rows, truths.shape[1]))
    segments = [(cell_index, start, stop) for cell_index, *_, start, stop in window]
    for g, (mi, spec) in enumerate(group):
        draws = np.array([
            rng.standard_normal(n) for rng in _streams(cfg.seed, segments, mi + 1)
        ])
        inits[g * rows : (g + 1) * rows, :n] = (
            truths[:, :n] + (0.0 + spec.init_std_m * draws)
        )
    truths, gamma, weights = (
        np.tile(x, (len(group), 1)) for x in (truths, gamma, weights)
    )
    rule = group[0][1]
    states, _, iterations, converged, _, _ = _gauss_newton_batch(
        gamma, weights, inits, anchors, rule.max_iter, rule.tol_m
    )
    seconds = time.perf_counter() - clock
    err2 = _sq_errors(states, truths, n)
    flagged, iterations = ~np.array(converged), np.array(iterations)
    record = _MethodRecord(flagged, err2, None, iterations, seconds)
    return [_rows(record, g * rows, (g + 1) * rows) for g in range(len(group))]


def _entropy(*values: int) -> np.ndarray:
    """The uint32 words into which ``SeedSequence`` coerces the list
    ``values``: each value as little-endian 32-bit words, 0 as one word.
    Passed as an array, they seed the same stream. A negative value raises
    ValueError, as it does in the list."""
    words = []
    for value in values:
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        while value:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
    return np.array(words, dtype=np.uint32)


# numpy's SeedSequence hash (pool of 4 words) and PCG64's LCG multiplier.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """The (steps + 1, 1) values that a hash constant of ``SeedSequence``
    takes over ``steps`` steps: ``init``, then times ``mult`` mod 2**32."""
    values = [init]
    for _ in range(steps):
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint64)[:, None]


def _pcg64_states(words: np.ndarray) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of ``default_rng(SeedSequence(row))`` for
    each row of a (K, L) array of uint32 entropy words.

    The rows are hashed together, as ``SeedSequence.mix_entropy`` and
    ``generate_state(4, np.uint64)`` hash one, on (4, K) uint64 arrays of
    32-bit words, masked after each product. The hash constants step alike
    for every row, and the hashes of one step of the mix that do not depend
    on each other are taken at once. PCG64 is then seeded as
    ``pcg_setseq_128_srandom_r`` does, on Python ints.
    """
    rows, length = words.shape
    # A row shorter than the pool of 4 words runs the hash out on zeros.
    entropy = np.zeros((max(length, 4), rows), dtype=np.uint64)
    entropy[:length] = words.T
    const = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(length - 4, 0))
    used = 0

    def hashmix(value, n):
        # n hashes of value, each with the next value of the hash constant.
        nonlocal used
        value = (value ^ const[used : used + n]) * const[used + 1 : used + n + 1] & _MASK32
        used += n
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = hashmix(entropy[:4], 4)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for src in range(4, length):
        pool = mix(pool, hashmix(entropy[src], 4))
    # generate_state(4, np.uint64): 8 words, cycling through the pool.
    const = _hash_constants(_INIT_B, _MULT_B, 8)
    state = (np.tile(pool, (2, 1)) ^ const[:8]) * const[1:] & _MASK32
    state ^= state >> 16
    seeds = (state[0::2] | state[1::2] << 32).T
    out = []
    for state_hi, state_lo, seq_hi, seq_lo in seeds.tolist():
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        out.append((((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return out


def _streams(seed: int, segments, stream: int):
    """Yield one ``Generator`` per run of the ``(cell, start, stop)``
    segments, in order, holding the stream of
    ``default_rng(SeedSequence([seed, cell, run, stream]))``.

    It is one Generator on one PCG64, whose state is set before each yield,
    so a run's draws must be taken before the next run's. The runs' states
    are computed at once from their ``_entropy`` words, grouped by word
    count: a window whose runs cross 2**32 holds two.
    """
    words = [
        _entropy(seed, cell, run, stream)
        for cell, start, stop in segments
        for run in range(start, stop)
    ]
    states = [None] * len(words)
    for length in {len(w) for w in words}:
        index = [i for i, w in enumerate(words) if len(w) == length]
        for i, pair in zip(index, _pcg64_states(np.array([words[i] for i in index]))):
            states[i] = pair
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state, inc in states:
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _window_inputs(cfg, anchors, cell_index, snr_db, start, stop, streams=None):
    """The stacked inputs of runs ``start`` to ``stop`` of one cell: the
    (K, 2N+2) true parameter vectors, the (K, 2M) measurements and weights
    and the (K, 4) square-rooted bound blocks.

    Run ``r`` draws its device state and then 2M standard normals from its
    own stream ``SeedSequence([seed, cell, r, 0])``, which ``_streams``
    seeds for all the runs at once: the variates of ``add_noise``'s two
    ``normal`` calls, which compute ``loc + scale * z``. ``streams``, when
    given, is a ``_streams`` iterator whose next K generators are these
    runs'; ``_run_window`` passes one for all its segments, so that a window
    that crosses many small cells seeds its runs in one pass. The true vectors,
    model, sigmas, noise and weights are computed on the stacks, bit for bit
    ``UdState.as_vector``, ``forward_model``, ``noise_for_snr``,
    ``add_noise`` and ``NoiseSpec.weights`` on each run alone; the state
    draw, the ``NoiseSpec`` and the bound stay per run.
    """
    m, n = anchors.count, anchors.ndim
    center, uds, draws = anchors.center, [], []
    if streams is None:
        streams = _streams(cfg.seed, [(cell_index, start, stop)], 0)
    for rng in islice(streams, stop - start):
        uds.append(sample_ud_state(
            rng, cfg.region_side_m, cfg.vmax_mps, cfg.offset_range_s,
            cfg.drift_range_ppm, center=center, ndim=n,
        ))
        if not cfg.noise_free:
            draws.append(rng.standard_normal(2 * m))
    truths = np.empty((len(uds), 2 * n + 2))
    truths[:, :n] = [ud.pos for ud in uds]
    truths[:, n : 2 * n] = [ud.vel for ud in uds]
    truths[:, 2 * n] = [ud.offset for ud in uds]
    truths[:, 2 * n + 1] = [ud.drift for ud in uds]
    (_, d0, _, _, on_anchor), gamma = _evaluate(truths, anchors)
    if on_anchor.any():
        raise GeometryError("state coincides with an anchor")
    if cfg.noise_free:
        noises = [NoiseSpec(np.ones(m), 1.0)] * len(uds)
        weights = np.ones_like(gamma)
    else:
        sigma_request, sigma_response = _sigmas(d0, snr_db, cfg.response_sigma_rule)
        noises = list(map(NoiseSpec, sigma_request, sigma_response.tolist()))
        sigmas = np.concatenate(
            [sigma_request, np.repeat(sigma_response[:, None], m, axis=1)], axis=1
        )
        gamma += 0.0 + sigmas * np.array(draws)
        # The response weight squares a Python float, which is C pow(), not
        # the x * x of an array's ** 2; float_power calls pow() as well.
        response = np.repeat(np.float_power(sigma_response, 2.0)[:, None], m, axis=1)
        weights = 1.0 / np.concatenate([sigma_request**2, response], axis=1)
    bounds = []
    for ud, noise in zip(uds, noises):
        try:
            blocks = crlb(ud, anchors, noise).blocks
            bounds.append((blocks.pos, blocks.vel, blocks.offset, blocks.drift))
        except DegenerateGeometryError:
            bounds.append((math.nan,) * 4)
    return truths, gamma, weights, np.sqrt(bounds)


def _run_window(cfg, window):
    """Results of one window: a tuple of segments ``(cell_index, an_count,
    snr_db, start, stop)``, runs ``start`` to ``stop`` of cells of one anchor
    layout, in cell order. The segments' runs are stacked once; the closed
    form solves them as one batch, and each group of Gauss-Newton methods
    with one ``(max_iter, tol_m)`` as another. Returns, per segment, the
    (k, 4) square-rooted bound blocks and one ``_MethodRecord`` per method.
    """
    anchors = build_square_scenario(
        cfg.anchor_side_m, window[0][1], cfg.response_step_s
    )
    streams = _streams(
        cfg.seed, [(cell_index, start, stop) for cell_index, *_, start, stop in window], 0
    )
    truths, gamma, weights, crlb_sqrt = map(np.concatenate, zip(*(
        _window_inputs(cfg, anchors, cell_index, snr_db, start, stop, streams)
        for cell_index, _, snr_db, start, stop in window
    )))
    records = [None] * len(cfg.methods)
    groups = {}
    for mi, spec in enumerate(cfg.methods):
        if spec.kind == "cftwlas":
            records[mi] = _closed_form(spec, truths, gamma, weights, anchors)
        else:
            groups.setdefault((spec.max_iter, spec.tol_m), []).append((mi, spec))
    for group in groups.values():
        gn = _gauss_newton(cfg, group, window, truths, gamma, weights, anchors)
        for (mi, _), record in zip(group, gn):
            records[mi] = record
    results, lo = [], 0
    for *_, start, stop in window:
        hi = lo + stop - start
        results.append((crlb_sqrt[lo:hi], [_rows(r, lo, hi) for r in records]))
        lo = hi
    return results


def _mean(stack: np.ndarray) -> np.ndarray:
    """Mean of the rows of an (R, 4) stack, NaN when R is 0. ``np.add.reduce``
    along axis 0 of a C-contiguous stack adds the rows in run order, as a
    running sum does; along a contiguous axis numpy would sum pairwise."""
    with np.errstate(invalid="ignore"):
        return np.add.reduce(stack, axis=0) / len(stack)


def _aggregate_cell(cfg, an_count, snr_db, crlb_sqrt, records) -> list[CellStats]:
    """Reduce a cell's (R, 4) square-rooted bound blocks and one
    ``_MethodRecord`` per method to one CellStats per method.

    A run is a large-error run when its position error strictly exceeds three
    times the square root of that run's position-bound trace. Runs without a
    usable estimate count as failures and as large errors, and are excluded
    from the RMSE averages.
    """
    runs = len(crlb_sqrt)
    crlb_mean = BlockValues(*_mean(crlb_sqrt).tolist())
    cells = []
    for spec, record in zip(cfg.methods, records):
        failed = np.isnan(record.err2[:, 0])
        large = failed | (np.sqrt(record.err2[:, 0]) > 3.0 * crlb_sqrt[:, 0])
        rmse = BlockValues(*np.sqrt(_mean(record.err2[~failed])).tolist())
        raw_rmse = None
        if record.raw_err2 is not None:
            raw = record.raw_err2[~np.isnan(record.raw_err2[:, 0])]
            raw_rmse = BlockValues(*np.sqrt(_mean(raw)).tolist()) if len(raw) else None
        if spec.kind == "cftwlas":
            flops = flops_cftwlas(2, an_count)
            mean_iter = None
        else:
            flops = flops_iterative_per_iter(2, an_count)
            mean_iter = int(record.iterations.sum()) / runs
        cells.append(
            CellStats(
                method=spec.label,
                snr_db=snr_db,
                an_count=an_count,
                runs=runs,
                rmse=rmse,
                raw_rmse=raw_rmse,
                crlb_mean=crlb_mean,
                large_error_rate=int(np.count_nonzero(large)) / runs,
                fallback_rate=int(np.count_nonzero(record.flagged)) / runs,
                failure_rate=int(np.count_nonzero(failed)) / runs,
                flops_per_call=flops,
                mean_iterations=mean_iter,
                wall_s=record.seconds,
            )
        )
    return cells


def _reduce(cfg, windows, results) -> list[CellStats]:
    """Aggregate each cell once the results of its segments, which arrive in
    window order, are in."""
    cells = []
    pairs = zip(chain.from_iterable(windows), chain.from_iterable(results))
    for (_, an_count, snr_db), group in groupby(pairs, key=lambda p: p[0][:3]):
        crlb_parts, method_parts = zip(*(result for _, result in group))
        records = [_join(parts) for parts in zip(*method_parts)]
        crlb_sqrt = np.concatenate(crlb_parts)
        cells.extend(_aggregate_cell(cfg, an_count, snr_db, crlb_sqrt, records))
    return cells


def run_campaign(cfg: CampaignConfig) -> CampaignStats:
    """Execute all (anchor-count, SNR) cells and aggregate per method.

    Each anchor layout's rows are its cells in order (SNR points as given),
    with each cell's runs in run order. They split into windows of
    ``ceil(rows / workers)`` rows, at most ``_BATCH_ROWS``, so a window may
    hold the tail of one cell and the head of the next; each method solves
    a window as one batch. The windows of all layouts go through one process
    pool of at most ``workers`` processes, and no more than there are
    windows or CPUs (or run in this process when that is one).
    Per-run estimator failures are recorded in the statistics and never abort
    the campaign. Reduction order is fixed by run index, so results do not
    depend on the worker count.
    """
    snrs, runs = cfg.snr_points, cfg.runs
    chunk = min(math.ceil(len(snrs) * runs / cfg.workers), _BATCH_ROWS)
    windows = [
        tuple(
            (li * len(snrs) + si, an_count, snr_db,
             max(lo - si * runs, 0), min(lo + chunk - si * runs, runs))
            for si, snr_db in enumerate(snrs)
            if si * runs < lo + chunk and lo < (si + 1) * runs
        )
        for li, an_count in enumerate(cfg.an_counts)
        for lo in range(0, len(snrs) * runs, chunk)
    ]
    processes = min(cfg.workers, len(windows), os.cpu_count() or 1)
    if processes == 1:
        cells = _reduce(cfg, windows, map(_run_window, repeat(cfg), windows))
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            cells = _reduce(cfg, windows, pool.map(_run_window, repeat(cfg), windows))
    cells.sort(key=lambda c: (c.method, c.snr_db, c.an_count))
    return CampaignStats(config=cfg, cells=tuple(cells))


# --- configuration (de)serialization -------------------------------------

def _from_dict(cls, data, key: str):
    """The config dataclass ``cls`` from the parsed JSON object ``data``
    found at ``key`` (empty at the root), every value checked against its
    field's type and bad values reported under the key that holds them."""
    where = f"config key '{key}'" if key else "config"
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where}: expected an object")
    hints = get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        path = f"{key}.{name}" if key else name
        if name not in hints:
            raise ConfigurationError(f"config key '{path}': unknown key")
        kwargs[name] = _from_json(value, hints[name], path)
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


# The JSON value types each scalar field takes (a bool is no int here).
_JSON_TYPES = {float: (int, float), int: (int,), bool: (bool,), str: (str,)}


def _from_json(value, kind, key: str):
    """A parsed JSON value as the field type ``kind``: a list for a tuple
    (of two items for a (lo, hi) pair) and an object for a method."""
    if get_origin(kind) is tuple:
        items = get_args(kind)
        if not isinstance(value, list):
            raise ConfigurationError(f"config key '{key}': expected a list")
        if Ellipsis not in items and len(value) != len(items):
            raise ConfigurationError(f"config key '{key}': expected {len(items)} values")
        return tuple(_from_json(v, items[0], f"{key}[{i}]") for i, v in enumerate(value))
    if is_dataclass(kind):
        return _from_dict(kind, value, key)
    if type(value) not in _JSON_TYPES[kind]:
        raise ConfigurationError(f"config key '{key}': expected {kind.__name__}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"config key '{key}': too large for a float") from None


def config_from_dict(data: dict) -> CampaignConfig:
    """Build a campaign configuration from parsed JSON, naming bad keys."""
    return _from_dict(CampaignConfig, data, "")


def config_to_dict(cfg: CampaignConfig) -> dict:
    """Resolved configuration as JSON-ready primitives, in field order."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(cfg).items()
    }
