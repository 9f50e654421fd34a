"""Median cost per run of each piece of one closed-form campaign window.

The window is the ``cf_8an_30db`` benchmark cell: 8 anchors on the 800 m
square, 30 dB, the closed form only, K=250 runs of cell 0. Each piece is
timed alone, on the same runs and in the form ``montecarlo._window_inputs``
uses:

- the generator: each run's ``default_rng`` from its uint32 entropy words
- ``sample_ud_state``
- the ``NoiseSpec`` list of the window's sigmas
- ``crlb``
- the rest of ``_window_inputs``: the whole call less the four pieces above
- ``estimate_batch`` on the window, per row

The pieces are timed in turn, ``REPEATS`` rounds of one call each, and
the median of each piece's timings, divided by K, is printed in
microseconds. Compare two trees on the same host, one after the other:

    PYTHONPATH=src python3 scripts/per_run_costs.py
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from cftwlas.analysis import crlb
from cftwlas.estimator import estimate_batch
from cftwlas.montecarlo import CampaignConfig, _entropy, _window_inputs
from cftwlas.scenario import NoiseSpec, _sigmas, build_square_scenario, sample_ud_state

RUNS = 250
SNR_DB = 30.0
SEED = 1
REPEATS = 40
# The per-run pieces of ``_window_inputs`` that are timed alone.
WINDOW_PIECES = ("generator", "sample_ud_state", "NoiseSpec list", "crlb")


def main() -> None:
    cfg = CampaignConfig(snr_db=(SNR_DB,), runs=RUNS, seed=SEED)
    anchors = build_square_scenario(cfg.anchor_side_m, 8, cfg.response_step_s)
    center, runs = anchors.center, range(RUNS)

    # ``generators`` and ``states`` copy the per-run loop of
    # ``montecarlo._window_inputs`` (its seeding and its ``sample_ud_state``
    # arguments); they must track it, or they time code the campaign no
    # longer runs.
    def generators():
        return [
            np.random.default_rng(np.random.SeedSequence(_entropy(cfg.seed, 0, run, 0)))
            for run in runs
        ]

    def states(rngs):
        return [
            sample_ud_state(
                rng, cfg.region_side_m, cfg.vmax_mps, cfg.offset_range_s,
                cfg.drift_range_ppm, center=center, ndim=anchors.ndim,
            )
            for rng in rngs
        ]

    uds = states(generators())
    distances = np.array([np.linalg.norm(anchors.positions - ud.pos, axis=1) for ud in uds])
    sigma_request, sigma_response = _sigmas(distances, SNR_DB, cfg.response_sigma_rule)

    def noise_specs():
        return list(map(NoiseSpec, sigma_request, sigma_response.tolist()))

    noises = noise_specs()

    def bounds():
        return [crlb(ud, anchors, noise) for ud, noise in zip(uds, noises)]

    def window():
        return _window_inputs(cfg, anchors, 0, SNR_DB, 0, RUNS)

    _, gamma, weights, _ = window()
    pieces = {
        "generator": lambda _: generators(),
        "sample_ud_state": states,
        "NoiseSpec list": lambda _: noise_specs(),
        "crlb": lambda _: bounds(),
        "_window_inputs": lambda _: window(),
        "estimate_batch per row": lambda _: estimate_batch(gamma, weights, anchors),
    }
    # Round-robin, so that a drift in the host's speed reaches every piece;
    # the first round warms caches and is dropped.
    times = {name: [] for name in pieces}
    for _ in range(REPEATS + 1):
        rngs = generators()  # fresh streams for the state draw
        for name, piece in pieces.items():
            start = time.perf_counter()
            piece(rngs)
            times[name].append((time.perf_counter() - start) / RUNS * 1e6)
    times = {name: values[1:] for name, values in times.items()}
    times["rest of _window_inputs"] = [
        whole - sum(parts)
        for whole, *parts in zip(times["_window_inputs"], *map(times.get, WINDOW_PIECES))
    ]
    order = (*WINDOW_PIECES, "rest of _window_inputs", "_window_inputs",
             "estimate_batch per row")
    print(f"cf_8an_30db window, K={RUNS}, seed {cfg.seed}, {REPEATS} repeats")
    print(f"{'piece':<24} {'us/run':>8}")
    for name in order:
        print(f"{name:<24} {statistics.median(times[name]):8.2f}")


if __name__ == "__main__":
    main()
