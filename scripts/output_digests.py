"""Per-input digests of what estimate(), gauss_newton() and crlb() return.

Two checkouts that print the same digests for a seed produce bitwise-equal
outputs on every input drawn from it, so a change meant to keep the numbers
(a speed-up, a refactor) can be checked against its parent:

    PYTHONPATH=<parent>/src python3 scripts/output_digests.py 7 > parent.json
    PYTHONPATH=src python3 scripts/output_digests.py 7 > change.json
    cmp parent.json change.json

A change that alters the closed form's arithmetic cannot pass that check.
``--values`` writes each estimate as values instead (the winning pair and
whether a complex projection seeded it, the raw, refined and true states,
the flags and the number of candidates; Gauss-Newton and CRLB entries stay
digests), and
``scripts/compare_outputs.py`` reports how far two such files differ:

    PYTHONPATH=<parent>/src python3 scripts/output_digests.py 7 --values > parent.json
    PYTHONPATH=src python3 scripts/output_digests.py 7 --values > change.json
    python3 scripts/compare_outputs.py parent.json change.json

The inputs: 2-D square layouts with 4, 5 and 8 anchors at ten SNRs from 6 to
50 dB (150 noisy runs each, Gauss-Newton from a 50 m initialization and the
CRLB on the first 40 of them), 600 3-D runs with 5 to 9 random anchors, and
50 noise-free runs per 2-D layout. An estimate's digest covers its flags, raw
and refined states, covariance, every candidate (pair, state, cost, source)
and which candidate won; a Gauss-Newton digest covers the state and the
trace.

Campaign digests (the ``campaign_*`` keys, digests in both modes) cover the
per-cell summary records of ``cftwlas simulate`` with wall time zeroed, for
the benchmark preset at 10 and 30 dB (60 runs), a noise-free 4/5/8-anchor
campaign of devices at rest in the center (the 4-anchor closed form fails
every run) at one and three workers, one Gauss-Newton method stopped after 6
iterations, and 4 and 5 anchors at 10 dB with the response sigma taken from
the shortest and from the longest link (``response_sigma_rule`` "min" and
"max").
"""

import hashlib
import json
import sys

import numpy as np

from cftwlas import (
    AnchorSet,
    CampaignConfig,
    GeometryError,
    MethodSpec,
    NoiseSpec,
    add_noise,
    benchmark_config,
    build_square_scenario,
    crlb,
    estimate,
    forward_model,
    gauss_newton,
    make_initializer,
    noise_for_snr,
    run_campaign,
    sample_ud_state,
)
from cftwlas.cli import _cell_dicts


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def estimate_digest(meas, anchors, noise) -> str:
    rep = estimate(meas, anchors, noise)
    flags = rep.flags
    parts = [flags.degenerate_geometry, flags.no_real_root_fallback,
             flags.refinement_singular]
    for state in (rep.raw, rep.refined):
        parts.append(None if state is None else state.as_vector())
    parts.append(rep.refinement_cov)
    for c in rep.candidates:
        parts += [float(c.pair.lam1), float(c.pair.lam2), c.state.as_vector(),
                  float(c.weighted_cost), c.from_fallback]
    parts.append([i for i, c in enumerate(rep.candidates) if c.state is rep.raw])
    return digest(parts)


def estimate_values(meas, anchors, noise, truth) -> dict:
    rep = estimate(meas, anchors, noise)
    flags = rep.flags
    winner = next((c for c in rep.candidates if c.state is rep.raw), None)
    return {
        "winner": None if winner is None else [winner.pair.lam1, winner.pair.lam2],
        "complex_win": None if winner is None else winner.from_fallback,
        "raw": None if rep.raw is None else rep.raw.as_vector().tolist(),
        "refined": None if rep.refined is None else rep.refined.as_vector().tolist(),
        "truth": truth.as_vector().tolist(),
        "flags": [flags.degenerate_geometry, flags.no_real_root_fallback,
                  flags.refinement_singular],
        "candidates": len(rep.candidates),
    }


def gn_digest(meas, anchors, noise, init) -> str:
    try:
        state, trace = gauss_newton(meas, anchors, noise, init)
    except GeometryError as exc:
        return f"GeometryError: {exc}"
    return digest([state.as_vector(), trace.costs, trace.converged,
                   trace.iterations_used, trace.diverged])


def campaign_digests(seed: int) -> dict:
    both = (MethodSpec("cftwlas"), MethodSpec("gauss_newton"))
    at_rest = dict(an_counts=(4, 5, 8), noise_free=True, region_side_m=0.0,
                   vmax_mps=0.0, runs=13, seed=seed, methods=both)
    configs = {
        "benchmark": benchmark_config(runs=60, snr_db=(10.0, 30.0), seed=seed),
        "noise_free_w1": CampaignConfig(**at_rest),
        "noise_free_w3": CampaignConfig(**at_rest, workers=3),
        "gn_max_iter6": CampaignConfig(
            snr_db=(12.0,), runs=60, seed=seed,
            methods=(MethodSpec("gauss_newton", init_std_m=200.0, max_iter=6),),
        ),
        **{
            f"sigma_rules_{rule}": CampaignConfig(
                an_counts=(4, 5), snr_db=(10.0,), runs=60, seed=seed,
                methods=both, response_sigma_rule=rule,
            )
            for rule in ("min", "max")
        },
    }
    return {
        f"campaign_{name}": digest([_cell_dicts(run_campaign(cfg), False)])
        for name, cfg in configs.items()
    }


def main(seed: int, values: bool = False) -> dict:
    out = {}

    def estimate_entry(meas, anchors, noise, truth):
        if values:
            return estimate_values(meas, anchors, noise, truth)
        return estimate_digest(meas, anchors, noise)

    for an in (4, 5, 8):
        anchors = build_square_scenario(800.0, an)
        for snr in np.linspace(6.0, 50.0, 10):
            rng = np.random.default_rng([seed, an, int(snr * 10)])
            for run in range(150):
                ud = sample_ud_state(rng, 600.0, center=anchors.center)
                noise = noise_for_snr(ud, anchors, snr)
                meas = add_noise(forward_model(ud, anchors), noise, rng)
                key = f"{an}an_{snr:.1f}db_{run}"
                out[f"est_{key}"] = estimate_entry(meas, anchors, noise, ud)
                if run < 40:
                    init = make_initializer(ud, 50.0, rng)
                    out[f"gn_{key}"] = gn_digest(meas, anchors, noise, init)
                    out[f"crlb_{key}"] = digest([crlb(ud, anchors, noise).crlb])
        rng = np.random.default_rng([seed, an, 0])
        unit = NoiseSpec(np.ones(an), 1.0)
        for run in range(50):
            ud = sample_ud_state(rng, 600.0, center=anchors.center)
            out[f"est_{an}an_clean_{run}"] = estimate_entry(
                forward_model(ud, anchors), anchors, unit, ud
            )
    rng = np.random.default_rng([seed, 3])
    for run in range(600):
        m = int(rng.integers(5, 10))
        anchors = AnchorSet(rng.uniform(0.0, 800.0, size=(m, 3)),
                            0.01 * np.arange(1, m + 1))
        ud = sample_ud_state(rng, 500.0, center=anchors.center, ndim=3)
        noise = noise_for_snr(ud, anchors, float(rng.uniform(6.0, 50.0)))
        meas = add_noise(forward_model(ud, anchors), noise, rng)
        out[f"est_3d_{run}"] = estimate_entry(meas, anchors, noise, ud)
        out[f"gn_3d_{run}"] = gn_digest(meas, anchors, noise,
                                        make_initializer(ud, 50.0, rng))
    out.update(campaign_digests(seed))
    return out


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--values"]
    json.dump(main(int(args[0]) if args else 7, "--values" in sys.argv[1:]),
              sys.stdout, indent=0, sort_keys=True)
    sys.stdout.write("\n")
