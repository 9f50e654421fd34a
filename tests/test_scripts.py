"""The measurement scripts under ``scripts/`` still run against the package.

``per_run_costs.py`` copies the per-run loop of ``montecarlo._window_inputs``
and imports private names, and ``compare_outputs.py`` reads the entries that
``output_digests.py --values`` writes; a refactor that breaks either shows
here, on small inputs.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import compare_outputs  # noqa: E402
import output_digests  # noqa: E402
import per_run_costs  # noqa: E402
from cftwlas import (  # noqa: E402
    NoiseSpec,
    add_noise,
    build_square_scenario,
    forward_model,
    noise_for_snr,
    sample_ud_state,
)


def test_per_run_costs_prints_every_piece(monkeypatch, capsys):
    monkeypatch.setattr(per_run_costs, "RUNS", 8)
    monkeypatch.setattr(per_run_costs, "REPEATS", 1)
    per_run_costs.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("cf_8an_30db window, K=8, seed 1, 1 repeats")
    pieces = (*per_run_costs.WINDOW_PIECES, "rest of _window_inputs",
              "_window_inputs", "estimate_batch per row")
    assert [line[:24].rstrip() for line in lines[2:]] == list(pieces)
    for line in lines[2:]:
        assert np.isfinite(float(line[24:]))


def test_compare_outputs_of_a_values_file_with_itself():
    anchors = build_square_scenario(800.0, 5)
    rng = np.random.default_rng(3)
    values = {}
    for run in range(4):
        ud = sample_ud_state(rng, 600.0, center=anchors.center)
        noise = noise_for_snr(ud, anchors, 20.0)
        meas = add_noise(forward_model(ud, anchors), noise, rng)
        values[f"est_5an_20.0db_{run}"] = output_digests.estimate_values(
            meas, anchors, noise, ud
        )
    ud = sample_ud_state(rng, 600.0, center=anchors.center)
    unit = NoiseSpec(np.ones(anchors.count), 1.0)
    values["est_5an_clean_0"] = output_digests.estimate_values(
        forward_model(ud, anchors), anchors, unit, ud
    )
    values["gn_5an_20.0db_0"] = output_digests.digest([ud.as_vector()])
    report = compare_outputs.compare(values, values)
    assert report["estimates"] == 5 and report["digests"] == 1
    assert report["same_winner_share"] == 1.0
    assert report["max_rel_state_diff"] == 0.0
    assert report["failure_mismatches"] == report["no_real_root_mismatches"] == 0
    assert report["candidate_count_changes"] == report["digest_mismatches"] == 0
    assert report["noise_free_max_rel_err"] < 1e-6
