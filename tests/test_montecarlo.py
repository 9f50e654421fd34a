import dataclasses
import json

import numpy as np
import pytest

from cftwlas import (
    CampaignConfig,
    ConfigurationError,
    MethodSpec,
    add_noise,
    benchmark_config,
    build_square_scenario,
    estimate,
    forward_model,
    noise_for_snr,
    run_campaign,
    sample_ud_state,
)
from cftwlas.cli import main as cli_main
from cftwlas.montecarlo import _run_batch, _sq_errors, config_from_dict, config_to_dict


def deterministic_fields(cell):
    """Everything except the measured wall time, which is volatile."""
    d = dataclasses.asdict(cell)
    d.pop("wall_s")
    return d


class TestRunCampaign:
    def test_noise_free_single_run_is_exact(self):
        cfg = CampaignConfig(noise_free=True, runs=1, seed=5)
        stats = run_campaign(cfg)
        cell = stats.cells[0]
        assert cell.rmse.pos <= 1e-9
        assert cell.rmse.vel <= 1e-9
        assert cell.failure_rate == 0.0

    def test_worker_count_does_not_change_results(self):
        base = CampaignConfig(snr_db=(30.0,), runs=60, seed=9, workers=1)
        parallel = CampaignConfig(snr_db=(30.0,), runs=60, seed=9, workers=3)
        cells_a = run_campaign(base).cells
        cells_b = run_campaign(parallel).cells
        assert len(cells_a) == len(cells_b)
        for a, b in zip(cells_a, cells_b):
            assert deterministic_fields(a) == deterministic_fields(b)

    def test_repeat_run_bit_identical(self):
        cfg = CampaignConfig(snr_db=(26.0,), runs=40, seed=4)
        a = run_campaign(cfg).cells
        b = run_campaign(cfg).cells
        for ca, cb in zip(a, b):
            assert deterministic_fields(ca) == deterministic_fields(cb)

    def test_cells_sorted_and_accessible(self):
        cfg = CampaignConfig(
            an_counts=(8, 4), snr_db=(40.0, 20.0), runs=10, seed=1,
            methods=(MethodSpec("cftwlas"),
                     MethodSpec("gauss_newton", init_std_m=50.0)),
        )
        stats = run_campaign(cfg)
        keys = [(c.method, c.snr_db, c.an_count) for c in stats.cells]
        assert keys == sorted(keys)
        cell = stats.cell("cftwlas", 20.0, 4)
        assert cell.an_count == 4 and cell.snr_db == 20.0

    def test_heavy_noise_campaign_completes(self):
        cfg = CampaignConfig(snr_db=(0.0,), runs=50, seed=2)
        stats = run_campaign(cfg)
        cell = stats.cells[0]
        assert 0.0 <= cell.large_error_rate <= 1.0
        assert 0.0 <= cell.fallback_rate <= 1.0
        assert 0.0 <= cell.failure_rate <= 1.0

    def test_flop_column_matches_models(self):
        from cftwlas import flops_cftwlas, flops_iterative_per_iter

        cfg = CampaignConfig(
            an_counts=(5,), snr_db=(30.0,), runs=5, seed=0,
            methods=(MethodSpec("cftwlas"),
                     MethodSpec("gauss_newton", init_std_m=50.0)),
        )
        stats = run_campaign(cfg)
        assert stats.cell("cftwlas", 30.0, 5).flops_per_call == flops_cftwlas(2, 5)
        gn = stats.cell("gauss_newton_init50", 30.0, 5)
        assert gn.flops_per_call == flops_iterative_per_iter(2, 5)
        assert gn.mean_iterations is not None and gn.mean_iterations >= 1.0

    def test_zero_tol_runs_every_iteration(self):
        # With convergence disabled every run spends exactly max_iter
        # iterations; the closed form reports none.
        cfg = CampaignConfig(
            snr_db=(30.0,), runs=40, seed=3,
            methods=(
                MethodSpec("gauss_newton", init_std_m=50.0, max_iter=3, tol_m=0.0),
                MethodSpec("gauss_newton", init_std_m=50.0, max_iter=5, tol_m=0.0),
                MethodSpec("cftwlas"),
            ),
        )
        stats = run_campaign(cfg)
        gn = [c.mean_iterations for c in stats.cells if c.method != "cftwlas"]
        assert sorted(gn) == [3.0, 5.0]
        cf = stats.cell("cftwlas", 30.0, 8)
        assert cf.mean_iterations is None
        assert cf.flops_per_call == 5713


class TestConfigSerialization:
    def test_roundtrip(self):
        cfg = benchmark_config(runs=123, seed=7)
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match="not_a_key"):
            config_from_dict({"not_a_key": 1})

    def test_bad_value_named(self):
        with pytest.raises(ConfigurationError, match="runs"):
            config_from_dict({"runs": 0})

    def test_bad_method_entry_named(self):
        with pytest.raises(ConfigurationError, match=r"methods\[0\]"):
            config_from_dict({"methods": [{"kind": "secret"}]})

    def test_noise_free_flag_type_checked(self):
        with pytest.raises(ConfigurationError, match="noise_free"):
            config_from_dict({"noise_free": 1})

    def test_benchmark_preset_layout(self):
        cfg = benchmark_config()
        assert cfg.anchor_side_m == 800.0
        assert cfg.an_counts == (8,)
        assert cfg.region_side_m == 500.0
        assert cfg.response_step_s == 0.010
        assert cfg.offset_range_s == (0.0, 20e-6)
        assert cfg.drift_range_ppm == (-10.0, 10.0)
        assert cfg.vmax_mps == 50.0
        assert cfg.snr_db == tuple(float(s) for s in range(10, 51, 2))
        assert cfg.runs == 10_000
        labels = [m.label for m in cfg.methods]
        assert labels == [
            "cftwlas", "gauss_newton_init50", "gauss_newton_init200",
        ]

    def test_validation_of_campaign_parameters(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(runs=0)
        with pytest.raises(ConfigurationError):
            CampaignConfig(snr_db=())
        with pytest.raises(ConfigurationError):
            CampaignConfig(methods=())
        with pytest.raises(ConfigurationError):
            MethodSpec(kind="unknown")


class TestBatchedCampaign:
    """The closed form runs as one stacked batch per worker window."""

    def test_degenerate_and_noise_free_csv_identical_across_workers(self, tmp_path):
        # A device at rest at the center of the square: every 4-anchor run is
        # degenerate (and goes through estimate() alone); noise-free runs
        # elsewhere solve exactly. Workers split the runs into windows.
        config = {
            "an_counts": [4, 5, 8],
            "noise_free": True,
            "region_side_m": 0.0,
            "vmax_mps": 0.0,
            "runs": 13,
            "seed": 21,
            "methods": [{"kind": "cftwlas"}, {"kind": "gauss_newton"}],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        blobs = []
        for workers in ("1", "2", "3"):
            csv_path = tmp_path / f"w{workers}.csv"
            summary_path = tmp_path / f"w{workers}.json"
            assert cli_main([
                "simulate", "--config", str(cfg_path), "--workers", workers,
                "--csv", str(csv_path), "--summary", str(summary_path),
            ]) == 0
            blobs.append(csv_path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        cells = json.loads(summary_path.read_text())["cells"]
        cf = {c["an_count"]: c for c in cells if c["method"] == "cftwlas"}
        assert cf[4]["failure_rate"] == 1.0
        assert cf[8]["failure_rate"] == 0.0

    def test_records_equal_per_call_estimates(self):
        cfg = CampaignConfig(
            an_counts=(8,), snr_db=(12.0,), runs=40, seed=17,
            methods=(MethodSpec("cftwlas"), MethodSpec("gauss_newton", init_std_m=50.0)),
        )
        start, stop, cell = 5, 40, 0
        records = _run_batch(cfg, 8, 12.0, cell, start, stop)
        anchors = build_square_scenario(cfg.anchor_side_m, 8, cfg.response_step_s)
        assert len(records) == stop - start
        for run, (_, (cf, gn)) in zip(range(start, stop), records):
            # The inputs the campaign draws for this run, rebuilt from the seed.
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, cell, run, 0]))
            truth = sample_ud_state(
                rng, cfg.region_side_m, cfg.vmax_mps, cfg.offset_range_s,
                cfg.drift_range_ppm, center=anchors.center,
            )
            noise = noise_for_snr(truth, anchors, 12.0)
            meas = add_noise(forward_model(truth, anchors), noise, rng)
            report = estimate(meas, anchors, noise)
            final = report.refined if report.refined is not None else report.raw

            def err2(state):
                if state is None:
                    return None
                return _sq_errors(state.as_vector()[None], truth.as_vector()[None], 2)[0]

            fallback, ref_err2, raw_err2, _, iterations = cf
            assert fallback == report.flags.no_real_root_fallback
            assert ref_err2 == err2(final) and raw_err2 == err2(report.raw)
            assert iterations is None
            assert gn[1] is not None and gn[2] is None and len(gn) == 5
