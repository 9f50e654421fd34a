import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftwlas import (
    CampaignConfig,
    ConfigurationError,
    DegenerateGeometryError,
    GeometryError,
    MethodSpec,
    NoiseSpec,
    UdState,
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
from cftwlas import montecarlo
from cftwlas.cli import main as cli_main
from cftwlas.montecarlo import (
    _gauss_newton,
    _join,
    _run_window,
    _sq_errors,
    _window_inputs,
    config_from_dict,
    config_to_dict,
)


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

    @pytest.mark.parametrize(
        "workers, runs, cpus, pool",
        [
            (100_000, 6, 4, 4),  # six one-run windows on four CPUs
            (8, 3, 64, 3),  # three windows on many CPUs
            (4, 40, 2, 2),  # four windows on two CPUs
            (100_000, 6, None, None),  # CPU count unknown: in this process
            (2, 1, 8, None),  # one window: in this process
        ],
    )
    def test_pool_never_larger_than_windows_or_cpus(
        self, monkeypatch, workers, runs, cpus, pool
    ):
        # The pool is a stand-in that records its size and maps in this
        # process, so no large pool is ever started.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        cfg = CampaignConfig(snr_db=(30.0,), runs=runs, seed=9, workers=workers)
        stats = run_campaign(cfg)
        assert sizes == ([] if pool is None else [pool])
        assert stats.config.workers == workers
        alone = run_campaign(dataclasses.replace(cfg, workers=1))
        assert [deterministic_fields(c) for c in stats.cells] == [
            deterministic_fields(c) for c in alone.cells
        ]

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
        # iterations; the closed form reports none. The two GN methods
        # differ in init_std_m too, since a label names one method.
        cfg = CampaignConfig(
            snr_db=(30.0,), runs=40, seed=3,
            methods=(
                MethodSpec("gauss_newton", init_std_m=50.0, max_iter=3, tol_m=0.0),
                MethodSpec("gauss_newton", init_std_m=40.0, max_iter=5, tol_m=0.0),
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

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"snr_db": "30"}, "snr_db"),
            ({"an_counts": "48"}, "an_counts"),
            ({"runs": 2.7}, "runs"),
            ({"an_counts": [8.5]}, "an_counts"),
            ({"seed": True}, "seed"),
            ({"runs": "5"}, "runs"),
            ({"offset_range_s": [0.0]}, "offset_range_s"),
            ({"methods": [{"kind": "gauss_newton", "max_iter": 2.9}]},
             r"methods\[0\]\.max_iter"),
        ],
    )
    def test_value_of_another_type_named(self, data, key):
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"offset_range_s": [2e-5, 0.0]}, "offset_range_s"),
            ({"drift_range_ppm": [10.0, -10.0]}, "drift_range_ppm"),
            ({"offset_range_s": [0.0, -0.0]}, "offset_range_s"),
            ({"drift_range_ppm": [0.0, -0.0]}, "drift_range_ppm"),
            ({"drift_range_ppm": [-1.7e308, 1.7e308]}, "drift_range_ppm"),
            ({"anchor_side_m": 10**400}, "anchor_side_m"),
            ({"snr_db": [30, -(10**400)]}, r"snr_db\[1\]"),
        ],
    )
    def test_value_that_would_fail_a_run_named(self, data, key):
        # A reversed or overflowing range used to raise inside the first
        # window, and a JSON integer too large for a float in the loader.
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "offset, drift",
        [
            ([1e-5, 1e-5], [0, 0]),
            # Spans of +0.0; [0.0, -0.0] spans -0.0, which the state draw rejects.
            ([-0.0, 0.0], [-0.0, -0.0]),
        ],
    )
    def test_zero_width_ranges_accepted(self, offset, drift):
        cfg = config_from_dict(
            {"runs": 2, "offset_range_s": offset, "drift_range_ppm": drift}
        )
        (cell,) = run_campaign(cfg).cells
        assert cell.runs == 2

    def test_numbers_read_as_their_field_types(self):
        cfg = config_from_dict({"anchor_side_m": 800, "snr_db": [30, 20.5]})
        assert cfg.anchor_side_m == 800.0 and type(cfg.anchor_side_m) is float
        assert cfg.snr_db == (30.0, 20.5)
        assert all(type(snr) is float for snr in cfg.snr_db)

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
        for key in ("region_side_m", "vmax_mps"):
            for bad in (-1.0, float("nan"), float("inf")):
                with pytest.raises(ConfigurationError, match=key):
                    CampaignConfig(**{key: bad})
            CampaignConfig(**{key: 0.0})
        for bad in (-50.0, float("inf")):
            with pytest.raises(ConfigurationError, match="init_std_m"):
                MethodSpec(kind="gauss_newton", init_std_m=bad)
        for bad in (-1e-4, float("nan")):
            with pytest.raises(ConfigurationError, match="tol_m"):
                MethodSpec(kind="gauss_newton", tol_m=bad)
        MethodSpec(kind="gauss_newton", tol_m=0.0)
        for key in ("offset_range_s", "drift_range_ppm"):
            for bounds in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)):
                with pytest.raises(ConfigurationError, match=key):
                    CampaignConfig(**{key: bounds})
        with pytest.raises(ConfigurationError, match="response_sigma_rule"):
            CampaignConfig(response_sigma_rule="median")
        with pytest.raises(ConfigurationError, match="response_sigma_rule"):
            CampaignConfig(noise_free=True, response_sigma_rule="median")
        with pytest.raises(ConfigurationError, match=r"methods\[1\].*init_std_m"):
            config_from_dict(
                {"methods": [{"kind": "cftwlas"}, {"kind": "gauss_newton", "init_std_m": -1}]}
            )
        with pytest.raises(ConfigurationError, match="seed"):
            CampaignConfig(seed=-1)
        CampaignConfig(seed=0)
        for counts in ((3,), (8, 6), (0,)):
            with pytest.raises(ConfigurationError, match="an_counts"):
                CampaignConfig(an_counts=counts)
        for key in ("anchor_side_m", "response_step_s"):
            for bad in (-1.0, 0.0, float("nan"), float("inf")):
                with pytest.raises(ConfigurationError, match=key):
                    CampaignConfig(**{key: bad})
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigurationError, match="snr_db"):
                CampaignConfig(snr_db=(30.0, bad))

    def test_methods_sharing_a_label_rejected(self, tmp_path, capsys):
        # Two GN methods that differ only in max_iter would write two CSV
        # rows under one key, and cell() would find only the first.
        methods = [
            {"kind": "gauss_newton", "max_iter": 5},
            {"kind": "gauss_newton", "max_iter": 20},
        ]
        with pytest.raises(ConfigurationError, match="'gauss_newton_init50'"):
            CampaignConfig(methods=tuple(MethodSpec(**m) for m in methods))
        CampaignConfig(methods=(MethodSpec("gauss_newton", init_std_m=25.0),
                                MethodSpec("gauss_newton")))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"runs": 2, "methods": methods}))
        assert cli_main([
            "simulate", "--config", str(cfg_path),
            "--csv", str(tmp_path / "out.csv"), "--summary", str(tmp_path / "out.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gauss_newton_init50" in err
        assert not (tmp_path / "out.csv").exists()


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

    def test_window_cap_does_not_change_csv_or_summary(self, tmp_path, monkeypatch):
        # _BATCH_ROWS caps the window: 8 splits each 40-run cell into five
        # windows, 256 leaves one. The outputs are the same bytes.
        config = {
            "an_counts": [5, 8],
            "snr_db": [10.0, 30.0],
            "runs": 40,
            "seed": 5,
            "methods": [
                {"kind": "cftwlas"},
                {"kind": "gauss_newton", "init_std_m": 200.0, "max_iter": 6},
            ],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        outputs = []
        for batch_rows in (256, 8):
            monkeypatch.setattr(montecarlo, "_BATCH_ROWS", batch_rows)
            csv_path = tmp_path / f"b{batch_rows}.csv"
            summary_path = tmp_path / f"b{batch_rows}.json"
            assert cli_main([
                "simulate", "--config", str(cfg_path),
                "--csv", str(csv_path), "--summary", str(summary_path),
            ]) == 0
            outputs.append((csv_path.read_bytes(), summary_path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_records_equal_per_call_estimates(self):
        methods = (
            MethodSpec("cftwlas"),
            MethodSpec("gauss_newton", init_std_m=50.0),
            MethodSpec("gauss_newton", init_std_m=200.0, max_iter=6),
        )
        noisy = CampaignConfig(
            an_counts=(8,), snr_db=(12.0,), runs=40, seed=17, methods=methods
        )
        # At rest in the center of the 4-anchor square every closed-form run
        # fails, and a failed row keeps the record estimate() gives alone.
        degenerate = CampaignConfig(
            an_counts=(4,), noise_free=True, region_side_m=0.0, vmax_mps=0.0,
            runs=40, seed=17, methods=methods,
        )
        start, stop, cell = 5, 40, 0
        for cfg, an_count, snr_db in ((noisy, 8, 12.0), (degenerate, 4, math.inf)):
            anchors = build_square_scenario(
                cfg.anchor_side_m, an_count, cfg.response_step_s
            )
            # A window of 35 runs, and the same runs as windows of up to 8
            # runs joined in run order.
            for width in (stop - start, 8):
                crlb_parts, method_parts = zip(*(
                    _run_window(cfg, (cell, an_count, snr_db, lo, min(lo + width, stop)))
                    for lo in range(start, stop, width)
                ))
                crlb_sqrt = np.concatenate(crlb_parts)
                cf, *gns = map(_join, zip(*method_parts))
                assert crlb_sqrt.shape == (stop - start, 4)
                for k, run in enumerate(range(start, stop)):
                    self._check_run(cfg, anchors, snr_db, cell, run, k, cf, gns)
            assert np.isnan(cf.err2).all() == cfg.noise_free

    @staticmethod
    def _check_run(cfg, anchors, snr_db, cell, run, k, cf, gns):
        """Row k of the method records, run ``run``, against the per-call
        results."""
        # The inputs the campaign draws for this run, rebuilt from the seed.
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, cell, run, 0]))
        truth = sample_ud_state(
            rng, cfg.region_side_m, cfg.vmax_mps, cfg.offset_range_s,
            cfg.drift_range_ppm, center=anchors.center,
        )
        meas = forward_model(truth, anchors)
        if cfg.noise_free:
            noise = NoiseSpec(np.ones(anchors.count), 1.0)
        else:
            noise = noise_for_snr(truth, anchors, snr_db)
            meas = add_noise(meas, noise, rng)
        report = estimate(meas, anchors, noise)
        final = report.refined if report.refined is not None else report.raw

        def err2(state):
            """The squared block errors' bits; NaN for a missing state."""
            vector = np.full(6, np.nan) if state is None else state.as_vector()
            return _sq_errors(vector[None], truth.as_vector()[None], 2)[0].tobytes()

        assert cf.flagged[k] == report.flags.no_real_root_fallback
        assert cf.err2[k].tobytes() == err2(final)
        assert cf.raw_err2[k].tobytes() == err2(report.raw)
        assert cf.iterations is None
        for mi, gn in enumerate(gns, 1):
            spec = cfg.methods[mi]
            method_rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, cell, run, mi + 1])
            )
            init = make_initializer(truth, spec.init_std_m, method_rng)
            state, trace = gauss_newton(
                meas, anchors, noise, init, max_iter=spec.max_iter, tol=spec.tol_m
            )
            assert gn.flagged[k] == (not trace.converged)
            assert gn.err2[k].tobytes() == err2(state) and gn.raw_err2 is None
            assert gn.iterations[k] == trace.iterations_used

    def test_gauss_newton_run_on_an_anchor_is_a_failed_run(self):
        # Run 1 starts exactly on an anchor (zero initialization noise from a
        # truth there): that row is a failed, non-converged run, and the
        # other rows of its window keep the records they have alone.
        anchors = build_square_scenario(800.0, 8)
        cfg = CampaignConfig(runs=3, seed=2)
        spec = MethodSpec("gauss_newton", init_std_m=0.0)
        noise = NoiseSpec(np.ones(8), 1.0)
        seen = UdState([410.0, 380.0], [3.0, -2.0], 100.0, 0.5)
        meas = forward_model(seen, anchors)
        uds = [
            UdState(pos, [3.0, -2.0], 100.0, 0.5)
            for pos in ([300.0, 350.0], anchors.positions[4], [520.0, 610.0])
        ]
        truths = np.array([ud.as_vector() for ud in uds])
        gamma = np.array([meas.stacked()] * 3)
        weights = np.array([noise.weights()] * 3)

        def runs(lo, hi):
            rows = slice(lo, hi)
            return _gauss_newton(
                cfg, spec, 0, 0, lo, truths[rows], gamma[rows],
                weights[rows], anchors,
            )

        window = runs(0, 3)
        assert window.flagged[1] and np.isnan(window.err2[1]).all()
        assert window.raw_err2 is None and window.iterations[1] == 0
        init = make_initializer(uds[1], 0.0, np.random.default_rng(0))
        with pytest.raises(GeometryError):
            gauss_newton(meas, anchors, noise, init)
        for k in (0, 2):
            alone = runs(k, k + 1)
            assert window.flagged[k] == alone.flagged[0]
            assert window.err2[k].tobytes() == alone.err2[0].tobytes()
            assert window.iterations[k] == alone.iterations[0]
            assert np.isfinite(window.err2[k]).all()


def _crlb_failing_on_some_states(state, anchors, noise):
    """``crlb``, raising as on a singular information matrix for about a
    third of the device states."""
    if int(state.pos[0] * 1e3) % 3 == 0:
        raise DegenerateGeometryError("singular information matrix")
    return crlb(state, anchors, noise)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cell=st.integers(0, 40),
    start=st.integers(0, 30),
    length=st.integers(1, 12),
    an_count=st.sampled_from((4, 5, 8)),
    snr_db=st.one_of(st.just(math.inf), st.floats(-10.0, 60.0)),
    rule=st.sampled_from(("mean", "min", "max")),
    prior=st.sampled_from(((500.0, 50.0), (0.0, 0.0))),
)
def test_window_inputs_equal_per_run_calls(
    seed, cell, start, length, an_count, snr_db, rule, prior
):
    # The window's stacks equal, byte for byte, the chain of public calls on
    # each run alone: sample_ud_state, forward_model, noise_for_snr,
    # add_noise (unit sigmas and no noise when noise-free) and crlb. A run
    # whose bound raises is NaN on both sides.
    noise_free = snr_db == math.inf
    cfg = CampaignConfig(
        an_counts=(an_count,), snr_db=(30.0,) if noise_free else (snr_db,),
        noise_free=noise_free, region_side_m=prior[0], vmax_mps=prior[1],
        runs=start + length, seed=seed, response_sigma_rule=rule,
    )
    anchors = build_square_scenario(cfg.anchor_side_m, an_count, cfg.response_step_s)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "crlb", _crlb_failing_on_some_states)
        stacks = _window_inputs(cfg, anchors, cell, snr_db, start, start + length)
        rows = []
        for run in range(start, start + length):
            rng = np.random.default_rng(np.random.SeedSequence([seed, cell, run, 0]))
            truth = sample_ud_state(
                rng, cfg.region_side_m, cfg.vmax_mps, cfg.offset_range_s,
                cfg.drift_range_ppm, center=anchors.center,
            )
            meas = forward_model(truth, anchors)
            if noise_free:
                noise = NoiseSpec(np.ones(an_count), 1.0)
            else:
                noise = noise_for_snr(truth, anchors, snr_db, rule)
                meas = add_noise(meas, noise, rng)
            try:
                blocks = dataclasses.astuple(montecarlo.crlb(truth, anchors, noise).blocks)
                bound = [math.sqrt(b) for b in blocks]
            except DegenerateGeometryError:
                bound = [math.nan] * 4
            rows.append((truth.as_vector(), meas.stacked(), noise.weights(), bound))
    for stack, column in zip(stacks, zip(*rows)):
        assert stack.tobytes() == np.array(column).tobytes()


def test_window_weights_equal_noise_spec_weights_over_many_runs():
    # NoiseSpec squares its response sigma as a Python float, with C pow();
    # an array's x * x differs from that in about one value in a thousand.
    cfg = CampaignConfig(snr_db=(20.0,), runs=4000, seed=3)
    anchors = build_square_scenario(cfg.anchor_side_m, 8, cfg.response_step_s)
    _, _, weights, _ = _window_inputs(cfg, anchors, 0, 20.0, 0, cfg.runs)
    expected = []
    for run in range(cfg.runs):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, run, 0]))
        truth = sample_ud_state(
            rng, cfg.region_side_m, cfg.vmax_mps, cfg.offset_range_s,
            cfg.drift_range_ppm, center=anchors.center,
        )
        expected.append(noise_for_snr(truth, anchors, 20.0).weights())
    assert weights.tobytes() == np.array(expected).tobytes()
