import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from cftwlas import montecarlo
from cftwlas.cli import main
from cftwlas.scenario import (
    SPEED_OF_LIGHT,
    UdState,
    build_square_scenario,
    forward_model,
    noise_for_snr,
)


def small_config(**overrides):
    cfg = {
        "an_counts": [4, 8],
        "snr_db": [30.0, 20.0],
        "runs": 30,
        "seed": 12,
        "methods": [
            {"kind": "cftwlas"},
            {"kind": "gauss_newton", "init_std_m": 50.0},
        ],
    }
    cfg.update(overrides)
    return cfg


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestFlopsCommand:
    def test_prints_published_values(self, capsys):
        assert main(["flops", "--dims", "2", "--anchors", "8"]) == 0
        out = capsys.readouterr().out
        assert "cftwlas_flops=5713" in out
        assert "iterative_flops_per_iteration=1976" in out


class TestSimulateCommand:
    def test_same_seed_gives_identical_csv(self, tmp_path):
        cfg_path = write_json(tmp_path / "cfg.json", small_config())
        outputs = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"{tag}.csv"
            code = main([
                "simulate", "--config", cfg_path, "--seed", "7",
                "--csv", str(csv_path),
                "--summary", str(tmp_path / f"{tag}.json"),
            ])
            assert code == 0
            outputs.append(csv_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_parallelism_does_not_change_csv(self, tmp_path):
        cfg_path = write_json(tmp_path / "cfg.json", small_config(runs=40))
        blobs = []
        for workers in ("1", "2"):
            csv_path = tmp_path / f"w{workers}.csv"
            assert main([
                "simulate", "--config", cfg_path, "--workers", workers,
                "--csv", str(csv_path),
                "--summary", str(tmp_path / f"w{workers}.json"),
            ]) == 0
            blobs.append(csv_path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_above_2_to_the_64_gives_the_same_outputs_at_any_workers(
        self, tmp_path, monkeypatch
    ):
        # A seed of three entropy words reaches the pool's workers, which
        # seed their windows' streams themselves. The CSV is byte-identical
        # at 1, 2 and 3 workers, and so is the summary but for the worker
        # count in its resolved config.
        pools = []

        class RecordedPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordedPool)
        cfg_path = write_json(tmp_path / "cfg.json", small_config(runs=20))
        seed = 2**64 + 12345
        csvs, summaries = [], []
        for workers in (1, 2, 3):
            csv_path, summary_path = tmp_path / f"w{workers}.csv", tmp_path / f"w{workers}.json"
            assert main([
                "simulate", "--config", cfg_path, "--seed", str(seed),
                "--workers", str(workers), "--csv", str(csv_path),
                "--summary", str(summary_path),
            ]) == 0
            summary = summary_path.read_text()
            assert json.loads(summary)["seed"] == seed
            assert summary.count(f'"workers": {workers}') == 1
            csvs.append(csv_path.read_bytes())
            summaries.append(summary.replace(f'"workers": {workers}', '"workers": 1'))
        assert csvs[0] == csvs[1] == csvs[2]
        assert summaries[0] == summaries[1] == summaries[2]
        # Each layout's 40 rows make 2 windows at 2 workers and 3 at 3.
        cpus = os.cpu_count() or 1
        assert pools == [p for p in (min(2, cpus), min(3, cpus)) if p > 1]

    def test_rows_stable_ordered(self, tmp_path):
        cfg_path = write_json(tmp_path / "cfg.json", small_config())
        csv_path = tmp_path / "out.csv"
        assert main([
            "simulate", "--config", cfg_path,
            "--csv", str(csv_path), "--summary", str(tmp_path / "out.json"),
        ]) == 0
        lines = csv_path.read_text().strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header.startswith("method,snr_db,an_count,runs,rmse_pos_m")
        keys = []
        for row in rows:
            fields = row.split(",")
            keys.append((fields[0], float(fields[1]), int(fields[2])))
        assert keys == sorted(keys)
        assert len(rows) == 2 * 2 * 2  # methods x snrs x an_counts

    def test_summary_embeds_resolved_config_and_seed(self, tmp_path):
        cfg_path = write_json(tmp_path / "cfg.json", small_config())
        summary_path = tmp_path / "out.json"
        assert main([
            "simulate", "--config", cfg_path, "--seed", "99",
            "--csv", str(tmp_path / "out.csv"), "--summary", str(summary_path),
        ]) == 0
        payload = json.loads(summary_path.read_text())
        assert payload["seed"] == 99
        assert payload["config"]["seed"] == 99
        assert payload["config"]["an_counts"] == [4, 8]
        assert len(payload["cells"]) == 8

    def test_unknown_config_key_is_reported(self, tmp_path, capsys):
        cfg_path = write_json(tmp_path / "cfg.json", {"sigma": 3})
        assert main([
            "simulate", "--config", cfg_path,
            "--csv", str(tmp_path / "o.csv"), "--summary", str(tmp_path / "o.json"),
        ]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main([
            "simulate", "--config", str(tmp_path / "absent.json"),
            "--csv", str(tmp_path / "o.csv"), "--summary", str(tmp_path / "o.json"),
        ]) == 2
        assert "absent.json" in capsys.readouterr().err

    def test_preset_benchmark_with_small_override(self, tmp_path):
        csv_path = tmp_path / "bench.csv"
        assert main([
            "simulate", "--preset", "benchmark", "--runs", "3", "--seed", "1",
            "--csv", str(csv_path), "--summary", str(tmp_path / "bench.json"),
        ]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 21 * 3  # header + snr points x methods

    @pytest.mark.parametrize("key", ["region_side_m", "vmax_mps"])
    def test_negative_prior_reported(self, tmp_path, capsys, key):
        cfg_path = write_json(tmp_path / "cfg.json", small_config(**{key: -1.0}))
        assert main([
            "simulate", "--config", cfg_path,
            "--csv", str(tmp_path / "o.csv"), "--summary", str(tmp_path / "o.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("key", ["region_side_m", "vmax_mps"])
    def test_infinite_prior_reported(self, tmp_path, capsys, key):
        cfg_path = write_json(tmp_path / "cfg.json", small_config(**{key: float("inf")}))
        assert main([
            "simulate", "--config", cfg_path,
            "--csv", str(tmp_path / "o.csv"), "--summary", str(tmp_path / "o.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_method_tolerance_reported(self, tmp_path, capsys, tol):
        methods = [{"kind": "cftwlas"}, {"kind": "gauss_newton", "tol_m": tol}]
        cfg_path = write_json(tmp_path / "cfg.json", small_config(methods=methods))
        assert main([
            "simulate", "--config", cfg_path,
            "--csv", str(tmp_path / "o.csv"), "--summary", str(tmp_path / "o.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "methods[1]" in err and "tol_m" in err

    @pytest.mark.parametrize("key", ["offset_range_s", "drift_range_ppm"])
    def test_non_finite_prior_bound_reported(self, tmp_path, capsys, key):
        bounds = [float("-inf"), float("inf")]
        cfg_path = write_json(tmp_path / "cfg.json", small_config(**{key: bounds}))
        assert main([
            "simulate", "--config", cfg_path,
            "--csv", str(tmp_path / "o.csv"), "--summary", str(tmp_path / "o.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("option", ["--csv", "--summary"])
    def test_unwritable_output_reported_before_any_run(
        self, tmp_path, capsys, monkeypatch, option
    ):
        def no_campaign(cfg):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr("cftwlas.cli.run_campaign", no_campaign)
        paths = {"--csv": tmp_path / "o.csv", "--summary": tmp_path / "o.json"}
        paths[option] = tmp_path / "absent" / "out"
        assert main([
            "simulate", "--preset", "benchmark", "--runs", "200",
            "--csv", str(paths["--csv"]), "--summary", str(paths["--summary"]),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent" in err

    def test_failed_cells_write_nan_and_inf(self, tmp_path):
        # At rest in the center of the 4-anchor square the closed form fails
        # every run, so its RMSE fields are NaN; a noise-free cell's SNR is inf.
        cfg_path = write_json(tmp_path / "cfg.json", {
            "an_counts": [4], "noise_free": True, "region_side_m": 0.0,
            "vmax_mps": 0.0, "runs": 3, "seed": 1, "methods": [{"kind": "cftwlas"}],
        })
        csv_path = tmp_path / "o.csv"
        assert main([
            "simulate", "--config", cfg_path,
            "--csv", str(csv_path), "--summary", str(tmp_path / "o.json"),
        ]) == 0
        header, row = csv_path.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["snr_db"] == "inf"
        for key in ("rmse_pos_m", "rmse_vel_mps", "rmse_b_m", "rmse_w_mps"):
            assert fields[key] == "nan"

    def test_negative_seed_reported(self, tmp_path, capsys):
        assert main([
            "simulate", "--preset", "benchmark", "--runs", "2", "--seed", "-1",
            "--csv", str(tmp_path / "o.csv"), "--summary", str(tmp_path / "o.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"snr_db": "30"}, "snr_db"),
            ({"an_counts": [3]}, "an_counts"),
            ({"anchor_side_m": float("nan")}, "anchor_side_m"),
            ({"response_step_s": -0.01}, "response_step_s"),
            ({"snr_db": [30.0, float("inf")]}, "snr_db"),
            ({"offset_range_s": [2e-5, 0.0]}, "offset_range_s"),
            ({"drift_range_ppm": [10.0, -10.0]}, "drift_range_ppm"),
            ({"offset_range_s": [0.0, -0.0]}, "offset_range_s"),
            ({"drift_range_ppm": [0.0, -0.0]}, "drift_range_ppm"),
            ({"anchor_side_m": 10**400}, "anchor_side_m"),
            ({"snr_db": [30.0, 20.0, 30.0]}, "snr_db must be distinct; 30.0 repeats"),
            ({"an_counts": [8, 8]}, "an_counts must be distinct; 8 repeats"),
        ],
    )
    def test_bad_campaign_value_reported_before_any_run(
        self, tmp_path, capsys, overrides, key
    ):
        cfg_path = write_json(tmp_path / "cfg.json", small_config(**overrides))
        assert main([
            "simulate", "--config", cfg_path,
            "--csv", str(tmp_path / "o.csv"), "--summary", str(tmp_path / "o.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "o.csv").exists()

    def test_requires_config_or_preset(self, capsys):
        assert main(["simulate"]) == 2
        assert "config" in capsys.readouterr().err.lower()


def estimate_case(tmp_path, noisy=False):
    anchors = build_square_scenario(800.0, 8)
    ud = UdState([320.0, 540.0], [22.0, -14.0], 1500.0, 600.0)
    meas = forward_model(ud, anchors)
    noise = noise_for_snr(ud, anchors, 30.0)
    payload = {
        "anchors": anchors.positions.tolist(),
        "schedule_s": anchors.schedule.tolist(),
        "request_toa_m": meas.request_toa.tolist(),
        "response_toa_m": meas.response_toa.tolist(),
        "sigma_request_m": noise.sigma_request.tolist(),
        "sigma_response_m": noise.sigma_response,
        "truth": {
            "pos_m": ud.pos.tolist(),
            "vel_mps": ud.vel.tolist(),
            "offset_s": ud.offset / SPEED_OF_LIGHT,
            "drift_ppm": ud.drift / SPEED_OF_LIGHT * 1e6,
        },
    }
    return write_json(tmp_path / "case.json", payload), ud


class TestEstimateCommand:
    def test_noise_free_roundtrip_recovers_truth(self, tmp_path):
        case_path, ud = estimate_case(tmp_path)
        out_path = tmp_path / "result.json"
        assert main([
            "estimate", "--input", case_path, "--output", str(out_path),
        ]) == 0
        payload = json.loads(out_path.read_text())
        refined = payload["refined"]
        np.testing.assert_allclose(refined["pos_m"], ud.pos, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(refined["vel_mps"], ud.vel, rtol=1e-6, atol=1e-6)
        assert refined["offset_s"] * SPEED_OF_LIGHT == pytest.approx(
            ud.offset, rel=1e-6
        )
        assert refined["drift_ppm"] * 1e-6 * SPEED_OF_LIGHT == pytest.approx(
            ud.drift, rel=1e-6
        )
        assert payload["position_error_m"] < 1e-6
        assert payload["flags"]["degenerate_geometry"] is False

    def test_missing_key_reported(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"anchors": [[0, 0], [1, 1]]})
        assert main(["estimate", "--input", path]) == 2
        assert "schedule_s" in capsys.readouterr().err

    def test_sigma_length_mismatch_reported(self, tmp_path, capsys):
        case_path, _ = estimate_case(tmp_path)
        payload = json.loads(Path(case_path).read_text())
        payload["sigma_request_m"] = payload["sigma_request_m"][:-1]
        path = write_json(tmp_path / "short.json", payload)
        assert main(["estimate", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "7 request sigmas" in err

    def test_truth_of_another_dimension_reported(self, tmp_path, capsys):
        case_path, _ = estimate_case(tmp_path)
        payload = json.loads(Path(case_path).read_text())
        payload["truth"]["pos_m"].append(0.0)
        payload["truth"]["vel_mps"].append(0.0)
        path = write_json(tmp_path / "truth_3d.json", payload)
        assert main(["estimate", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "3-D state and 2-D anchors" in err

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_fewer_than_one_refine_step_reported(self, tmp_path, capsys, steps):
        case_path, _ = estimate_case(tmp_path)
        assert main(["estimate", "--input", case_path, "--refine-steps", steps]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at least 1 step" in err


def crlb_scene():
    anchors = build_square_scenario(800.0, 8)
    return {
        "anchors": anchors.positions.tolist(),
        "schedule_s": anchors.schedule.tolist(),
        "ud": {
            "pos_m": [400.0, 300.0],
            "vel_mps": [10.0, 0.0],
            "offset_s": 5e-6,
            "drift_ppm": 3.0,
        },
        "snr_db": 30.0,
    }


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("estimate", "request_toa_m", ["a"] * 8),
        ("estimate", "sigma_response_m", "x"),
        ("estimate", "anchors", [[0.0, 0.0], [1.0]]),
        ("crlb", "snr_db", "high"),
        ("crlb", "drift_ppm", [1.0, 2.0]),
    ],
)
def test_non_numeric_input_value_reported(tmp_path, capsys, command, key, value):
    # A value that is not a number (or not an array of them) ends in exit 2
    # with an error naming the file and the key, as a bad config key does.
    if command == "estimate":
        case_path, _ = estimate_case(tmp_path)
        payload = json.loads(Path(case_path).read_text())
    else:
        payload = crlb_scene()
    (payload["ud"] if key == "drift_ppm" else payload)[key] = value
    path = write_json(tmp_path / "bad_value.json", payload)
    assert main([command, "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and f"'{key}'" in err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("estimate", "sigma_response_m", 10**400),
        ("estimate", "request_toa_m", [10**400] + [300.0] * 7),
        ("estimate", "anchors", [[-(10**400), 0.0]] + [[800.0, 0.0]] * 7),
        ("crlb", "snr_db", 10**400),
        ("crlb", "drift_ppm", -(10**400)),
    ],
    ids=["sigma_response_m", "request_toa_m", "anchors", "snr_db", "drift_ppm"],
)
def test_number_too_large_for_a_double_reported(tmp_path, capsys, command, key, value):
    # A 400-digit JSON integer overflows a double. It ends in exit 2 with an
    # error naming the file and the key, as null and 1e999 do.
    if command == "estimate":
        case_path, _ = estimate_case(tmp_path)
        payload = json.loads(Path(case_path).read_text())
    else:
        payload = crlb_scene()
    (payload["ud"] if key == "drift_ppm" else payload)[key] = value
    path = write_json(tmp_path / "huge_value.json", payload)
    assert main([command, "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and f"'{key}'" in err


@pytest.mark.parametrize(
    "key, values",
    [
        ("request_toa_m", ["null"] * 8),
        ("request_toa_m", ["1e999"] + ["300.0"] * 7),
        ("response_toa_m", ["300.0"] * 7 + ["-1e999"]),
        ("response_toa_m", ["NaN"] + ["300.0"] * 7),
    ],
)
def test_non_finite_toa_reported(tmp_path, capsys, key, values):
    # JSON null reads as NaN and 1e999 as infinity. A TOA that is not finite
    # ends in exit 2 with an error naming the file and the key, not in an
    # estimate flagged as degenerate geometry.
    case_path, _ = estimate_case(tmp_path)
    payload = json.loads(Path(case_path).read_text())
    payload[key] = "TOAS"
    path = tmp_path / "bad_toa.json"
    path.write_text(
        json.dumps(payload).replace('"TOAS"', "[" + ", ".join(values) + "]")
    )
    assert main(["estimate", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and f"'{key}'" in err


class TestCrlbCommand:
    def test_bound_for_scenario_file(self, tmp_path):
        path = write_json(tmp_path / "scene.json", crlb_scene())
        out_path = tmp_path / "bound.json"
        assert main(["crlb", "--input", path, "--output", str(out_path)]) == 0
        result = json.loads(out_path.read_text())
        assert result["pos_rmse_bound_m"] > 0
        assert len(result["crlb_matrix"]) == 6
        assert result["pos_rmse_bound_m"] < 30.0

    @pytest.mark.parametrize("noise", ["snr_db", "sigmas"])
    def test_state_of_another_dimension_reported(self, tmp_path, capsys, noise):
        scene = crlb_scene()
        if noise == "sigmas":
            del scene["snr_db"]
            scene.update(sigma_request_m=[1.0] * 8, sigma_response_m=1.0)
        scene["ud"].update(pos_m=[400.0, 300.0, 10.0], vel_mps=[10.0, 0.0, 0.0])
        path = write_json(tmp_path / "scene.json", scene)
        assert main(["crlb", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "3-D state and 2-D anchors" in err

    def test_sigma_count_mismatch_reported(self, tmp_path, capsys):
        scene = crlb_scene()
        del scene["snr_db"]
        scene.update(sigma_request_m=[1.0] * 7, sigma_response_m=1.0)
        path = write_json(tmp_path / "scene.json", scene)
        assert main(["crlb", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "8 anchors and 7 request sigmas" in err


@pytest.mark.parametrize("command", ["estimate", "crlb"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("sigma_request_m", 1e-200),
        ("sigma_request_m", 1e200),
        ("sigma_response_m", 1e-200),
        ("sigma_response_m", 1e200),
    ],
)
def test_sigma_without_finite_weight_reported(tmp_path, capsys, command, key, value):
    # A sigma whose weight 1/sigma^2 is not a positive finite double ends in
    # exit 2 with an error naming the request or response sigma: not in an
    # OverflowError or a ZeroDivisionError, an estimate without candidates
    # or a singular bound.
    if command == "estimate":
        case_path, _ = estimate_case(tmp_path)
        payload = json.loads(Path(case_path).read_text())
    else:
        payload = crlb_scene()
        del payload["snr_db"]
        payload.update(sigma_request_m=[1.0] * 8, sigma_response_m=1.0)
    payload[key] = [value] * 8 if key == "sigma_request_m" else value
    path = write_json(tmp_path / "sigma.json", payload)
    assert main([command, "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key.split("_")[1] in err


@pytest.mark.filterwarnings("error")
def test_huge_finite_toa_is_degenerate_without_warnings(tmp_path, capsys):
    # A request TOA of 1e200 m is finite, so the input passes; its squares
    # overflow, and the estimate reports degenerate geometry with exit 0 and
    # nothing on stderr.
    case_path, _ = estimate_case(tmp_path)
    payload = json.loads(Path(case_path).read_text())
    payload["request_toa_m"][3] = 1e200
    path = write_json(tmp_path / "huge.json", payload)
    assert main(["estimate", "--input", path]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["flags"]["degenerate_geometry"]


def test_scalar_request_sigma_equals_the_list(tmp_path):
    # A scalar sigma_request_m stands for that sigma at every anchor.
    case_path, _ = estimate_case(tmp_path)
    payload = json.loads(Path(case_path).read_text())
    payload["request_toa_m"][0] += 0.3
    outputs = []
    for sigma in (0.7, [0.7] * 8):
        payload["sigma_request_m"] = sigma
        path = write_json(tmp_path / "case.json", payload)
        out = tmp_path / f"out_{len(outputs)}.json"
        assert main(["estimate", "--input", path, "--output", str(out)]) == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]


def test_singular_information_reported(tmp_path, capsys):
    # Collinear anchors and a device moving along their line leave the
    # information matrix singular.
    scene = crlb_scene()
    scene.update(
        anchors=[[100.0 * i, 0.0] for i in range(5)],
        schedule_s=[0.01 * (i + 1) for i in range(5)],
    )
    scene["ud"].update(pos_m=[150.0, 0.0], vel_mps=[3.0, 0.0])
    path = write_json(tmp_path / "line.json", scene)
    assert main(["crlb", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "singular information matrix" in err


@pytest.mark.parametrize("command", ["estimate", "crlb", "simulate"])
def test_input_file_that_is_not_json_reported(tmp_path, capsys, command):
    path = tmp_path / "broken.json"
    path.write_text('{"anchors": [[0.0, 0.0],')
    option = "--config" if command == "simulate" else "--input"
    assert main([command, option, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON")
