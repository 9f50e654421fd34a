"""The traced benchmark run depends on where library functions live.

``bench/spans.py`` rebinds each (module, attribute) call site in
``CALL_SITES`` to a timing wrapper and names the span after the module that
defines the wrapped function. A refactor that drops a call site, or moves a
function to another module, leaves some per-layer span list empty and the
traced run fails; these tests catch that in the default suite, which does not
run ``bench/test_smoke.py``.
"""

import importlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"

# Call site -> module that defines the function reached through it.
DEFINED_IN = {
    ("cftwlas.cli", "run_campaign"): "cftwlas.montecarlo",
    ("cftwlas.montecarlo", "sample_ud_state"): "cftwlas.scenario",
    ("cftwlas.montecarlo", "forward_model"): "cftwlas.scenario",
    ("cftwlas.montecarlo", "noise_for_snr"): "cftwlas.scenario",
    ("cftwlas.montecarlo", "add_noise"): "cftwlas.scenario",
    ("cftwlas.montecarlo", "crlb"): "cftwlas.analysis",
    ("cftwlas.montecarlo", "estimate"): "cftwlas.estimator",
    ("cftwlas.montecarlo", "make_initializer"): "cftwlas.baseline",
    ("cftwlas.montecarlo", "gauss_newton"): "cftwlas.baseline",
    ("cftwlas.estimator", "raw_estimate"): "cftwlas.estimator",
    ("cftwlas.estimator", "wls_refine"): "cftwlas.estimator",
    ("cftwlas.estimator", "build_system"): "cftwlas.linear_system",
    ("cftwlas.estimator", "coefficients_from_system"): "cftwlas.polysolve",
    ("cftwlas.estimator", "solve_pair_detailed"): "cftwlas.polysolve",
    ("cftwlas.estimator", "compute_residuals"): "cftwlas.estimator",
    ("cftwlas.estimator", "jacobian"): "cftwlas.analysis",
    ("cftwlas.estimator", "predict_measurements"): "cftwlas.analysis",
    ("cftwlas.baseline", "compute_residuals"): "cftwlas.estimator",
    ("cftwlas.baseline", "jacobian"): "cftwlas.analysis",
    ("cftwlas.baseline", "predict_measurements"): "cftwlas.analysis",
    ("cftwlas.analysis", "jacobian"): "cftwlas.analysis",
}


def _call_sites():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.CALL_SITES


def test_call_sites_resolve_to_their_defining_modules():
    sites = _call_sites()
    assert set(sites) == set(DEFINED_IN)
    for module_name, attr in sites:
        fn = getattr(importlib.import_module(module_name), attr)
        assert callable(fn), (module_name, attr)
        assert fn.__name__ == attr, (module_name, attr)
        assert fn.__module__ == DEFINED_IN[(module_name, attr)], (module_name, attr)


# Span names the traced benchmark run reduces to per-layer figures; each must
# fire at least once for one estimate(), one gauss_newton() and one crlb().
TRACED_SPANS = {
    "linear_system.build_system",
    "polysolve.coefficients_from_system",
    "polysolve.solve_pair_detailed",
    "estimator.raw_estimate",
    "estimator.wls_refine",
    "analysis.jacobian",
    "analysis.predict_measurements",
    "analysis.crlb",
}


def test_traced_spans_fire_through_call_sites(monkeypatch):
    counts = Counter()

    def counting(fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, attr in _call_sites():
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counting(getattr(module, attr)))

    from cftwlas import montecarlo
    from cftwlas.scenario import (
        add_noise,
        build_square_scenario,
        forward_model,
        noise_for_snr,
        sample_ud_state,
    )

    rng = np.random.default_rng(4)
    anchors = build_square_scenario(800.0, 8)
    ud = sample_ud_state(rng, 500.0, center=anchors.center)
    noise = noise_for_snr(ud, anchors, 30.0)
    meas = add_noise(forward_model(ud, anchors), noise, rng)
    report = montecarlo.estimate(meas, anchors, noise)
    init = montecarlo.make_initializer(ud, 50.0, rng)
    montecarlo.gauss_newton(meas, anchors, noise, init)
    montecarlo.crlb(ud, anchors, noise)

    assert report.refined is not None
    missing = {name for name in TRACED_SPANS if counts[name] == 0}
    assert not missing, f"spans that never fired: {sorted(missing)}"


def test_bench_reads_every_cell_of_the_cli_summary(tmp_path, monkeypatch):
    # The benchmark's CLI campaigns read their cells back from the summary
    # JSON; a key it reads that the summary no longer writes fails here.
    from cftwlas import cli

    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    config = {
        "an_counts": [4, 8],
        "snr_db": [30.0],
        "runs": 6,
        "seed": 3,
        "methods": [{"kind": "cftwlas"}, {"kind": "gauss_newton"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    summary_path = tmp_path / "summary.json"
    assert cli.main([
        "simulate", "--config", str(cfg_path), "--csv", str(tmp_path / "out.csv"),
        "--summary", str(summary_path),
    ]) == 0
    summary = json.loads(summary_path.read_text())
    cells = workloads.cells_from_summary(summary)
    assert len(cells) == len(summary["cells"]) == 4
    assert {an_count for _, _, an_count in cells} == {4, 8}
    assert all(cell["runs"] == 6 for cell in cells.values())
