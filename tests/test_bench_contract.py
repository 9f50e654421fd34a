"""The traced benchmark run depends on where library functions live.

``bench/spans.py`` rebinds each (module, attribute) call site in
``CALL_SITES`` to a timing wrapper and names the span after the module that
defines the wrapped function. A refactor that drops a call site, or moves a
function to another module, leaves some per-layer span list empty and the
traced run fails; this test catches that in the default suite, which does not
run ``bench/test_smoke.py``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

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
