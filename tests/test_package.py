"""The package surface: what ``cftwlas`` exports, where the rest of the API
lives, and README's library quick start."""

import importlib
import inspect
import re
from pathlib import Path

import numpy as np

import cftwlas

README = Path(__file__).resolve().parent.parent / "README.md"

# What the README, the acceptance suite and the scripts import from the package.
EXPORTS = {
    "AnchorSet", "MeasurementSet", "NoiseSpec", "UdState", "build_square_scenario",
    "sample_ud_state", "forward_model", "noise_for_snr", "add_noise",
    "estimate", "build_system", "gauss_newton", "make_initializer",
    "jacobian", "predict_measurements", "crlb", "flops_cftwlas",
    "flops_iterative_per_iter",
    "CampaignConfig", "MethodSpec", "benchmark_config", "run_campaign",
    "ConfigurationError", "GeometryError", "DegenerateGeometryError",
}
# The rest of the public API, return types included, by defining module.
MODULE_ONLY = {
    "analysis": ("BlockValues", "CrlbResult"),
    "baseline": ("IterationTrace",),
    "estimator": (
        "Candidate", "EstimateFlags", "EstimateReport", "Residuals",
        "compute_residuals", "raw_estimate", "wls_refine",
    ),
    "linear_system": ("LinearSystem", "constraint_matrices"),
    "montecarlo": ("CampaignStats", "CellStats"),
    "polysolve": (
        "AuxiliaryPair", "BivariateQuadratic", "BivariateSolution",
        "coefficients_from_system", "solve_pair", "solve_pair_detailed",
    ),
}


def test_package_exports_what_its_callers_use():
    public = {
        name for name, value in vars(cftwlas).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == EXPORTS
    assert cftwlas.__version__


def test_other_names_import_from_their_modules():
    for module_name, names in MODULE_ONLY.items():
        module = importlib.import_module(f"cftwlas.{module_name}")
        for name in names:
            assert getattr(module, name).__module__ == module.__name__, name
            assert not hasattr(cftwlas, name), name
    assert importlib.import_module("cftwlas.scenario").SPEED_OF_LIGHT == 299_792_458.0


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    bound = float(printed[1])
    assert 0.0 < bound < np.inf
    report, truth = namespace["report"], namespace["truth"]
    assert np.linalg.norm(report.refined.pos - truth.pos) < 5.0 * bound
