"""Write the fixed-seed reference outputs and the build that produced them.

    PYTHONPATH=src python3 scripts/reference_outputs.py tests/reference

writes into the given directory:

* ``digests_7.json``: what ``scripts/output_digests.py 7`` prints, per-input
  digests of ``estimate()``, ``gauss_newton()`` and ``crlb()`` plus the
  campaign digests;
* ``benchmark_200.csv`` and ``benchmark_200.json``: the CSV and summary of
  ``cftwlas simulate --preset benchmark --runs 200 --seed 20260810``;
* ``stamp.json``: the Python and numpy versions and the BLAS (library,
  version and the CPU kernel set OpenBLAS chose) that computed them.

``tests/test_reference_outputs.py`` recomputes these outputs and requires
them bit for bit, on the stamped build only: another numpy or BLAS build
may change last bits. A change that shifts numbers on purpose regenerates
the reference with this script and says why in ``CHANGES.md``.
"""

import ctypes
import json
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import output_digests  # noqa: E402

from cftwlas.cli import main as cli_main  # noqa: E402

DIGEST_SEED = 7
SIMULATE_ARGS = [
    "simulate", "--preset", "benchmark", "--runs", "200", "--seed", "20260810",
]


def _blas_core() -> str | None:
    """The kernel set of numpy's bundled OpenBLAS, which it picks for the
    CPU at load time; None for another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def build_stamp() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_core": _blas_core(),
    }


def digests_text() -> str:
    """``scripts/output_digests.py 7``'s output, byte for byte."""
    return json.dumps(output_digests.main(DIGEST_SEED), indent=0, sort_keys=True) + "\n"


def simulate(directory: Path) -> tuple[Path, Path]:
    """Run the reference campaign; returns the CSV and summary paths."""
    csv_path = directory / "benchmark_200.csv"
    summary_path = directory / "benchmark_200.json"
    code = cli_main(
        [*SIMULATE_ARGS, "--csv", str(csv_path), "--summary", str(summary_path)]
    )
    if code != 0:
        raise RuntimeError(f"cftwlas simulate exited with {code}")
    return csv_path, summary_path


def main(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"digests_{DIGEST_SEED}.json").write_text(digests_text())
    simulate(directory)
    stamp = json.dumps(build_stamp(), indent=2)
    (directory / "stamp.json").write_text(stamp + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1] if len(sys.argv) > 1 else "tests/reference"))
