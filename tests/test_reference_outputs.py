"""The fixed-seed outputs equal the committed reference bit for bit.

``tests/reference/`` holds the digests of ``scripts/output_digests.py 7`` and
the CSV and summary of ``cftwlas simulate --preset benchmark --runs 200
--seed 20260810``, written by ``scripts/reference_outputs.py`` together with
the build that computed them. Outputs are bitwise only within one numpy and
BLAS build, so on another build these tests skip and say why.
"""

import json
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
REFERENCE = TESTS / "reference"
sys.path.insert(0, str(TESTS.parent / "scripts"))

import reference_outputs  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def same_build():
    stamp = json.loads((REFERENCE / "stamp.json").read_text())
    here = reference_outputs.build_stamp()
    if stamp != here:
        pytest.skip(f"reference computed on {stamp}, this build is {here}")


def _first_differences(expected: dict, actual: dict, count: int = 5) -> list:
    differ = sorted(
        key for key in expected.keys() | actual.keys()
        if expected.get(key) != actual.get(key)
    )
    return differ[:count]


def test_digests_equal_reference():
    path = REFERENCE / f"digests_{reference_outputs.DIGEST_SEED}.json"
    text = reference_outputs.digests_text()
    differ = _first_differences(json.loads(path.read_text()), json.loads(text))
    assert not differ, f"digests differ, first keys: {differ}"
    assert text == path.read_text()


def test_benchmark_campaign_equals_reference(tmp_path):
    csv_path, summary_path = reference_outputs.simulate(tmp_path)
    ref_csv = (REFERENCE / csv_path.name).read_text()
    ref_summary = (REFERENCE / summary_path.name).read_text()

    def rows(text):
        """CSV lines keyed by method, SNR and anchor count."""
        return {",".join(line.split(",")[:3]): line for line in text.splitlines()}

    def cells(text):
        summary = json.loads(text)
        keyed = {key: value for key, value in summary.items() if key != "cells"}
        for cell in summary["cells"]:
            keyed[f"{cell['method']},{cell['snr_db']},{cell['an_count']}"] = cell
        return keyed

    differ = _first_differences(rows(ref_csv), rows(csv_path.read_text()))
    assert not differ, f"CSV rows differ, first: {differ}"
    differ = _first_differences(cells(ref_summary), cells(summary_path.read_text()))
    assert not differ, f"summary entries differ, first: {differ}"
    assert csv_path.read_text() == ref_csv
    assert summary_path.read_text() == ref_summary
