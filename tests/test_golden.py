"""Golden test: the six figure presets against their frozen outputs.

The frozen CSVs are the ones the benchmark checks against
(``bench/ref/<preset>.csv.gz``), read in place.  Run-to-run byte
identity (test_cli) cannot catch a kernel that drifts; this test can.

Provenance lines, the header, text cells (labels, ``status``) and empty
cells must match exactly.  Numeric cells must agree to GOLDEN_RTOL
relative, with an absolute floor of GOLDEN_FLOOR times the largest
magnitude in the reference column, so that values near a zero crossing
(Z, Y) are not held to a relative bound they cannot meet.
"""

import csv
import gzip
import io
import math
from pathlib import Path

import pytest

from bfmix import cli
from bfmix.scan_engine import PRESET_TAGS

REF_DIR = Path(__file__).resolve().parents[1] / "bench" / "ref"

GOLDEN_RTOL = 1e-8
GOLDEN_FLOOR = 1e-12


def _split(text):
    provenance = [line for line in text.splitlines() if line.startswith("#")]
    body = "\n".join(line for line in text.splitlines()
                     if not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    return provenance, rows[0], rows[1:]


def _number(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


@pytest.mark.parametrize("tag", PRESET_TAGS)
def test_preset_matches_frozen_output(tag, tmp_path):
    out = tmp_path / f"{tag}.csv"
    assert cli.main([tag, "--out", str(out)]) == 0
    with gzip.open(REF_DIR / f"{tag}.csv.gz", "rt", encoding="utf-8") as fh:
        ref_prov, ref_header, ref_rows = _split(fh.read())
    got_prov, got_header, got_rows = _split(out.read_text(encoding="utf-8"))

    assert got_prov == ref_prov
    assert got_header == ref_header
    assert len(got_rows) == len(ref_rows)

    for col, name in enumerate(ref_header):
        ref_values = [_number(row[col]) for row in ref_rows]
        scale = max((abs(v) for v in ref_values if v is not None),
                    default=0.0)
        atol = GOLDEN_FLOOR * scale
        for i, (ref_row, got_row) in enumerate(zip(ref_rows, got_rows)):
            assert len(got_row) == len(ref_row), (tag, i)
            ref_cell, got_cell = ref_row[col], got_row[col]
            ref_value, got_value = ref_values[i], _number(got_cell)
            if ref_value is None or got_value is None:
                assert got_cell == ref_cell, (tag, name, i)
            else:
                assert abs(got_value - ref_value) <= max(
                    GOLDEN_RTOL * abs(ref_value), atol), \
                    (tag, name, i, got_cell, ref_cell)
