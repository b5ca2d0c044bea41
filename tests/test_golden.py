"""Whole-output byte equality for three small commands at seed 1.

The simulated fields in golden/ were written by the per-point simulator
that preceded the streaming grid engine; any change to how the stream is
consumed, how estimates are formatted or how the grid is ordered shows up
here as a byte difference.  The oracle fields (`analytic`, `oracle`,
`abs_diff` and the provenance flag) were rewritten when NZR became exact
and SOP one region integral, `analytic`, `oracle` and `abs_diff` again
when that integral became one 1-D quadrature, and the SOP rows' oracle
fields and flag once more when SOP became an exact finite sum
(`analytic=exact`); no other field changed then.
"""
from pathlib import Path

import pytest

from rts_secrecy.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("compare", ["compare", "--trials", "20000"]),
        ("sweep", ["sweep", "--k", "3", "--snr-db", "0:60:20", "--trials", "20000"]),
        ("validate", ["validate", "--k", "1,2", "--snr-db", "10", "--trials", "2000"]),
    ],
)
def test_output_matches_golden_bytes(tmp_path, name, argv):
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
