"""Whole-output byte equality for the four commands at small trial counts and seed 1.

The simulated fields in golden/ were written by the per-point simulator
that preceded the streaming grid engine; any change to how the stream is
consumed, how estimates are formatted or how the grid is ordered shows up
here as a byte difference.  The oracle fields (`analytic`, `oracle`,
`abs_diff` and the provenance flag) were rewritten when NZR became exact
and SOP one region integral, `analytic`, `oracle` and `abs_diff` again
when that integral became one 1-D quadrature, and the SOP rows' oracle
fields and flag once more when SOP became an exact finite sum
(`analytic=exact`); no other field changed then.  `point.txt`, the text of
`point` for every scheme with `--check`, was added later and written by
the streaming engine.
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
        ("point", ["point", "--trials", "20000", "--scheme", "rts,tts,min-es,optimal", "--check"]),
    ],
)
def test_output_matches_golden_bytes(tmp_path, name, argv):
    (golden,) = GOLDEN.glob(f"{name}.*")  # point's text is .txt, the others .csv
    out = tmp_path / golden.name
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()
