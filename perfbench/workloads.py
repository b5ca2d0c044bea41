"""The benchmark's workloads: one `rts-secrecy` command line each.

Each workload isolates one layer of the package (see NOTES.md for the
reasoning and for what was left out).  Sizes are chosen so that one
command takes a few seconds on a 2-core machine, which lets a run of the
benchmark repeat it several times and report medians.
"""
from __future__ import annotations

from dataclasses import dataclass

# The CLI's own default seed; outputs at this seed are pinned byte for byte
# by the files in reference/.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    kind: str           # output format: "compare" or "validate"
    expected_exit: int

    @property
    def trials(self) -> int:
        return int(self.args[self.args.index("--trials") + 1])


WORKLOADS = {
    w.name: w
    for w in (
        # Simulator-bound: 13 SNRs x 4 schemes = 52 simulated points that all
        # regenerate one identical stream, plus 13 cheap oracle cells.  Exits
        # 2 because of the documented rts<=tts ordering lines at 0-20 dB.
        Workload(
            "compare-k5",
            ("compare", "--check", "--trials", "200000"),
            kind="compare",
            expected_exit=2,
        ),
        # Oracle-bound: -30 dB is the oracle's slowest region and k = 16 the
        # longest available-mode q-loop; 1000 trials keep the simulator out.
        Workload(
            "validate-wide",
            ("validate", "--check", "--trials", "1000", "--k", "1,16",
             "--delta", "0.9", "--snr-db=-30,20,80"),
            kind="validate",
            expected_exit=0,
        ),
    )
}
