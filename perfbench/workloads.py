"""The benchmark's workloads and the CLI arguments each one generates.

Every input the program sees is an explicit flag built here, so a
workload does not move when a program default changes.  Each workload
is one closed-loop client: the next CLI call starts only after the
previous one has returned.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent     # the checkout
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"                  # outputs, results, spans

# The default sweep grid, spelled out (108,348 cases).
SWEEP_VSTARS = (5.0, 10.0, 20.0, 36.0, 70.0)
SWEEP_ACCELS = (0.5, 1.0, 2.0, 5.0)
SWEEP_TIMES = (0.25, 0.5, 1.0)

CYCLES_PER_UPDATE = 4    # every in-domain update: 2 sqrt passes + 2


def import_gippsim():
    """Import gippsim from this checkout's src/, and only from there."""
    if not (SRC / "gippsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gippsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gippsim
    import gippsim.cli
    if Path(gippsim.__file__).resolve().parent != SRC / "gippsim":
        sys.exit(f"perfbench: imported gippsim from {gippsim.__file__}, not {SRC}")
    return gippsim


def encode_raw(x: float) -> int:
    """Q8.6 word for a real, ties up: the format's contract, restated."""
    return math.floor(x * 64 + 0.5)


def _flag(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class SimShape:
    n_vehicles: int
    n_steps: int
    pes: int
    step_t: float = 0.5
    initial_spacing_m: float = 10.0
    min_desired_speed: float = 10.0
    max_desired_speed: float = 35.0
    min_accel: float = 1.0
    max_accel: float = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    sim: SimShape | None      # None: the grid sweep

    def program_seed(self, seed: int) -> int | None:
        """The fleet seed passed to ``gippsim sim``; the sweep has none."""
        return None if self.sim is None else seed % 2**32

    def argv(self, seed: int, out_path: str) -> list[str]:
        if self.sim is None:
            return [
                "sweep", "--out", out_path,
                "--vstars", ",".join(map(_flag, SWEEP_VSTARS)),
                "--accels", ",".join(map(_flag, SWEEP_ACCELS)),
                "--times", ",".join(map(_flag, SWEEP_TIMES)),
            ]
        s = self.sim
        return [
            "sim", "--out", out_path,
            "--n-vehicles", str(s.n_vehicles),
            "--n-steps", str(s.n_steps),
            "--pes", str(s.pes),
            "--seed", str(self.program_seed(seed)),
            "--step-t", _flag(s.step_t),
            "--initial-spacing-m", _flag(s.initial_spacing_m),
            "--min-desired-speed", _flag(s.min_desired_speed),
            "--max-desired-speed", _flag(s.max_desired_speed),
            "--min-accel", _flag(s.min_accel),
            "--max-accel", _flag(s.max_accel),
        ]

    @property
    def updates(self) -> int:
        """Velocity updates one CLI call performs."""
        if self.sim is None:
            per_ta = sum(encode_raw(vs) + 1 for vs in SWEEP_VSTARS)
            return per_ta * len(SWEEP_ACCELS) * len(SWEEP_TIMES)
        return self.sim.n_vehicles * self.sim.n_steps

    @property
    def expected_cycles(self) -> int:
        """Closed form of the modeled cycles of one CLI call."""
        if self.sim is None:
            return CYCLES_PER_UPDATE * self.updates
        s = self.sim
        return math.ceil(s.n_vehicles / s.pes) * CYCLES_PER_UPDATE * s.n_steps

    @property
    def pes(self) -> int:
        return 1 if self.sim is None else self.sim.pes

    def size(self, seed: int) -> dict:
        out: dict = {"updates_per_call": self.updates}
        if self.sim is None:
            out.update(vstars=SWEEP_VSTARS, accels=SWEEP_ACCELS, times=SWEEP_TIMES)
        else:
            out.update(n_vehicles=self.sim.n_vehicles, n_steps=self.sim.n_steps,
                       pes=self.sim.pes, program_seed=self.program_seed(seed))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_grid", None),
        # The acceptance criterion-8 shape: 100 vehicles x 500 steps.
        Workload("sim_platoon", SimShape(n_vehicles=100, n_steps=500, pes=16)),
        # Same 50,000 vehicle-steps in 12,500 four-vehicle batches.
        Workload("sim_narrow", SimShape(n_vehicles=4, n_steps=12_500, pes=1)),
    )
}
