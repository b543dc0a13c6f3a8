"""Where the fixed-point datapath lands relative to real arithmetic.

Sweeps every representable velocity under a few desired speeds,
comparing three ways of computing the update: the datapath, the
independent integer oracle (must agree bit for bit), and the ideal
real-arithmetic formula (quantization error shows up here).  The big
errors cluster at small radicands, where the truncated divide feeds
the steepest part of the square root and the a*T gain scales it up.

``run_sweep`` writes the per-case CSV to the binary file it is given, one
write per (a, T) block; this demo shows only the summary, so the rows
go to os.devnull.
"""

import os

import numpy as np

from gippsim.fxp import Fx, decode
from gippsim.gipps import (
    GippsOperands,
    gipps_batch,
    gipps_reference,
    gipps_reference_block,
    gipps_step,
)
from gippsim.sweep import grid_blocks, run_sweep

with open(os.devnull, "wb") as devnull:
    summary = run_sweep(grid_blocks(vstars=(5.0, 20.0, 70.0)), devnull)

print("sweep of a compact grid (3 desired speeds x 4 accels x 3 times):")
for line in summary.lines():
    print(" ", line)
print()
assert summary.passed, "datapath diverged from the oracle"

print("error growth along one slice (a=5, T=1, V*=70):")
a, t, vstar, v = next(grid_blocks(vstars=(70.0,), accels=(5.0,), times=(1.0,)))
va = gipps_batch(a.raw, t.raw, vstar, v).va
errs = np.abs(va / 64 - gipps_reference_block(decode(a), decode(t), vstar / 64, v / 64))
i = int(errs.argmax())
worst = GippsOperands(a, t, Fx(int(vstar[i])), Fx(int(v[i])))
res = gipps_step(worst)
ideal = gipps_reference(decode(worst.a), decode(worst.T),
                        decode(worst.vstar), decode(worst.v))
print(f"  worst at v = {decode(worst.v)} m/s:")
print(f"  fixed {decode(res.va):.6f} vs ideal {ideal:.9f} "
      f"(error {abs(decode(res.va) - ideal):.6f})")
print("  radicand stage raw:", res.r.raw,
      "- one raw step of radicand error is sqrt-amplified, then gained 12.5x")
