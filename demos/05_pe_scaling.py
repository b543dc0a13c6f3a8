"""Batch throughput scales with the PE count; results never change.

An array of P processing elements takes a batch round-robin, each PE
finishing one update every 4 cycles.  Doubling P halves the batch
latency (exactly, when P divides N) while the computed words stay
bit-identical, because PE count is pure timing model.
"""

from gippsim.fxp import Fx
from gippsim.gipps import GippsOperands
from gippsim.pearray import PeArrayConfig, dispatch_batch
from gippsim.sweep import grid_blocks

a, t, vstar, v = next(grid_blocks())    # the default grid's first block
batch = [GippsOperands(a, t, Fx(vs), Fx(raw))
         for vs, raw in zip(vstar[:1200].tolist(), v[:1200].tolist())]
print(f"batch: {len(batch)} velocity updates, 250 MHz clock")
print()
print(f"{'P':>4} {'cycles':>8} {'time_us':>9} {'speedup':>8}")

base_cycles = None
baseline = None
for p in (1, 2, 4, 8, 16, 32):
    results, report = dispatch_batch(batch, PeArrayConfig(num_pes=p))
    raws = [r.va.raw for r in results]
    if baseline is None:
        base_cycles, baseline = report.cycles, raws
    assert raws == baseline, "PE count altered arithmetic"
    print(f"{p:>4} {report.cycles:>8} {report.modeled_time_ns / 1000:>9.3f} "
          f"{base_cycles / report.cycles:>7.1f}x")

print()
print("one update is always 4 cycles = 16 ns at the default clock;")
print("a PE array only multiplies throughput, never changes a word.")
