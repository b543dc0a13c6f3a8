"""One velocity update, stage by stage.

The instruction computes va = v + 2.5 a T (1 - v/V*) sqrt(0.025 + v/V*)
entirely in Q8.6: one divide, one subtract, one radicand add, the
two-pass square root, then a four-multiply chain and the final add.
The whole thing costs 2 + sqrt-passes = 4 clock cycles.
"""

from gippsim.fxp import Fx, decode, encode
from gippsim.gipps import GippsOperands, gipps_reference, gipps_step

a, t, vstar, v = 2.0, 0.5, 20.0, 7.3
ops = GippsOperands(encode(a), encode(t), encode(vstar), encode(v))
res = gipps_step(ops)

print(f"operands: a={a}, T={t}, V*={vstar}, v={v}")
print(f"quantized: a raw {ops.a.raw}, T raw {ops.T.raw}, "
      f"V* raw {ops.vstar.raw}, v raw {ops.v.raw}")
print()
print("pipeline stages:")
*stages, _, _ = res.words()             # va and cycles come last
for name, raw in stages:
    print(f"  {name:<3} raw {raw:6d} = {decode(Fx(raw)):.6f}")
print()
print(f"va: raw {res.va.raw} = {decode(res.va):.6f}")
print(f"cycles: {res.cycles} "
      f"(2 fixed + {res.cycles - 2} sqrt passes)")
print()

ideal = gipps_reference(a, t, vstar, v)
print(f"real-arithmetic update: {ideal:.9f}")
print(f"fixed-point error: {abs(decode(res.va) - ideal):.9f}")
