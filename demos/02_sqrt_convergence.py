"""How the square root unit converges in a fixed, small cycle count.

The unit widens the radicand to Q16.12, looks up a seed from the top
four significant bits, then runs Babylonian passes x' = (x + t//x)//2
until the iterate stops decreasing.  The seed ROM is tuned so every
radicand the velocity update can produce (raw 2..66) finishes in
exactly two passes; nothing in the 14-bit domain needs more than
three.  This script traces a few roots and tallies the whole domain.
"""

from collections import Counter

from gippsim.fxp import RAW_MAX, Fx, decode, sqrt

print("traced examples:")
for value in (0.03125, 1.0, 2.0, 4.0, 200.0, VALUE := RAW_MAX / 64):
    root, tr = sqrt(round(value * 64))
    print(f"  sqrt({value:10.6f}): seed {tr.seed_x0:4d}, "
          f"iterates {list(tr.iterates)}, "
          f"root raw {root:4d} = {decode(Fx(root)):.6f}")
print()

print("pass counts over the full domain:")
hist = Counter(sqrt(raw)[1].iterations for raw in range(RAW_MAX + 1))
for n in sorted(hist):
    print(f"  {n} passes: {hist[n]:5d} inputs")
print()

print("velocity-update radicands (raw 2..66) all finish in two:")
worst = max(sqrt(raw)[1].iterations for raw in range(2, 67))
print(f"  max passes on raws 2..66: {worst}")

print()
print("every root is the exact floor square root:")
raw = 8191
root, _ = sqrt(raw)
t = raw << 6
print(f"  raw {raw}: root {root}, {root}^2 = {root**2} <= {t} < "
      f"{root + 1}^2 = {(root + 1)**2}")
