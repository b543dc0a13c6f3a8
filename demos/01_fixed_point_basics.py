"""Tour of the Q8.6 number format and its arithmetic rules.

Every quantity the accelerator touches is an unsigned 14-bit word
worth raw/64.  Encoding rounds to nearest (ties up), multiplication
rounds the same way after a full-width product, division truncates,
and add/sub saturate with a visible flag.  The ops take and return raw
words; ``Fx`` and encode/decode sit at the edges.  Run this to see
each rule on concrete words.
"""

from gippsim.fxp import (
    ONE,
    RAW_MAX,
    VALUE_MAX,
    Fx,
    OutOfRangeError,
    add,
    decode,
    div,
    encode,
    mul,
    sub,
)

print("format: raw/64, raw in [0, %d], so values [0, %s]" % (RAW_MAX, VALUE_MAX))
print("resolution: one raw step =", decode(Fx(1)))
print()

print("encoding rounds to nearest, ties up:")
for x in (0.025, 0.0078125, 2.5, 19.99):
    fx = encode(x)
    print(f"  encode({x}) -> raw {fx.raw:5d} = {decode(fx)} (error {decode(fx) - x:+.6f})")
print()

print("out-of-range inputs raise instead of clipping:")
for x in (-0.5, 300.0):
    try:
        encode(x)
    except OutOfRangeError as exc:
        print(f"  encode({x}): {exc}")
print()

print("multiply keeps the full 28-bit product, then rounds once:")
a, b = encode(2.5), encode(0.51)
wide = a.raw * b.raw                  # Q16.12: value = raw / 4096
rounded, _ = mul(a.raw, b.raw)
print(f"  {decode(a)} * {decode(b)}: wide raw {wide} = {wide / 4096}")
print(f"  rounded back to Q8.6: raw {rounded} = {decode(Fx(rounded))}")
print()

print("divide truncates toward zero:")
q, _ = div(ONE.raw, encode(3.0).raw)
print(f"  1/3 -> raw {q} = {decode(Fx(q))} (floor of 64/3 raw steps)")
print()

print("add/sub saturate and report it:")
s, sat = add(RAW_MAX, ONE.raw)
print(f"  max + 1.0 -> raw {s}, saturated={sat}")
s, sat = sub(10, 200)
print(f"  0.15625 - 3.125 -> raw {s}, saturated={sat}")
