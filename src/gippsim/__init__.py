"""Bit-accurate model of a Q8.6 fixed-point car-following accelerator.

The package models a datapath that evaluates one Gipps-style velocity
update per instruction: a divide, a subtract, a seeded Babylonian
square root, and a multiply chain, in 4 clock cycles.  Around the
instruction sit a PE-array batch dispatcher with exact cycle
accounting, a single-lane traffic workload, an independent
integer-arithmetic verification oracle, and a benchmark harness.

Import from the submodules: ``fxp`` (Q8.6 words and ops), ``text``
(the CSVs' number texts), ``gipps`` (the instruction), ``oracle``,
``pearray``, ``sim``, ``sweep`` and ``cli``.
"""

__version__ = "0.1.0"
