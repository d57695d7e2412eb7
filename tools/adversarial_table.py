"""Write one table of hard-to-format float64 values through
``fwsolver.grid.write_columns``, as ``table.csv`` in the current directory.

Usage: python3 tools/adversarial_table.py

``tools/same_outputs.py`` runs it on each of two source trees, so their
CSV writers are compared byte for byte beyond the values that the ``fw``
commands happen to write.  Each row is a value and its negative:
- the double nearest each power of 10 from 1e-330 to 1e310, and its two
  neighbours;
- halfway ties, the doubles whose 17 digits round up into the next decade,
  and the edges of fixed notation and of three-digit exponents;
- zeros, subnormals, infinities and nan;
- 65536 seeded random bit patterns, and 65536 seeded random values of
  every size from 1e-20 to 1e20.
"""

import math

import numpy as np

from fwsolver.grid import write_columns

powers = [float(f"1e{j}") for j in range(-330, 311)]
pinned = [
    1000000000000000.25, 1000000000000000.75, 0.5, 2.5, 1e23,
    1e-243, 1e-176, 1e-175, 1e-174, 1e-79, 1e-78, 1e-73, 1e-70, 1e-14, 1e98, 1e129, 1e153, 1e220,
    1e-5, 9.9999999999999995e-6, 1e-4, 9999999999999998.0, 1e16, 99999999999999984.0, 1e17,
    1e-100, 1e100, 2.5e279, 1e-279, 1e-280, 1e280,
    0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    math.inf, math.nan,
]
rng = np.random.default_rng(20261022)
values = np.concatenate([
    [x for p in powers for x in (math.nextafter(p, 0), p, math.nextafter(p, math.inf))],
    pinned,
    rng.integers(0, 2 ** 64, 65536, dtype=np.uint64).view(np.float64),
    rng.standard_normal(65536) * 10.0 ** rng.uniform(-20, 20, 65536),
])
write_columns("table.csv", ("value", "negative"), (values, -values))
