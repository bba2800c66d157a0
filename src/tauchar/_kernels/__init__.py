"""The numpy kernels behind ``tauchar.sieves``.

The loops live in the submodule ``pyback`` and are re-exported here:
calls from one kernel to another stay inside that submodule, so a tracer
that wraps this package's names from outside sees only the calls made by
the rest of the package.

Exported surface:
    DEFAULT_SEGMENT,
    primes_up_to(limit), spf_table(limit, segment),
    factor_block(lo, hi, primes, c), full_tables(limit, c, segment),
    weighted_floor_sum(values, x)
"""

from .pyback import (
    DEFAULT_SEGMENT,
    factor_block,
    full_tables,
    primes_up_to,
    spf_table,
    weighted_floor_sum,
)
