"""The numpy kernels behind ``tauchar.sieves``, and D(b) - D(a).

The loops live in the submodule ``pyback`` and are re-exported here:
calls from one kernel to another stay inside that submodule, so a tracer
that wraps this package's names from outside sees only the calls made by
the rest of the package.

Exported surface:
    DEFAULT_SEGMENT, divisor_window(a, b), factor_block(lo, hi, primes, c),
    full_tables(limit, c), table_dtype(c, limit, what), width(bound, refusal)
"""

from .pyback import (DEFAULT_SEGMENT, divisor_window, factor_block, full_tables,
                     table_dtype, width)
