"""Compiled-kernel sampling engine: formulae lowered to batched NumPy kernels.

The Monte-Carlo schemes of the paper (the CQ(+,<) FPRAS of Theorem 7.1 and
the FO(+,·,<) AFPRAS of Theorem 8.1) decide a constraint formula at tens of
thousands of sample points per estimate.  This subpackage compiles a
:class:`~repro.constraints.formula.ConstraintFormula` once -- into coefficient
matrices plus a flat boolean program (:mod:`repro.compile.lower`) -- and then
decides whole ``(m, n)`` blocks of points or directions with a handful of
matrix products (:mod:`repro.compile.kernels`).

The scalar tree-walking evaluators remain in place as reference oracles; the
equivalence tests assert that the kernels reach the same decisions.  See
DESIGN.md for the architecture notes and the perf-measurement protocol.
"""

from repro.compile.kernels import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_COMPILE_CACHE_SIZE,
    CompiledFormula,
    compile_cache_stats,
    compile_formula,
    configure_compile_cache,
)
from repro.compile.lower import AtomTable, LoweringError, lower

__all__ = [
    "AtomTable",
    "CompiledFormula",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_COMPILE_CACHE_SIZE",
    "LoweringError",
    "compile_cache_stats",
    "compile_formula",
    "configure_compile_cache",
    "lower",
]
