"""Zeros of n-term exponential equations a_1 g_1^{x_1} + ... + a_n g_n^{x_n} = b
over finite fields F_q: exact counting via character sums, full-b density
sweeps with the energy bound and exceptional census, the classical
grid-search solver with query accounting, and quantum query-cost models.

Modules:
    fields     -- F_{p^nu} arithmetic (polynomial basis, packed encoding)
    arith      -- factorization, orders, divisor counts, discrete logs
    charsum    -- additive characters, counting identity, Gauss sums
    density    -- per-b deviations, energy E(r), exceptional-b census
    solver     -- the classical search with three-valued outcome
    qmodel     -- Grover/guessing-schedule models, exponent table
    reduction  -- grouping terms by order, mu <= d(q-1)
    instances  -- seeded random instance generation
    cli        -- command-line front end (expzeros ...)

Caps are module constants, not parameters; a call past one raises a
typed error (CapExceeded or MemoryCap), and changing one means editing
the constant:
    fields.DEFAULT_ENUM_CAP    2^20  field elements, and box points
    charsum.TERM_CAP           16    terms of an equation
    charsum.EXACT_WORK_CAP     2^28  int64 adds of the exact convolution
    charsum.LIST_CAP           2^16  box points whose solutions are listed
    solver.OUTER_GRID_CAP      2^22  outer grid points of one search
    arith.BSGS_TABLE_CAP       2^20  baby steps of one BSGS table (~113 MB)
    qmodel.GROVER_SIM_CAP      2^14  items of a Grover simulation
"""

from .fields import FieldElement, FieldSpec, enumerate_units, make_field
from .charsum import (ExpEquation, SearchBox, brute_count,
                      count_via_charsum, delta_indicator, gauss_partial_sum,
                      make_box, make_equation, psi)
from .arith import (BsgsTable, Factorization, divisor_count, factorize,
                    is_prime, multiplicative_order)
from .density import (CensusResult, DensityReport, corollary_min_r,
                      energy_bound_check, exceptional_census, sweep_b)
from .solver import (QueryCounter, SolutionReport, build_box,
                     solve_classical, verify_solution)
from .qmodel import (ExponentRow, ExponentTable, QueryCostReport,
                     bbht_expected_queries, exponent_table, grover_simulate,
                     grover_success, model_quantum_solve)
from .reduction import (MuBoundReport, ReducedEquation, mu_bound_report,
                        reduce_equation, relate_same_order)

__version__ = "0.1.0"
