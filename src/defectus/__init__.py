"""defectus: defective polynomial systems over finite fields.

Exact classification (complete-intersection and irreducibility
defects), Macaulay resultants, closed-form bound evaluation, and a
seeded census / Monte Carlo harness that verifies the bounds.
"""

from .bounds import (
    BoundInputs, BoundReport, BudgetExceeded, decimal_string, derive,
    enumerate_points, point_count_bound,
)
from .classify import (
    CERTIFIED_IRREDUCIBLE, CERTIFIED_REDUCIBLE, UNDETERMINED,
    ClassificationReport, classify, fiber_dimension,
    find_reducibility_witness, in_B0, initial_form_criterion,
    is_radical_ci, is_regular_sequence, kollar_dimension_test,
    minor_combo_fiber_test,
)
from .experiment import (
    EstimateReport, ExperimentConfig, OutcomeCounts, cp_interval,
    cp_upper_one_sided, linear_census_oracle, run_census,
    run_monte_carlo, sample_system, system_from_census_index,
)
from .fields import (
    ExtensionField, Field, PrimeField, ensure_min_size, extension_of,
    field_make, is_prime, prime_power_decompose,
)
from .groebner import (
    GREVLEX, GroebnerBasis, MonomialOrder, colon_ideal, groebner,
    ideal_dimension, is_empty, normal_form, projective_dimension,
)
from .polynomials import (
    NEG_INF, Poly, PolySystem, embed_poly, jacobian, jacobian_minors,
    monomials_exact, monomials_upto,
)
from .resultant import (
    MacaulayMatrix, determinant, macaulay_build, matrix_rank,
    resultant_value, resultant_vanishes,
)
from .rng import HashStream

__version__ = "0.1.0"
