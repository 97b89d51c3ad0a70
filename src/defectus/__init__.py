"""defectus: defective polynomial systems over finite fields.

Exact classification (complete-intersection and irreducibility
defects), Macaulay's rank test for common projective zeros,
closed-form bound evaluation, and a seeded census / Monte Carlo
harness that verifies the bounds.

The package re-exports neither ``classify`` nor ``groebner``, so
``defectus.classify`` and ``defectus.groebner`` are the modules; import
those two functions from them.
"""

from .bounds import (
    BoundInputs, BoundReport, BudgetExceeded, decimal_string, derive,
    enumerate_points, point_count_bound,
)
from .classify import (
    CERTIFIED_IRREDUCIBLE, CERTIFIED_REDUCIBLE, UNDETERMINED,
    ClassificationReport, fiber_dimension,
    find_reducibility_witness, initial_form_criterion, is_regular_sequence,
)
from .experiment import (
    EstimateReport, ExperimentConfig, OutcomeCounts, cp_interval,
    cp_upper_one_sided, linear_census_oracle, run_census,
    run_monte_carlo, sample_system, system_from_census_index,
)
from .fields import (
    ExtensionField, Field, PrimeField, extension_of, field_make, is_prime,
    prime_power_decompose,
)
from .groebner import (
    GroebnerBasis, colon_ideal, ideal_dimension, normal_form,
    projective_dimension,
)
from .polynomials import (
    NEG_INF, Poly, PolySystem, embed_poly, jacobian_minors,
    monomials_exact, monomials_upto,
)
from .resultant import matrix_rank, resultant_vanishes
from .rng import HashStream

__version__ = "0.1.0"
