"""Images of integer linear forms over finite sets and residue rings.

The core objects are finite integer sets, linear forms f = u1*x1 + ... +
un*xn and their images f(A); on top of those sit explicit small witness
sets separating pairs of forms, residue-ring local solutions, and the
Chinese-remainder machinery that combines local solutions into finite
sets with |f(A)| < |g(A)|.
"""

from types import ModuleType as _ModuleType

from .intsets import (
    DIFFERENCE,
    SUM,
    FiniteIntSet,
    LinearForm,
    affine_canonical,
    amplify,
    canonical_pair,
    image,
    image_cardinality,
    normalize_form,
    set_from_json,
    set_from_text,
    set_to_text,
)
from .modular import (
    ConstructionReport,
    LocalSolution,
    ResidueSet,
    build_separating_set,
    crt_product,
    load_locals,
    local_ratio_search,
    local_solution,
    modular_image,
    modular_image_cardinality,
    rectify,
)
from .numtheory import (
    PrimeSearchResult,
    PrimeSearchSpec,
    crt_combine,
    find_primes,
    is_prime,
    is_qth_power_residue,
    jacobi,
    primes_between,
)
from .residues import (
    CoverageReport,
    PowerSubgroup,
    choose_power_exponent,
    coverage,
    kth_power_local_solutions,
    power_subgroup,
    qr_local_solutions,
    qr_sum_diff_full,
    zero_in_f_of_qr,
)
from .smallsets import (
    TripleClassification,
    WitnessPair,
    ap_equality_set,
    classify_triples,
    conjugate_four_set_witness,
    five_set_witness,
    three_set_witness,
)

__version__ = "0.1.0"

# The names imported above; importing them also binds the submodules, which stay out.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
