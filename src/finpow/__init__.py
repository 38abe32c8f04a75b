"""Exact computation in finitary power monoids of linearly ordered monoids:
sumsets, divisibility, atoms, factorizations, maximal common divisors, and
atomicity-hierarchy predicates over exact rational backends.
"""
from .arith import (
    InvalidInputError,
    QPoint2,
    Rat,
    parse_element,
    parse_rational,
    render_element,
    vp_value,
)
from .backend import (
    Budget,
    BudgetExceededError,
    Factorization,
    MonoidSpec,
    TruncationError,
    atoms,
    divisors,
    expand_family,
    factorizations,
    member,
    members_upto,
    parse_monoid_spec,
    render_monoid_spec,
    representations,
)
from .power import (
    AtomCertificate,
    Decomposition,
    FinSet,
    NOT_ATOMIC,
    augment_indecomposable,
    decompositions,
    divides_in_P,
    is_indecomposable,
    is_p_atom,
    p_factorize,
    parse_finset,
    singleton_candidates,
    sumset,
    sumset_all,
)
from .mcd import (
    McdWitnessStep,
    ResidueClass,
    cap_constant_on,
    cap_residue,
    chain_divisors,
    common_divisors,
    ex44_chain,
    ex44_witness,
    mcd,
    mcd_in_P,
    p_divisors,
)
from .atomicity import (
    CanonicalDecompQ,
    ChainReport,
    Lemma54Certificate,
    accp_chain_explore,
    atom_divisors,
    canonical_decomp_Q,
    ffm_count,
    is_furstenberg_sample,
    k_of,
    lemma54_sum_witness,
    p_accp_chain_explore,
    p_furstenberg_divisor,
    rank2_atom,
    thm55_projection_check,
    tidf_implies_atomic_check,
)
from .suites import VerificationReport, run_all_suites, run_verify_suite

__version__ = "0.1.0"
