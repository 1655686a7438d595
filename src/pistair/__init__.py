"""pistair: desk-scale certified arithmetic behind irrationality-measure
lower bounds for the prime counting function.

The package turns the constructive pieces of that argument into checkable
objects: exact truncated Euler products for zeta(2), rigorous rational
enclosures of pi^2/6, provably-correct continued-fraction prefixes and
exponent measurements, the lcm(1..n) growth sequence, and the prime-gap
staircase certificates with their tower-of-exponentials endpoints.
"""

__version__ = "0.1.0"

from .arith import (
    RealEnclosure,
    as_rational,
    log_rational,
    rational_exp_upper,
    rational_str,
    zeta2_enclosure,
)
from .records import decimal_str, to_record
from .approx import (
    RV_PAGE102,
    ConvergentRecord,
    RVConstants,
    SondowCheck,
    continued_fraction,
    convergents,
    lemma4_bound,
    lemma4_derivation,
    measure_exponents,
    sondow_inequality_check,
    zeta2_exponent_report,
)
from .errors import (
    DomainError,
    PistairError,
    PrecisionExhaustedError,
    RangeError,
    ResourceLimitError,
)
from .euler import (
    EulerApproximation,
    GapReport,
    QnBoundReport,
    approximation_gap,
    euler_product,
    qn_bound_report,
    tail_product_upper,
)
from .primes import (
    LcmLogReport,
    PrimeTable,
    lcm_to,
    log_lcm_table,
    log_lcm_to,
    max_power_at_most,
    nth_prime,
    nth_prime_limit_estimate,
    nth_primes,
    prime_count,
    sieve,
)
from .staircase import (
    DoubleExpEntry,
    FactorialGate,
    GapRecursionReport,
    LogTower,
    StaircaseCertificate,
    StaircaseStep,
    default_exponent,
    euclid_baseline,
    power_tower,
    staircase_certify,
    theorem1_first_passing,
    theorem1_gate,
    theorem2_sequence,
    theorem3_sequence,
    tower_normalize,
)
from .verify import CheckResult, run_suite
