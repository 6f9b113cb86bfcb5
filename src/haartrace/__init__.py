"""haartrace: exact corner-trace statistics of Haar unitary/orthogonal matrices.

Exact side: set-partition combinatorics, Weingarten tables at fixed matrix
size by rational Gram inversion, and closed trace-cumulant formulas with an
independent moment-route oracle.  Monte Carlo side: reproducible Haar
sampling, the centered corner-mass process, k-statistic and covariance
estimators, and spectral comparison against the limiting law.
"""

__version__ = "0.1.0"

from .combinatorics import (
    CycleType,
    Pairing,
    Permutation,
    SetPartition,
    cycle_partition,
    enumerate_pairings,
    enumerate_partitions,
    join,
    mobius,
    one_partition,
    refines,
    zero_partition,
)
from .cumulants import (
    CumulantRequest,
    ProjectorFamily,
    covariance_closed,
    covariance_closed_orthogonal,
    cumulant_via_moments,
    fourth_central_moment,
    limit_covariance,
    process_covariance,
    projector_trace,
    trace_cumulant,
    trace_cumulant_orthogonal,
    trace_cumulant_unitary,
    variance_closed,
    variance_closed_orthogonal,
)
from .empirics import (
    IncrementFit,
    KStats,
    KestenMcKay,
    SpectralHistogram,
    covariance_mc,
    increment_fourth_moment_fit,
    kesten_mckay,
    kstat_estimators,
    process_value,
    sample_process_values,
    spectral_compare,
    trace_field,
)
from .errors import (
    DimensionError,
    InsufficientReplicasError,
    OrderViolationError,
    SingularGramError,
    SizeLimitError,
)
from .sampling import (
    SeedSpec,
    haar_batch,
    haar_sample,
    orthonormality_residual,
)
from .weingarten import (
    SignVector,
    eta,
    gram,
    gram_inverse,
    is_inverse,
    joint_moment,
    sigma_of,
    t_of_perm,
    tau_of_signs,
    weingarten_orthogonal,
    weingarten_table,
    weingarten_unitary,
)
