"""haartrace: exact corner-trace statistics of Haar unitary/orthogonal matrices.

Exact side: set-partition combinatorics, Weingarten tables at fixed matrix
size by rational Gram inversion, and closed trace-cumulant formulas with an
independent moment-route oracle.  Monte Carlo side: reproducible Haar
sampling, the centered corner-mass process, k-statistic and covariance
estimators, and spectral comparison against the limiting law.

The exact side needs no numpy.  The Monte Carlo modules `sampling` and
`empirics` are registered at import but run, and import numpy, only when
one of their attributes or re-exported names is first read, so the
`weingarten`, `cumulant` and `verify` commands start without them.
"""

import importlib.util as _importlib_util
import sys as _sys

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
    trace_cumulant,
    trace_cumulant_orthogonal,
    trace_cumulant_unitary,
    variance_closed,
    variance_closed_orthogonal,
)
from .errors import (
    DimensionError,
    InsufficientReplicasError,
    OrderViolationError,
    SingularGramError,
    SizeLimitError,
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


# The Monte Carlo modules run on their first attribute access.  They are
# LazyLoader modules registered in `sys.modules`, not imports inside the
# functions that use them, because code that imports `haartrace.cli` may
# look them up in `sys.modules` at once: a tracer that wraps their functions
# reads `sys.modules["haartrace.sampling"]` and `["haartrace.empirics"]`.
# Python 3.11's LazyLoader is not thread-safe on the first touch, so that
# touch must not come from pool threads: `empirics` reads `map_replicas`
# from `sampling` as it runs, in the calling thread, before any pool starts.
def _lazy_submodule(name: str):
    spec = _importlib_util.find_spec(f"{__name__}.{name}")
    spec.loader = _importlib_util.LazyLoader(spec.loader)
    module = _importlib_util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


sampling = _lazy_submodule("sampling")
empirics = _lazy_submodule("empirics")
# the re-exported Monte Carlo names, each resolved in its module on first read
_DEFERRED = {
    **dict.fromkeys(("SeedSpec", "haar_batch", "haar_sample", "orthonormality_residual"),
                    sampling),
    **dict.fromkeys(("IncrementFit", "KStats", "KestenMcKay", "SpectralHistogram",
                     "covariance_mc", "increment_fourth_moment_fit", "kesten_mckay",
                     "kstat_estimators", "process_value", "sample_process_values",
                     "spectral_compare", "trace_field"), empirics),
}


def __getattr__(name: str):
    if name in _DEFERRED:
        return getattr(_DEFERRED[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})
