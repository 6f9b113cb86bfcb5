"""haartrace: exact corner-trace statistics of Haar unitary/orthogonal matrices.

Exact side: set-partition combinatorics, Weingarten tables at fixed matrix
size by rational Gram inversion, and closed trace-cumulant formulas with an
independent moment-route oracle.  Monte Carlo side: reproducible Haar
sampling, the centered corner-mass process, k-statistic and covariance
estimators, and spectral comparison against the limiting law.

Each name is imported from the module that defines it (`combinatorics`,
`weingarten`, `cumulants`, `sampling`, `empirics`, `errors`); the package
itself holds only the version.  The exact side needs no numpy.  The Monte
Carlo modules `sampling` and `empirics` are registered at import but run,
and import numpy, only when one of their attributes is first read, so the
`weingarten`, `cumulant` and `verify` commands start without them.
"""

import importlib.util as _importlib_util
import sys as _sys

__version__ = "0.1.0"


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
