"""One engine protocol, registry, and Session API across every backend.

``repro.backends`` is the stable contract between the execution engines
(the cycle-accurate Serpens simulator, the Sextans / GraphLily / K80
analytic baselines, the numpy CPU reference) and everything that consumes
them (the evaluation tables, the application solvers, the serving pool, the
CLI).

Quickstart::

    from repro import backends

    backends.available()
    # ('cpu', 'graphlily', 'k80', 'serpens-a16', 'serpens-a24', 'sextans')

    session = backends.Session("serpens-a16", cache_capacity=64)
    handle = session.register(matrix, name="demo")   # prepare once, cache
    y, report = session.launch(handle, x)            # reuse on every launch

    engine = backends.create("sextans")              # modelled timing,
    result = engine.run(matrix, x)                   # exact numerics

Adding a new accelerator model is a one-file change: subclass
:class:`SpMVEngine` and :func:`register` a factory for it.
"""

from .base import (
    EngineCapabilities,
    EngineSpec,
    PreparedMatrix,
    SpMVEngine,
    SpMVResult,
)
from .engines import (
    CPUEngine,
    GraphLilyEngine,
    K80Engine,
    SerpensEngine,
    SextansEngine,
    register_builtin_engines,
)
from .names import (
    BUILTIN_ENGINE_NAMES,
    DEFAULT_ENGINE,
    ENGINE_CPU,
    ENGINE_GRAPHLILY,
    ENGINE_K80,
    ENGINE_SERPENS_A16,
    ENGINE_SERPENS_A24,
    ENGINE_SEXTANS,
)
from .registry import (
    available,
    create,
    describe,
    register,
    registration,
    resolve,
    unregister,
)
from .session import MatrixHandle, Session, as_spmv_fn

register_builtin_engines()

__all__ = [
    "BUILTIN_ENGINE_NAMES",
    "CPUEngine",
    "DEFAULT_ENGINE",
    "ENGINE_CPU",
    "ENGINE_GRAPHLILY",
    "ENGINE_K80",
    "ENGINE_SERPENS_A16",
    "ENGINE_SERPENS_A24",
    "ENGINE_SEXTANS",
    "EngineCapabilities",
    "EngineSpec",
    "GraphLilyEngine",
    "K80Engine",
    "MatrixHandle",
    "PreparedMatrix",
    "SerpensEngine",
    "Session",
    "SextansEngine",
    "SpMVEngine",
    "SpMVResult",
    "as_spmv_fn",
    "available",
    "create",
    "describe",
    "register",
    "register_builtin_engines",
    "registration",
    "resolve",
    "unregister",
]
