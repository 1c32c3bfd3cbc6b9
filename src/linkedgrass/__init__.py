"""Desk-scale combinatorics of linked Grassmannian degenerations.

Subpackages cover the extended affine Weyl group and its Bruhat order
(`weyl`), convex lattice configurations in one apartment (`lattice`), the
associated quiver and its sub-representations over small prime fields
(`quiver`), locally weakly independent configurations (`independence`),
admissible collections and Bruhat strata (`admissible`), dual-graph
multidegree twisting (`multidegree`), and named verification suites
(`verify`).  The `linkedgrass` command line drives batch analyses.

Importing the package loads no submodule; each name of `__all__` is
imported on first access, so a command compiles only the modules it runs.
"""

import importlib

__all__ = ["admissible", "gf", "independence", "lattice", "multidegree", "quiver", "verify", "weyl"]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")
