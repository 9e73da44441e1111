"""Central numerical tolerance settings for the matrix workbench, carried by
each algebra (``MultiMatrixAlgebra.tolerances``)."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import InputFormatError


@dataclass(frozen=True)
class Tolerances:
    weight_sum: float = 1e-12            # allowed drift of sum(w_k n_k) from 1
    subalgebra_closure: float = 1e-10    # rank cutoff of closures, spans and module frames
    construction_identity: float = 1e-8  # build-time matrix units and Tr(x e y) = tau(xy)
    trace_identity: float = 1e-10        # spanning-set residual of the same identity
    compression_identity: float = 1e-12  # e x e = E(x) e as operators
    vector_norm_match: float = 1e-9      # |w e|_Tr vs |w vector|_tau
    reconstruction: float = 1e-9         # module vector reconstruction residual
    unitary: float = 1e-10               # u*u = 1 residual
    oracle_slack: float = 1e-8           # optimizer must beat the search oracle; the
                                         # witness search's invariance check must close

    def override(self, **kwargs) -> "Tolerances":
        """Copy with some fields replaced; every value must be finite, as a
        NaN bound would pass every ``residual > bound`` check, and
        nonnegative, as no residual falls below a negative bound.  The rank
        cutoff ``subalgebra_closure`` must be positive: at 0 every closure
        keeps rounding noise as one more direction."""
        bad = sorted(key for key, value in kwargs.items()
                     if not (math.isfinite(value) and value >= 0))
        if bad:
            raise InputFormatError(f"tolerances must be finite and nonnegative: {bad}")
        if kwargs.get("subalgebra_closure") == 0:
            raise InputFormatError("tolerance subalgebra_closure must be positive: "
                                   "it is the rank cutoff of every closure")
        return replace(self, **kwargs)

    @staticmethod
    def field_names() -> list[str]:
        return [f.name for f in fields(Tolerances)]
