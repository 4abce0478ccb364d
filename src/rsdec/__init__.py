"""Reed-Solomon decoding beyond half the minimum distance.

Three decoders built on one exact-linear-algebra core:

- wb: classical interpolation decoding up to floor((n-k)/2) errors;
- virs: virtual interleaving of symbol powers, one shared error
  locator, radius floor((sn - C(s+1,2)(k-1) - s) / (s+1));
- mgs: bivariate interpolation with an s-fold y-root, same radius.

The equiv module certifies that the last two solve the same linear
system up to an explicit diagonal change of coordinates.
"""

from .bivariate import (
    BiPoly,
    FactorError,
    extract_power_factor,
    hasse_mixed,
    hasse_y,
    power_factor_poly,
    shift,
    substitute_y,
    weighted_degree,
)
from .code import (
    CodeSpec,
    Word,
    corrupt,
    default_locators,
    encode,
    interpolate_word,
    power_word,
    random_error,
    support,
    weight,
)
from .equiv import ScalingMap, build_B, nullspace_equivalence, scaling_map
from .field import Field, binom_mod
from .gs import GsParams, gs_interpolate, gs_params_valid, key_equation_check, multiplicity_at
from .linalg import Mat, nullspace, rank, rref
from .mgs import MgsSystem, build_Bbar, errorfree_divisibility_check, mgs_decode, mgs_interpolate
from .montecarlo import ExperimentConfig, TrialRecord, run_montecarlo, run_trials
from .outcome import DecodeOutcome
from .poly import NEG_INF, UniPoly, lagrange_interpolate, locator_poly, poly_divrem
from .virs import (
    StackedSolution,
    block_widths,
    build_A,
    build_Mi,
    feasible,
    virs_decode,
    virs_radius,
)
from .wb import WbSystem, wb_build, wb_decode, wb_radius

__all__ = [
    "BiPoly",
    "CodeSpec",
    "DecodeOutcome",
    "ExperimentConfig",
    "FactorError",
    "Field",
    "GsParams",
    "Mat",
    "MgsSystem",
    "NEG_INF",
    "ScalingMap",
    "StackedSolution",
    "TrialRecord",
    "UniPoly",
    "WbSystem",
    "Word",
    "binom_mod",
    "block_widths",
    "build_A",
    "build_B",
    "build_Bbar",
    "build_Mi",
    "corrupt",
    "default_locators",
    "encode",
    "errorfree_divisibility_check",
    "extract_power_factor",
    "feasible",
    "gs_interpolate",
    "gs_params_valid",
    "hasse_mixed",
    "hasse_y",
    "interpolate_word",
    "key_equation_check",
    "lagrange_interpolate",
    "locator_poly",
    "mgs_decode",
    "mgs_interpolate",
    "multiplicity_at",
    "nullspace",
    "nullspace_equivalence",
    "poly_divrem",
    "power_factor_poly",
    "power_word",
    "random_error",
    "rank",
    "rref",
    "run_montecarlo",
    "run_trials",
    "scaling_map",
    "shift",
    "substitute_y",
    "support",
    "virs_decode",
    "virs_radius",
    "wb_build",
    "wb_decode",
    "wb_radius",
    "weight",
    "weighted_degree",
]

__version__ = "0.1.0"
