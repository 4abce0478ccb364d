"""Reed-Solomon decoding beyond half the minimum distance.

Three decoders, one row-reduction kernel (`virs.module_kernel`):

- wb: classical decoding up to floor((n-k)/2) errors, the list-size-1
  case of interpolation;
- virs: virtual interleaving of symbol powers, one shared error
  locator, radius floor((sn - C(s+1,2)(k-1) - s) / (s+1)), decoded by
  row-reducing its solution module;
- mgs: bivariate interpolation with an s-fold y-root, same radius,
  decoded by row-reducing virs's module scaled by D(s), like wb at s = 1.

The equiv module certifies that the systems of virs and mgs have the
same solution space up to an explicit diagonal change of coordinates.
This namespace exports what the README, the scripts and the CLI use;
everything else is imported from its submodule.
"""

from .bivariate import scaling_map
from .code import CodeSpec, Word, corrupt, encode, power_word
from .equiv import nullspace_equivalence
from .field import Field
from .linalg import nullspace
from .mgs import build_Bbar, mgs_decode
from .outcome import DecodeOutcome
from .poly import UniPoly
from .virs import build_A, feasible, virs_decode, virs_radius
from .wb import wb_decode, wb_radius

__all__ = [
    "CodeSpec",
    "DecodeOutcome",
    "Field",
    "UniPoly",
    "Word",
    "build_A",
    "build_Bbar",
    "corrupt",
    "encode",
    "feasible",
    "mgs_decode",
    "nullspace",
    "nullspace_equivalence",
    "power_word",
    "scaling_map",
    "virs_decode",
    "virs_radius",
    "wb_decode",
    "wb_radius",
]

__version__ = "0.1.0"
