"""Exact skeletal pivotal fusion categories and their Frobenius-Schur data."""

from .category import (Category, FSymbolSet, FusionRing, MissingPivotalError,
                       ObjectExpr, PivotalData, SpecError, ValidationReport,
                       fp_dimension, gauge_transform, reverse_category,
                       validate)
from .cyclo import Cyc, galois_conjugate, root_of_unity
from .homcalc import (LinMap, TensorWord, assoc_matrix, close_loop,
                      double_dual_coefficient, dual_morphism)
from .indicators import (DimensionGuardError, IndicatorReport,
                         RotationOperator, check_fs_theorems,
                         check_power_identity, check_reversal_symmetry, e_map,
                         fs_scalar, indicator, indicator_report, is_spherical,
                         qn_distance, rotation_operator)
from .pivotal import (attach_pivotal, canonical_flags,
                      enumerate_pivotal_structures, global_dimension,
                      is_pseudo_unitary, normed_square)
from .specio import (SpecFormatError, load_bundled, load_category,
                     save_category)

__all__ = [name for name in dir() if not name.startswith("_")]
