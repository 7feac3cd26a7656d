"""Exact quaternionic Kahler pullback constants and period-domain checks.

Everything is computed in Q(i, sqrt2) with exact arithmetic; see the module
docstrings for the conventions (quaternion identification, wedge expansion,
chart normalization of the symmetric square).
"""

from .scalars import (FieldElem, JetScalar, Quat, parse_field_elem,
                      ZERO, ONE, I, SQRT2, I_SQRT2, HALF_SQRT2,
                      QUAT_I, QUAT_J, QUAT_K, QUAT_UNITS)
from .linalg import Matrix, Subspace, herm_form, unit_vector
from .geometry import (TangentVec, kahler_form, metric_g0, omega4,
                       omega_unit, su2_action_check, to_quat,
                       unit_wedge_squares, wedge_square_eval)
from .embeddings import (EmbeddingDiff, BALL_SIG, W_SIG, E_BASIS_TENSORS,
                         make_embedding, standard_quadruple, su21_p_matrix,
                         sym_product, sym_square_lie, sym_to_e_coords, is_su21)
from .toledo import (CONVENTION, CompositionReport, PullbackReport,
                     composition_invariant, pullback_constant)
from .lifting import (PERIOD_FLAG_H, TWISTOR_H, classify, classify_linearity,
                      grading_mask, holomorphy_check_u3u1u2, horizontality_check,
                      iota_star_bplus, is_negative, negative_line_basis,
                      period_triple, twistor_nonlift_check)

__version__ = "0.1.0"
