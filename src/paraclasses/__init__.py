"""Conjugacy classes in maximal parabolic subgroups of general linear
groups over finite fields, with an independent brute-force oracle."""

from .gf import FiniteField, ff, ff_order, extend, irreducibles, poly_factor
from .matrices import Mat, char_poly
from .jordan import assemble, conjugator, enumerate_gjnf, gjnf, jordan_block
from .centralizer import (AlgElement, alg_is_unit, alg_mul, centralizer_dim,
                          d_twist, embed, generators)
from .cocentralizer import (CocentElement, CocentShape, act_left, act_right,
                            lift, reduce_levi_pair)
from .matrix_problem import (canonical_form, enumerate_orbits, orbit_count,
                             reduce_structured, type_classify, wild_invariant)
from .conjugacy import (agl_class_count, agl_class_reps, count_poly,
                        gl_class_count, levi_reps, parabolic_class_count,
                        parabolic_class_reps)
from .oracle import oracle_agl, oracle_classes
from .errors import BudgetExceeded

__version__ = "0.1.0"
