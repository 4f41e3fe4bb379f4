"""Exact-arithmetic workbench for matrix-multiplication tensors.

Represents bilinear algorithms as sums of rank-one tensor triples over the
rationals, verifies and transforms them (projections, isotropies, orbit
sums), reconstructs a rank-23 3x3 algorithm from the Winograd variant of
Strassen, and compiles verified tensors into executable multiplication
schedules.
"""

from .matrix import Matrix, as_fraction
from .tensor import (RankOneTerm, Tensor, brent_failures, combine,
                     contract12, decomposition_length, expansion, form_equal,
                     full_contraction, is_matmul_tensor, merge_shared_factors,
                     monomial_term, tensor_type, format_type, term,
                     to_coefficient_form)
from .transforms import (matrix_lift, matrix_project, matrix_zero,
                         projection_census, tensor_lift, tensor_project,
                         tensor_zero, zeroing_family_sum)
from .isotropy import (Isotropy, IsotropyGroup, MonomialOrbitPartition,
                       SignedPerm, act, compose, is_term_stabilizer,
                       monomial_partition, monomial_stabilizer_search,
                       orbit_partition_sum, orbit_sum)
from .constructions import (CorrectionResult, builtin, classical,
                            correction_term, cyclic_partition, klein_group,
                            klein_orbit_sum_winograd, laderman,
                            laderman_variant, lifted_winograd, strassen,
                            winograd, winograd_isotropy)
from .trilinear import TrilinearSyntaxError, parse_trilinear, print_trilinear
from .tensorfile import (TensorFileError, read_group_file, read_isotropy_file,
                         read_tensor_file, write_group_file,
                         write_tensor_file)
from .codegen import (MultiplyResult, OpCount, Schedule, blocking,
                      emit_code, extract_schedule, op_count,
                      recursive_multiply)

__version__ = "0.1.0"
