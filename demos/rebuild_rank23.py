"""Reassemble a 23-term 3x3 multiplication algorithm from 2x2 pieces.

The chain: embed the Winograd 2x2 tensor in the lower-right block of a
3x3 tensor, sum its orbit under a Klein four-group of row/column swaps,
and repair the overlap with a correction term read off the decomposition
identity.  The result has 23 rank-one terms and the same type as
Laderman's algorithm.
"""

import mmtensor as mm
from mmtensor import Tensor

K = mm.klein_group()
print("group order:", len(K))
print("group permutes the schoolbook terms:",
      mm.is_term_stabilizer(K, mm.classical(3)))
print()

# the bulk: Klein orbit of the lifted Winograd tensor, merged
lifted = mm.lifted_winograd(1)
bulk = mm.merge_shared_factors(mm.orbit_sum(K, lifted))
print("orbit sum merges 28 raw terms down to",
      mm.decomposition_length(bulk))
print("is it already a multiplication tensor?",
      mm.is_matmul_tensor(bulk))
print()

# the repair: a correction tensor read off the decomposition identity
res = mm.correction_term(mm.monomial_partition(K))
print("correction corner coefficient:", res.corner_coefficient,
      "(total weight", str(res.corner_total_weight) + ")")

# assemble: corner monomial orbit + bulk - correction, then merge
base = mm.orbit_sum(K, Tensor(3, [mm.monomial_term(3, 1, 1, 1)]))
total = mm.combine(mm.combine(base, 1, mm.orbit_sum(K, lifted), 1),
                   1, res.tensor, -1)
variant = mm.merge_shared_factors(total)
print()
print("assembled tensor:", mm.decomposition_length(variant), "terms,",
      "verifies:", mm.is_matmul_tensor(variant))
print("type:          ", mm.format_type(mm.tensor_type(variant)))
print("Laderman's type:", mm.format_type(mm.tensor_type(mm.laderman())))
assert mm.tensor_type(variant) == mm.tensor_type(mm.laderman())

# the library packages the same chain as a one-liner
assert variant == mm.laderman_variant(1)
