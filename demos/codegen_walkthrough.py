"""Compile a verified tensor into a straight-line multiplication schedule.

Each rank-one term becomes one product of two linear combinations of
input entries; output entries accumulate the products.  The schedule
holds those linear forms, and the recursion compiles them and applies
them blockwise for larger matrices.
"""

import random
from fractions import Fraction

import mmtensor as mm
from mmtensor import Matrix

sched = mm.extract_schedule(mm.strassen())
print("Strassen as executable pseudo-code:")
print(mm.emit_code(sched))
print("operation counts:", mm.op_count(sched))
print()

# run it on exact rational inputs
rng = random.Random(0)
def rnd(n):
    return Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    for _ in range(n)] for _ in range(n)])

a, b = rnd(2), rnd(2)
assert mm.recursive_multiply(mm.strassen(), a, b).product == a @ b
print("2x2 schedule output matches the schoolbook product exactly")

# recursion: 4x4 via Strassen costs 7^2 = 49 base multiplications
a, b = rnd(4), rnd(4)
res = mm.recursive_multiply(mm.strassen(), a, b, threshold=1)
assert res.product == a @ b
print("4x4 via the 2x2 schedule:", res.scalar_multiplications,
      "scalar multiplications")

# 9x9 via the reconstructed 23-term 3x3 tensor costs 23^2 = 529
a, b = rnd(9), rnd(9)
res = mm.recursive_multiply(mm.laderman_variant(1), a, b, threshold=1)
assert res.product == a @ b
print("9x9 via the 3x3 schedule:", res.scalar_multiplications,
      "scalar multiplications")
