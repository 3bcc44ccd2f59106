"""Walkthrough: constructing the four Cartan type families.

Each model carries parity, integer degree, and a weight vector per basis
element; the S family is cut out as the divergence kernel and the H family
as the image of the Hamiltonian map.
"""

from cartansuper.families import build, build_lprime, divergence
from cartansuper.liesuper import check_axioms

for family, n in [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)]:
    A = build(family, n)
    P = build_lprime(A)
    print(f"== {family}({n}) ==")
    print(f"  dim L = {A.dim}, dim L' = {P.dim_lprime}")
    print(f"  degrees {min(A.degree)}..{max(A.degree)}"
          + (f" (mod {A.grading_modulus})" if A.grading_modulus else ""))
    print(f"  dim L_0 = {sum(1 for d in A.degree if d == 0)}, "
          f"Cartan rank = {len(A.cartan_chain)}")
    roots = sorted({w for w in A.weight if any(w)})
    print(f"  {len(roots)} distinct nonzero roots")
    rep = check_axioms(A, jacobi_triples=2000, seed=0)
    print(f"  axioms (sampled): {'ok' if rep.ok else rep.first_violation}")

print("\n== a divergence computation in W(4) coordinates ==")
S4 = build("S", 4)
row = S4.w_coords[S4.cartan[0]]
print(f"  first Cartan row of S(4) has divergence {divergence(4, row)}")

print("\n== the bigrade cells of W(4) ==")
W4 = build("W", 4)
blocks = W4.cells()
theta = blocks[(0, (0, 0, 0, 0))]
print(f"  {len(blocks)} cells; the (0, theta) cell is "
      f"{[str(W4.basis[i]) for i in theta]}")
