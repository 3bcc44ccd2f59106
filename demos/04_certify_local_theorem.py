"""Walkthrough: certifying that local superderivations are inner.

The probe list replays the vanishing argument: the separating-scalar
combination h_0, the Cartan combinations, the depth fields, and the
h_0- and d-sum-shifted basis vectors.  The constrained space is cut shift
by shift and compared with ad L'; the 2-local statement for linear maps
follows by reduction.
"""

from fractions import Fraction

from cartansuper.derivations import EndMap, ProofContext
from cartansuper.families import build, build_lprime
from cartansuper.localcert import (
    certify,
    certify_2local,
    is_local_at,
    proof_probes,
    separating_t,
)

for family, n in [("W", 4), ("S", 4), ("Stilde", 4), ("H", 5)]:
    A = build(family, n)
    P = build_lprime(A)
    sep = separating_t(P.ext)
    probes = proof_probes(P, sep)
    cert = certify(ProofContext(P))
    cert = certify_2local(cert)
    print(f"{family}({n}):  t = {cert.t}, proof probes = {len(probes)}, "
          f"probes consumed = {len(cert.probe_labels)}")
    print(f"   local: {cert.verdict}  (dim C = {cert.dim_constrained}, "
          f"dim ad L' = {cert.dim_ad});  2-local: {cert.twolocal_verdict}")

print("\nA non-example: the identity map on W(4) is not even 1-local")
A = build("W", 4)
P = build_lprime(A)
ident = EndMap.identity(A.dim)
h1 = A.cartan_chain[0]
print(f"   identity local at h_1? {is_local_at(ident, h1, P)}")

print("\nStarving the certifier (budget 1) leaves it INCONCLUSIVE, not wrong:")
cert = certify(ProofContext(P), budget=1)
print(f"   verdict = {cert.verdict}, residual dim = "
      f"{cert.dim_constrained - cert.dim_ad}")
