"""Exact-arithmetic kernel for Cartan type Lie superalgebras.

Builds the four families W(n), S(n), Stilde(n), H(n) inside the
superderivation algebra of the exterior algebra on n generators, computes
their superderivation algebras two independent ways, and certifies at
concrete n that every local superderivation is inner (and, by reduction,
every 2-local one that is linear).
"""

__version__ = "0.1.0"

from .derivations import (
    EndMap,
    ad_image,
    derivation_report,
    derivation_space,
    is_superderivation,
    transitivity_check,
)
from .exterior import ExtElem, ext_mul, mono_mul, partial
from .families import (
    FamilyError,
    FamilySpec,
    LPrimeModel,
    build,
    build_lprime,
    divergence,
    ham,
    involution,
    xi,
)
from .liesuper import (
    AlgebraModel,
    AxiomReport,
    ModelFormatError,
    ad_matrix,
    check_axioms,
    generators,
    model_from_json,
    model_to_json,
)
from .linalg import Matrix, Subspace, intersect, kernel, member, rank, solve
from .localcert import (
    Certificate,
    Probe,
    SeparatingScalar,
    bigrade_decompose,
    certify,
    certify_2local,
    constrained_space,
    is_2local_at,
    is_local_at,
    orbit,
    proof_probes,
    separating_t,
)

__all__ = [
    "AlgebraModel",
    "AxiomReport",
    "Certificate",
    "EndMap",
    "ExtElem",
    "FamilyError",
    "FamilySpec",
    "LPrimeModel",
    "Matrix",
    "ModelFormatError",
    "Probe",
    "SeparatingScalar",
    "Subspace",
    "ad_image",
    "ad_matrix",
    "bigrade_decompose",
    "build",
    "build_lprime",
    "certify",
    "certify_2local",
    "check_axioms",
    "constrained_space",
    "derivation_report",
    "derivation_space",
    "divergence",
    "ext_mul",
    "generators",
    "ham",
    "intersect",
    "involution",
    "is_2local_at",
    "is_local_at",
    "is_superderivation",
    "kernel",
    "member",
    "model_from_json",
    "model_to_json",
    "mono_mul",
    "orbit",
    "partial",
    "proof_probes",
    "rank",
    "separating_t",
    "solve",
    "transitivity_check",
    "xi",
]
