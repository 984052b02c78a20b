"""weylgraded: exact computations in the graded module category of the Weyl algebra.

The package mechanizes the classification of rings graded equivalent to the
first Weyl algebra in its Euler gradation: Picard group normal forms, necklace
canonicalization of conjugacy classes, explicit construction of the canonical
rings S(J, n) with an independent module-theoretic oracle, and the graded
Grothendieck group.
"""
from .zfin import (
    AdmissiblePair,
    FinSet,
    NecklaceClass,
    NotInImageError,
    absorb_shift,
    affine_image,
    boundary,
    inverse_boundary,
    necklace_canonical,
    necklace_count,
    necklace_enumerate,
    shift_delta,
    slice,
)
from .skew import (
    RationalPoly,
    SkewElement,
    weyl_membership,
    x,
    y,
)
from .lattices import (
    DSet,
    GradedLattice,
    SimpleLabel,
    cokernel_support,
    ext_dim_simples,
    hom_generator,
    iota_lattice,
    is_A_module,
    lattice_dset,
    lattice_intersect,
    simple_factor,
    to_dset,
)
from .picard import (
    PicElement,
    act_on_dset,
    act_on_simple,
    compose,
    coverage_witness,
    identity,
    inverse,
    iota,
    is_generative,
    is_numerically_trivial,
    omega,
    power,
    shift,
    sign_rank,
)
from .classify import canonical_admissible, morita_class_count, same_morita_class
from .gwa import (
    GWAPresentation,
    RingPieces,
    graded_piece_closed_form,
    present,
    ring_pieces,
    simplicity_root_test,
    twisted_endo_piece_oracle,
    verify_gwa_embedding,
    verify_ring_closure,
)
from .ktheory import (
    K0Class,
    ProjectiveSum,
    iso_test,
    k0_class,
    normalize_sum,
    stably_free_witness,
    theta_map,
)

__version__ = "0.1.0"

# The command line (and through it argparse and the verification registry) is
# imported on first use of one of these names, not by ``import weylgraded``.
_CLI_NAMES = ("parse_expression", "run_command")


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_CLI_NAMES])

__all__ = [
    "AdmissiblePair",
    "DSet",
    "FinSet",
    "GWAPresentation",
    "GradedLattice",
    "K0Class",
    "NecklaceClass",
    "NotInImageError",
    "PicElement",
    "ProjectiveSum",
    "RationalPoly",
    "RingPieces",
    "SimpleLabel",
    "SkewElement",
    "absorb_shift",
    "act_on_dset",
    "act_on_simple",
    "affine_image",
    "boundary",
    "canonical_admissible",
    "cokernel_support",
    "compose",
    "coverage_witness",
    "ext_dim_simples",
    "graded_piece_closed_form",
    "hom_generator",
    "identity",
    "inverse",
    "inverse_boundary",
    "iota",
    "iota_lattice",
    "is_A_module",
    "is_generative",
    "is_numerically_trivial",
    "iso_test",
    "k0_class",
    "lattice_dset",
    "lattice_intersect",
    "morita_class_count",
    "necklace_canonical",
    "necklace_count",
    "necklace_enumerate",
    "normalize_sum",
    "omega",
    "parse_expression",
    "power",
    "present",
    "ring_pieces",
    "run_command",
    "same_morita_class",
    "shift",
    "shift_delta",
    "sign_rank",
    "simple_factor",
    "simplicity_root_test",
    "slice",
    "stably_free_witness",
    "theta_map",
    "to_dset",
    "twisted_endo_piece_oracle",
    "verify_gwa_embedding",
    "verify_ring_closure",
    "weyl_membership",
    "x",
    "y",
]
