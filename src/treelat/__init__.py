"""treelat: homology and boundary K-theory ranks for lattices on products of trees.

The input is a finite VH-T square complex (a square complex whose edges
split into horizontal and vertical classes and whose vertex links are
complete bipartite).  From it the package builds the tiling system of
directed squares with its two 0-1 transition matrices, computes integral
homology exactly, and reports the rank of K_0 of the associated boundary
crossed-product algebra as twice the rank of the stacked-kernel lattice.
A generator for the quaternion one-vertex complexes of Mozes type is
included, as is a verifier for the rank identity on any given complex.
"""

__version__ = "0.1.0"

from treelat.complex_model import (
    ComplexFormatError,
    DegenerateOrbitError,
    GeometricEdge,
    SquareComplex,
    ValidationReport,
    expand_directed_squares,
    load_complex,
    serialize_complex,
    validate_vht,
)
from treelat.homology import (
    ChainMaps,
    HomologyReport,
    TheoremVerdict,
    certified_theorem,
    chain_maps,
    commuting_square,
    homology_report,
    stacked_kernel_basis,
    verify_main_theorem,
)
from treelat.mozes import (
    GeneratorSet,
    MozesParameterError,
    Quaternion,
    generate_mozes_complex,
    norm_quaternions,
)
from treelat.tiling_system import (
    ConnectivityReport,
    TilingSystem,
    build_tiling,
    connectivity,
    k0_rank,
    stacked_matrix,
)
from treelat.zlinalg import (
    AbelianInvariants,
    IntMatrix,
    SmithDecomposition,
    cokernel_invariants,
    image_and_smith_form,
    kernel_and_image,
    kernel_basis,
    rank,
    smith_normal_form,
)

__all__ = [
    "__version__",
    "AbelianInvariants",
    "ChainMaps",
    "ComplexFormatError",
    "ConnectivityReport",
    "DegenerateOrbitError",
    "GeneratorSet",
    "GeometricEdge",
    "HomologyReport",
    "IntMatrix",
    "MozesParameterError",
    "Quaternion",
    "SmithDecomposition",
    "SquareComplex",
    "TheoremVerdict",
    "TilingSystem",
    "ValidationReport",
    "build_tiling",
    "certified_theorem",
    "chain_maps",
    "cokernel_invariants",
    "commuting_square",
    "connectivity",
    "expand_directed_squares",
    "generate_mozes_complex",
    "homology_report",
    "image_and_smith_form",
    "k0_rank",
    "kernel_and_image",
    "kernel_basis",
    "load_complex",
    "norm_quaternions",
    "rank",
    "serialize_complex",
    "smith_normal_form",
    "stacked_kernel_basis",
    "stacked_matrix",
    "validate_vht",
    "verify_main_theorem",
]
