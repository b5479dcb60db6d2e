"""Exact construction and verification of cubic surfaces containing a
rational line, via pencils of quadrics over quintic etale algebras.

The public surface: exact linear algebra and polynomial arithmetic over Q
(linalg, unipoly, polyfactor, intfactor), forms and projective objects
(forms), the quintic algebra (etale), the descent construction (descent),
blow-up/blow-down geometry (geometry), bounded-height point search
(pointsearch), exact smoothness (ideals: the rank of the Macaulay matrix of
the partials for cubic surfaces, the pencil-determinant criterion for
quadric pairs), the 27-lines model and Frobenius sampling (lines27,
frobenius), JSON artifacts (serialize) and the CLI (cli).
"""

from fractions import Fraction as Rational

from .descent import (DescentInput, DP4Surface, RadicandReport,
                      build_quadrics, radicand_report, run_strategy,
                      strategy_ab)
from .etale import AlgElement, EtaleAlgebra
from .forms import (BinaryQuintic, CubicForm4, LinForm, ProjLine, ProjPoint,
                    QuadForm, contains_line, contains_point,
                    pencil_determinant, restrict_to_hyperplane, signature)
from .geometry import (CubicSurface, TritangentEntry, cubic_to_dp4,
                       dp4_to_cubic, greedy_reduce, roundtrip_check,
                       tritangent_analysis)
from .ideals import GroebnerBasis, MPoly, buchberger, is_unit_ideal, \
    smooth_cubic, smooth_dp4
from .intfactor import is_perfect_square, squarefree_class, squarefree_part
from .linalg import Matrix, charpoly, det, rank, solve_linear
from .pointsearch import SearchResult, brute_force_search, search, \
    verify_point
from .polyfactor import factor_unipoly, rational_roots
from .unipoly import UniPoly

__version__ = "0.1.0"

__all__ = [
    "Rational", "Matrix", "UniPoly", "det", "rank", "charpoly",
    "solve_linear", "factor_unipoly", "rational_roots", "squarefree_part",
    "squarefree_class", "is_perfect_square",
    "QuadForm", "CubicForm4", "LinForm", "ProjPoint", "ProjLine",
    "BinaryQuintic", "pencil_determinant", "restrict_to_hyperplane",
    "contains_line", "contains_point", "signature",
    "EtaleAlgebra", "AlgElement",
    "DescentInput", "DP4Surface", "RadicandReport", "build_quadrics",
    "strategy_ab", "radicand_report", "run_strategy",
    "CubicSurface", "TritangentEntry", "cubic_to_dp4", "dp4_to_cubic",
    "roundtrip_check", "tritangent_analysis", "greedy_reduce",
    "SearchResult", "search", "brute_force_search",
    "verify_point",
    "MPoly", "GroebnerBasis", "buchberger", "is_unit_ideal",
    "smooth_cubic", "smooth_dp4",
    "__version__",
]
