"""Certification of fractional revival and subset state transfer in
continuous quantum walks on unweighted graphs, with exact closed-form
treatment of the fused-star family X(a, k, c).
"""

from .exact import (charpoly_int, fermat_two_squares, is_prime, rationalize,
                    square_free_part, two_adic_valuation)
from .graphs import (Graph, build_stellar, graph_from_graph6, graph_from_json,
                     graph_to_dot, graph_to_json, stellar_cells)
from .spectral import (SpectralDecomposition, char_poly_suite, decompose,
                       stellar_decompose)
from .states import (SupportGraph, subset_state, support_graph,
                     support_graph_to_dot)
from .revival import (FRObservation, RevivalCertificate, certify_fr,
                      verify_fr_at)
from .stellar import (FamilyRecipe, StellarAnalysis, analyze,
                      diophantine_check, generate_family,
                      generate_polygamy_triple)
from .transfer import (PolygamyReport, SubsetTransferReport,
                       detect_subset_transfer, induced_cospectrality,
                       polygamy_witness)

__version__ = "0.1.0"
