"""Computing, bounding, and empirically certifying nonlinear Poincare
constants of finite graphs into finite metric spaces, with brute-force
oracles and Monte Carlo verifiers at desk scale."""

__version__ = "0.1.0"

from .graphs import (Graph, ball, bfs_distances, cheeger_bounds, cheeger_exact,
                     complete_bipartite_graph, complete_graph, cycle_graph,
                     diameter, distance_matrix, expansion_holds, graph_from_edges,
                     is_connected, lambda2, path_graph, petersen_graph,
                     random_regular, spectrum, sphere, tree_like_set)
from .metrics import (FiniteMetric, aspect_ratio, cost_matrix,
                      is_well_conditioned, lift_assignment, linf_grid, path_metric,
                      snowflake, uniform_metric, validate,
                      well_conditioned_reduction)
from .poincare import (GammaReport, VertexMap, average_distortion, dirichlet,
                       empirical_average, empirical_quantile, gamma_euclidean_sq,
                       gamma_exact, gamma_lower_search, gamma_of_map,
                       is_concentrated)
from .extrapolation import (ExtrapolationConstants, check_extrapolation,
                            check_nonconcentrated, constants, nonconc_params,
                            one_sided_gamma)
from .embeddings import (EmbeddingReport, GridMap, embedding_distortion,
                         jls_embedding, trunc, universal_space_size,
                         witness_certificate, witness_map)
from .models import (ModelDraw, SeedTable, draw_model,
                     equitable_decomposition, matching_avoidance_mc,
                     random_perfect_matching, restriction_concentration_mc,
                     seed_map_g, seed_map_h, typical_vertex_sets)
