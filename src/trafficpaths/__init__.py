"""Branched transport toolkit.

Discrete traffic paths with concave multiplicity costs: construction,
decomposition into weighted curves, exhaustive and local optimization,
flat-norm metrics, and a stability laboratory that quantizes marginals,
tracks optimizers along the quantization, and assembles explicit
cheaper competitors out of suboptimal paths.
"""

from .currents import (AtomicMeasure, TrafficPath, add, alpha_mass, boundary,
                       empty_path, from_segments, mass, overlay, push_forward,
                       restrict, reverse, scale, subtract)
from .decomposition import (Curve, PathMeasure, good_decomposition, is_acyclic,
                            reconstruct, remove_cycles)
from .geometry import Ball, BallRegion, cover_compact
from .constructors import (cheap_subtransport, cone_transport, dyadic_irrigation,
                           irrigate_pair, sphere_transport)
from .metrics import GridComplex, flat_distance_1, flat_norm_0, weak_star_gap
from .optimizer import (OptimizeError, OracleRangeError, Topology,
                        brute_force_optimal, enumerate_topologies, is_optimal,
                        local_search, optimize_positions)
from .stability import (CompetitorConfig, ExperimentConfig, TargetSpec,
                        build_competitor, check_high_multiplicity_lsc,
                        check_quasi_additivity, load_experiment, quantize,
                        run_stability_trial)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure", "Ball", "BallRegion", "CompetitorConfig", "Curve",
    "ExperimentConfig", "GridComplex", "OptimizeError",
    "OracleRangeError", "PathMeasure", "TargetSpec", "Topology", "TrafficPath",
    "add", "alpha_mass", "boundary", "brute_force_optimal",
    "build_competitor", "cheap_subtransport", "check_high_multiplicity_lsc",
    "check_quasi_additivity", "cone_transport", "cover_compact",
    "dyadic_irrigation", "empty_path", "enumerate_topologies",
    "flat_distance_1", "flat_norm_0", "from_segments", "good_decomposition",
    "irrigate_pair", "is_acyclic", "is_optimal", "load_experiment",
    "local_search", "mass", "optimize_positions", "overlay", "push_forward",
    "quantize", "reconstruct", "remove_cycles", "restrict", "reverse",
    "run_stability_trial", "scale", "sphere_transport", "subtract",
    "weak_star_gap",
]
