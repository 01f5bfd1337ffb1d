"""The public contract: ``trafficpaths.__all__`` changes only on purpose."""

import trafficpaths

PUBLIC_NAMES = [
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


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert list(trafficpaths.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in trafficpaths.__all__:
        assert getattr(trafficpaths, name, None) is not None, name
