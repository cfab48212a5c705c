"""Recover the observable eigenvalue spectrum of an unknown networked system
from a short scalar output sequence.

A single observed output of a linear multiagent network determines, through
the rank and kernel of a Hankel matrix of at most 2n samples, every
eigenvalue of the coupling matrix that the initial state and output weighting
actually excite. This package bundles the estimator pipeline (one entry
point, ``estimate_spectrum``, for discrete, sampled continuous and networked
records), simulators that produce such sequences, random graph generators
for test networks, and oracle machinery to verify estimates against dense
eigensolvers.
"""

from .clustering import cluster_complex, enforce_conjugate_pairs
from .dynamics import (
    CT,
    DT,
    NodeDynamics,
    ObservationSetup,
    OutputSequence,
    SimulationOverflowError,
    matrix_exponential,
    random_setup,
    read_sequence,
    simulate_ct_networked,
    simulate_ct_sampled,
    simulate_dt,
    simulate_dt_networked,
    write_sequence,
)
from .estimator import (
    CharacteristicPoly,
    DeconvolutionOverflowError,
    EstimatorOptions,
    HankelAnalysis,
    InsufficientDataError,
    LogSingularRootError,
    OnlineRankDetection,
    SingularDeconvolutionError,
    SpectrumEstimate,
    build_hankel,
    deconvolve_sigma,
    deconvolve_sigma_ct,
    detect_rank_online,
    estimate_spectrum,
    nu_sequence,
    roots_with_multiplicity,
    solve_coefficients,
)
from .graphs import (
    Graph,
    GraphMatrixKind,
    SingularDegreeError,
    assign_uniform_weights,
    build_matrix,
    generate_preferential_attachment,
    generate_ring,
    read_graph_tsv,
    read_matrix_csv,
    write_graph_tsv,
    write_matrix_csv,
)
from .oracle import (
    MatchReport,
    OracleSpectrum,
    full_spectrum,
    match_spectra,
    observable_partition,
    pbh_deficiency,
)
from .scenarios import run_scenario, sweep, summarize

__version__ = "0.1.0"

__all__ = [
    "CT",
    "DT",
    "CharacteristicPoly",
    "DeconvolutionOverflowError",
    "EstimatorOptions",
    "Graph",
    "GraphMatrixKind",
    "HankelAnalysis",
    "InsufficientDataError",
    "LogSingularRootError",
    "MatchReport",
    "NodeDynamics",
    "ObservationSetup",
    "OnlineRankDetection",
    "OracleSpectrum",
    "OutputSequence",
    "SimulationOverflowError",
    "SingularDeconvolutionError",
    "SingularDegreeError",
    "SpectrumEstimate",
    "assign_uniform_weights",
    "build_hankel",
    "build_matrix",
    "cluster_complex",
    "deconvolve_sigma",
    "deconvolve_sigma_ct",
    "detect_rank_online",
    "enforce_conjugate_pairs",
    "estimate_spectrum",
    "full_spectrum",
    "generate_preferential_attachment",
    "generate_ring",
    "match_spectra",
    "matrix_exponential",
    "nu_sequence",
    "observable_partition",
    "pbh_deficiency",
    "random_setup",
    "read_graph_tsv",
    "read_matrix_csv",
    "read_sequence",
    "roots_with_multiplicity",
    "run_scenario",
    "simulate_ct_networked",
    "simulate_ct_sampled",
    "simulate_dt",
    "simulate_dt_networked",
    "solve_coefficients",
    "summarize",
    "sweep",
    "write_graph_tsv",
    "write_matrix_csv",
    "write_sequence",
]
