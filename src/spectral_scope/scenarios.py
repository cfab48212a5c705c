"""Seeded end-to-end experiment presets.

Each preset pins one experiment instance — the network shape plus whatever
else identifies the system under study — and lets the integer seed vary the
quantities that are drawn fresh per run. Every random ingredient derives
deterministically from the seed through ``numpy.random.SeedSequence.spawn``,
so a (scenario, seed) pair identifies a full experiment. The pinned parts
that no seed changes (a preset's graph shape, and fig3's whole system and
its true spectrum) are built once per process and shared read-only.

fig1  10-node preferential attachment graph, discrete-time single
      integrators, one observed node, K = 20. Per seed: Uniform[-1,1] edge
      weights and x0 ~ Uniform[0,1]^10.
fig2  8-node directed ring, continuous time sampled at tau = 1 (possibly
      unstable), output = a random linear combination of two adjacent node
      states, K = 16. Per seed: Uniform[-1,1] edge weights, x0, and the
      two combination coefficients.
fig3  fig1's graph where every node carries a fixed 3-dimensional symmetric
      agent, discrete time, output = the summed readouts of two nodes,
      K = 20. Per seed: x0 only — the deconvolution step must undo binomial
      mixing of the stored outputs, so the instance (weights, agent, taps)
      is part of the experiment's identity and only the initial condition
      is redrawn.

The estimator runs with prescaling on and a rank threshold of 1e-14: all
three systems pack n genuine modes against a Hankel matrix whose trailing
singular values sit many decades below the leading one, and the default
threshold would misread the dynamic range as rank deficiency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    NodeDynamics,
    ObservationSetup,
    OutputSequence,
    SimulationOverflowError,
    random_setup,
    simulate_ct_sampled,
    simulate_dt,
    simulate_dt_networked,
)
from .estimator import SpectrumEstimate, estimate_spectrum
from .graphs import Graph, GraphMatrixKind, assign_uniform_weights, build_matrix, generate_preferential_attachment, generate_ring
from .oracle import MatchReport, full_spectrum, match_spectra

__all__ = [
    "run_scenario",
    "sweep",
    "summarize",
]

SCENARIOS = ("fig1", "fig2", "fig3")

# Pinned experiment instances. The graph-shape seeds and observation taps were
# chosen (by sweeping candidates at 100 seeds each) so that every mode of the
# generic instance is genuinely visible from the taps: preferential-attachment
# draws often carry structural blind spots — several leaves hanging off the
# same hubs support an exact zero-eigenvalue eigenvector with no weight on the
# observed node — and no estimator can recover what never reaches the output.
FIG1_SHAPE_SEED = 74
FIG1_OBSERVED = 9
FIG2_OBSERVED = (2, 3)
FIG3_SHAPE_SEED = 74
FIG3_WEIGHT_SEED = 55
FIG3_NODE_SEED = 2
FIG3_OBSERVED = (0, 9)


@functools.cache
def _pa_shape(seed: int) -> Graph:
    # a pinned shape is a frozen Graph, so every seed can share one copy
    return generate_preferential_attachment(10, 2, seed=seed)


def _weighted(shape: Graph, seed) -> tuple[Graph, np.ndarray]:
    """The shape with Uniform[-1,1) edge weights, and its adjacency matrix."""
    g = assign_uniform_weights(shape, -1.0, 1.0, seed=seed)
    return g, build_matrix(g, GraphMatrixKind.ADJACENCY)


@functools.cache
def _fig3_system() -> tuple[Graph, np.ndarray, NodeDynamics, np.ndarray]:
    """fig3's pinned system: the weighted graph, its adjacency matrix, the
    agent and the true spectrum. Every seed shares them, so the arrays are
    read-only."""
    g, M = _weighted(_pa_shape(FIG3_SHAPE_SEED), FIG3_WEIGHT_SEED)
    node = NodeDynamics.random_symmetric(3, seed=FIG3_NODE_SEED)
    truth = full_spectrum(M)
    for a in (M, node.A, node.beta, node.gamma, truth):
        a.flags.writeable = False
    return g, M, node, truth


@dataclass(frozen=True, eq=False)
class ScenarioArtifacts:
    """Everything a demo writes to disk for one run."""

    graph: Graph
    matrix: np.ndarray
    setup: ObservationSetup
    sequence: OutputSequence | None  # None when the simulation overflowed; holds tau and node


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """One seed of a preset. ``estimate``, ``truth`` and ``report`` are None
    exactly when the simulation overflowed; the verdict is read off the report."""

    name: str
    seed: int
    tol: float
    estimate: SpectrumEstimate | None = None
    truth: np.ndarray | None = None
    report: MatchReport | None = None
    artifacts: ScenarioArtifacts | None = None

    @property
    def overflow(self) -> bool:
        return self.report is None

    @property
    def ok(self) -> bool:
        # every pair match_spectra reports is within tol, so matching all is the verdict
        return self.report is not None and self.report.matched_all

    @property
    def max_error(self) -> float:
        """The largest matched error, infinite when nothing matched."""
        return self.report.max_error if self.report is not None and self.report.pairs else math.inf


def run_scenario(name: str, seed: int = 0, keep_artifacts: bool = False) -> ScenarioResult:
    """One seed of a preset: draw its instance, simulate K = 2n samples,
    estimate the spectrum and match it against the true one."""
    # The instance. Only the graph and its matrix, the taps and their mix,
    # the node, tau, tol and a pinned true spectrum differ between presets;
    # everything after this block is shared.
    node = tau = mix = truth = None
    relative_tol = False
    if name == "fig1":
        s_w, s_setup = np.random.SeedSequence(seed).spawn(2)
        (g, M), observed = _weighted(_pa_shape(FIG1_SHAPE_SEED), s_w), FIG1_OBSERVED
        tol, relative_tol = 1e-6, True  # scaled by the spectral radius below
    elif name == "fig2":
        s_w, s_setup, s_obs = np.random.SeedSequence(seed).spawn(3)
        (g, M), observed = _weighted(generate_ring(8, directed=True), s_w), FIG2_OBSERVED
        mix = np.random.default_rng(s_obs).uniform(-1.0, 1.0, 2)
        tau, tol = 1.0, 1e-3
    elif name == "fig3":
        (s_setup,) = np.random.SeedSequence(seed).spawn(1)
        (g, M, node, truth), observed = _fig3_system(), FIG3_OBSERVED
        tol = 1e-5
    else:
        raise ValueError(f"unknown scenario {name!r}; pick one of {SCENARIOS}")

    setup = random_setup(g.n, seed=s_setup, observed=observed, observe_weights=mix)
    try:
        if node is not None:
            y = simulate_dt_networked(M, node, setup, K=2 * g.n)
        elif tau is not None:
            y = simulate_ct_sampled(M, setup, tau=tau, K=2 * g.n)
        else:
            y = simulate_dt(M, setup, K=2 * g.n)
    except SimulationOverflowError:
        y = None
    artifacts = ScenarioArtifacts(g, M, setup, y) if keep_artifacts else None
    if y is None:
        return ScenarioResult(name, seed, tol, artifacts=artifacts)

    est = estimate_spectrum(y, rank_tolerance=1e-14, prescale=True)
    if truth is None:
        truth = full_spectrum(M)
    if relative_tol:
        tol *= max(1.0, float(np.max(np.abs(truth))))
    report = match_spectra(est.roots, truth, tol)
    return ScenarioResult(name, seed, tol, est, truth, report, artifacts)


def sweep(name: str, seeds: int = 100, seed0: int = 0) -> list[ScenarioResult]:
    """Run ``seeds`` consecutive seeds of a scenario, starting at ``seed0``."""
    return [run_scenario(name, s) for s in range(seed0, seed0 + seeds)]


def summarize(results: list[ScenarioResult]) -> dict:
    """The ``bench --json`` object of one sweep; the errors are over its passing seeds."""
    passing = [r for r in results if r.ok]
    return {
        "schema": 1,
        "scenario": results[0].name if results else "",
        "seeds": len(results),
        "passes": len(passing),
        "pass_rate": len(passing) / len(results) if results else 0.0,
        "failed_seeds": [r.seed for r in results if not r.ok],
        "overflow_seeds": [r.seed for r in results if r.overflow],
        "max_error_passing": max((r.max_error for r in passing), default=0.0),
        "mean_error_passing": float(np.mean([r.max_error for r in passing])) if passing else 0.0,
    }
