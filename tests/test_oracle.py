"""Ground-truth machinery: eigenstructure, PBH tests, Jordan cases, matching."""

from __future__ import annotations

import ast
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    FINITE_DOUBLES,
    InfeasiblePatternError,
    exact_observable_count,
    hidden_mode_system,
    make_jordan_case,
    orthogonal,
)
from spectral_scope import (
    ObservationSetup,
    estimate_spectrum,
    full_spectrum,
    generate_preferential_attachment,
    assign_uniform_weights,
    build_matrix,
    match_spectra,
    observable_partition,
    simulate_dt,
)
from spectral_scope import oracle
from spectral_scope.clustering import _spectral_order, cluster_indices
from spectral_scope.estimator import build_hankel
from spectral_scope.graphs import _binade
from spectral_scope.oracle import _expand_values

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


# =========================================================================
# Spectra of known matrices
# =========================================================================


def test_swap_spectrum():
    assert np.array_equal(full_spectrum(SWAP), [1 + 0j, -1 + 0j])


def test_rotation_spectrum_is_an_exact_conjugate_pair():
    lams = full_spectrum(ROT)
    assert lams[0] == 1j and lams[1] == -1j
    assert lams[0] == lams[1].conjugate()


def test_a_conjugate_pair_beyond_half_the_double_range_stays_finite():
    # averaging the pair, (v + v) / 2, once overflowed to (nan+infj) and (nan-infj)
    lams = full_spectrum(ROT * 1.5e308)
    assert np.isfinite(lams).all() and lams[0] == lams[1].conjugate()
    assert lams[0] == pytest.approx(1.5e308j, rel=1e-15)


def test_spectrum_ordering_is_real_then_imag_descending():
    lams = full_spectrum(np.diag([1.0, 3.0, 2.0]))
    assert np.array_equal(lams, [3 + 0j, 2 + 0j, 1 + 0j])


@pytest.mark.parametrize("shift", [0.37, -1.2, 2.5])
def test_weighted_graph_spectrum_against_the_determinant(shift):
    g = generate_preferential_attachment(10, 2, seed=7)
    g = assign_uniform_weights(g, -1.0, 1.0, seed=7)
    G = build_matrix(g, "adjacency")
    lams = full_spectrum(G)
    det = np.linalg.det(G - shift * np.eye(10))
    product = np.prod([lam - shift for lam in lams])
    assert abs(det - product.real) <= 1e-6 * max(1.0, abs(det))
    assert abs(product.imag) <= 1e-6 * max(1.0, abs(det))


# =========================================================================
# PBH observability
# =========================================================================


def test_pbh_flags_the_orthogonal_diagonal_mode():
    G = np.diag([2.0, 3.0])
    assert oracle._pbh_deficiencies(G, [1.0, 0.0], [3.0, 2.0]).tolist() == [1, 0]
    assert oracle._pbh_deficiencies(G, [1.0, 1.0], [3.0]).tolist() == [0]


def test_partition_of_the_diagonal_pair():
    part = observable_partition(np.diag([2.0, 3.0]), c=[1.0, 0.0], x0=[0.7, 0.4])
    assert part.observable == [(2 + 0j, 1)]
    assert np.array_equal(part.missing, [3 + 0j])
    assert np.array_equal(part.distinct, [3 + 0j, 2 + 0j])
    assert np.array_equal(part.pbh_deficient, [True, False])


def test_uniform_probe_of_a_connected_laplacian_sees_only_zero():
    # row sums vanish, so the all-ones probe annihilates every moving mode
    g = generate_preferential_attachment(6, 2, seed=3)
    L = build_matrix(g, "laplacian")
    part = observable_partition(-L, c=np.ones(6) / 6, x0=np.arange(1.0, 7.0))
    assert len(part.observable) == 1
    value, mult = part.observable[0]
    assert abs(value) < 1e-12 and mult == 1
    assert len(part.missing) == 5


def test_generic_probe_sees_every_mode():
    rng = np.random.default_rng(11)
    G = rng.standard_normal((5, 5)) * 0.7
    part = observable_partition(G, c=rng.uniform(0.5, 1.5, 5), x0=rng.uniform(0.5, 1.5, 5))
    assert sum(m for _, m in part.observable) == 5 and len(part.missing) == 0


@pytest.mark.filterwarnings("error")
def test_an_empty_matrix_has_an_empty_partition_as_it_has_an_empty_spectrum():
    # numpy's cond once refused the 0 x 0 eigenvector matrix with a LinAlgError
    part = observable_partition(np.zeros((0, 0)), c=[], x0=[])
    assert full_spectrum(np.zeros((0, 0))).size == 0
    assert (part.observable, part.missing.size) == ([], 0)
    assert [a.size for a in (part.distinct, part.algebraic, part.m_tilde, part.pbh_deficient,
                             part.modal_weights)] == [0] * 5


CHAIN3 = np.array([[0.5, 1.0, 0.0], [0.0, -0.4, 1.0], [0.3, 0.0, 0.2]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x0, c", [
    ([1e300] * 3, [1e-300, 0.0, 0.0]),
    ([1e154] * 3, [1e-154, 0.0, 0.0]),
])
def test_norms_beyond_the_square_range_leave_the_partition_finite(x0, c):
    # x . x overflows past |x0| of about 1.3e154, yet |c| |x0| and the weights are finite
    part = observable_partition(CHAIN3, c=c, x0=x0)
    plain = observable_partition(CHAIN3, c=[1.0, 0.0, 0.0], x0=[1.0] * 3)
    assert np.isfinite(part.modal_weights).all()
    assert np.array_equal(part.m_tilde, plain.m_tilde) and len(part.missing) == 0


@pytest.mark.filterwarnings("error")
@given(st.integers(0, 2**32 - 1), st.integers(0, 1000), st.integers(-1000, 1000))
@example(seed=0, k=900, j=-1000)
@example(seed=1, k=0, j=900)
@settings(max_examples=60, deadline=None)
def test_the_pbh_verdict_does_not_follow_the_scales_of_m_and_c(seed, k, j):
    # the rank of [M - lambda I; c^T] is the same for any scale of either block; the PBH
    # test once took both blocks as they came, so a large M hid the c row in rounding
    rng = np.random.default_rng(seed)
    G, setup, _, _ = hidden_mode_system(int(rng.integers(2, 8)), rng)
    plain = observable_partition(G, setup.c, setup.x0)
    scaled = observable_partition(np.ldexp(G, k), np.ldexp(setup.c, j), setup.x0)
    assert scaled.pbh_deficient.tolist() == plain.pbh_deficient.tolist()
    assert scaled.m_tilde.tolist() == plain.m_tilde.tolist()


@pytest.mark.filterwarnings("error")
def test_a_swap_scaled_near_the_double_range_hides_only_its_unweighted_mode():
    # c = x0 = [1, 1] sees +1e308 alone; the PBH test once flagged both eigenvalues
    part = observable_partition([[0.0, 1e308], [1e308, 0.0]], c=[1.0, 1.0], x0=[1.0, 1.0])
    assert part.pbh_deficient.tolist() == [False, True]
    assert part.m_tilde.tolist() == [1, 0]


@pytest.mark.filterwarnings("error")
def test_a_shift_beyond_the_double_range_is_no_refusal():
    # M - lambda I at lambda = -1e308 holds 2e308, which once was an OverflowError
    part = observable_partition([[1e308, 1e308], [0.0, -1e308]], c=[1.0, 1.0], x0=[1.0, 1e308])
    assert part.distinct.tolist() == [1e308, -1e308]
    assert part.pbh_deficient.tolist() == [False, False]
    assert part.m_tilde.tolist() == [1, 1]
    assert part.modal_weights.tolist() == [5e307, 5e307]


HUGE = [1e300, 1e307, np.finfo(float).max / 2, np.finfo(float).max]


def wide_entries(rng, shape) -> np.ndarray:
    """Signed entries, a quarter each from [-1, 1], zero, the top of the double
    range, and 10^u for u uniform in [-5, 308.2], every scale between."""
    kind = rng.integers(0, 4, shape)
    pools = [rng.uniform(-1.0, 1.0, shape), np.zeros(shape), rng.choice(HUGE, shape),
             10.0 ** rng.uniform(-5.0, 308.2, shape)]
    return np.choose(kind, pools) * rng.choice([-1.0, 1.0], shape)


@pytest.mark.filterwarnings("error")
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_the_partition_answers_or_refuses_with_a_type_across_the_double_range(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    G = wide_entries(rng, (n, n))
    c, x0 = (wide_entries(rng, n) if rng.random() < 0.3 else rng.uniform(-1.0, 1.0, n) for _ in range(2))
    try:
        part = observable_partition(G, c, x0)
    except (OverflowError, ValueError):  # weights beyond the doubles, or no convergence
        return
    assert np.isfinite(part.distinct).all() and part.algebraic.sum() == n
    assert set(part.m_tilde.tolist()) <= {0, 1} and len(part.missing) == n - part.m_tilde.sum()


@pytest.mark.filterwarnings("error")
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
@example(seed=62)  # a 2 x 2 matrix of which numpy finds an infinite eigenvalue, once returned
def test_the_spectrum_is_lapacks_or_refused_with_a_type_across_the_double_range(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    G = wide_entries(rng, (n, n))
    try:
        lams = full_spectrum(G)
    except (OverflowError, ValueError) as exc:  # not Python's own "absolute value too large"
        assert str(exc) in ("an eigenvalue's modulus exceeds the double range",
                            "the QR iteration for the eigenvalues did not converge")
        return
    with np.errstate(over="ignore"):
        assert lams.shape == (n,) and np.isfinite(np.hypot(lams.real, lams.imag)).all()
    # each is LAPACK's, in the same order, but for a snap onto the real axis
    raw = sorted(np.linalg.eigvals(G).tolist(), key=_spectral_order)
    assert [abs(v - r) <= oracle.EIGEN_CLUSTER_TOL * max(1.0, abs(r)) for v, r in zip(lams, raw)] == [True] * n


JORDAN3 = [[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]]


@pytest.mark.parametrize("M, c, x0, count", [
    (JORDAN3, [1, 0, 0], [0, 0, 1], 3),  # the whole chain
    (JORDAN3, [1, 0, 0], [1, 0, 0], 1),  # the eigenvector alone
    (JORDAN3, [0, 0, 1], [0, 0, 1], 1),
    (np.diag([1.0, 2.0, 3.0]), [1, 0, 1], [1, 1, 1], 2),
    (1e-10 * np.diag([1.0, 2.0, 3.0]), [1, 1, 1], [1, 1, 1], 3),  # the oracle's clustering merges these into 1
    (SWAP, [1, 1], [1, 1], 1),
    (ROT, [1, 0], [1, 0], 2),
])
def test_the_exact_count_is_the_hankel_rank_at_every_power_of_two_scale(M, c, x0, count):
    for k, j in itertools.product((-1000, -20, 0, 20, 900), (-500, 0, 500)):
        assert exact_observable_count(np.ldexp(M, k), np.ldexp(c, j), np.ldexp(x0, -j)) == count, (k, j)


def estimator_imports(source: str) -> list[int]:
    """Lines of ``source`` that import the estimator module or a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("estimator" in path.split(".") for path in paths):
            lines.append(node.lineno)
    return lines


def test_the_oracle_imports_nothing_from_the_estimator_it_judges():
    assert estimator_imports(Path(oracle.__file__).read_text()) == []
    # and the guard sees each way of importing it
    for source in ("from .estimator import SpectrumEstimate", "from . import estimator",
                   "import spectral_scope.estimator", "from spectral_scope.estimator import x"):
        assert estimator_imports(source) == [1], source


@pytest.mark.parametrize("seed", range(20))
def test_pbh_and_modal_weights_agree_on_hidden_modes(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(4, 9))
    G, setup, D, hidden = hidden_mode_system(n, rng)
    part = observable_partition(G, setup.c, setup.x0)
    missing = set(np.round(np.real(part.missing), 9))
    assert missing == {round(D[i], 9) for i in hidden}
    for flag, m in zip(part.pbh_deficient, part.m_tilde):
        assert bool(flag) == (m == 0)


def per_eigenvalue_partition(G, c, x0):
    """The partition's grouping, PBH verdicts and weights with one SVD per
    distinct eigenvalue: the reference the batched version must equal."""
    n = G.shape[0]
    vals, U = np.linalg.eig(G)
    groups = cluster_indices(vals, 1e-8)
    groups = sorted(groups, key=lambda g: (-vals[g].mean().real, -vals[g].mean().imag))
    distinct = np.array([vals[g].mean() for g in groups], dtype=complex)
    deficient = []
    e = _binade(G)  # each block scaled as the partition scales it
    for v in distinct:
        v = complex(np.ldexp(v.real, e), np.ldexp(v.imag, e))
        s = np.linalg.svd(np.vstack([np.ldexp(G, e) - v * np.eye(n), np.ldexp(c, _binade(c))[None, :]]),
                          compute_uv=False)
        rank = int(np.count_nonzero(s > 1e-10 * s[0])) if s[0] > 0 else 0
        deficient.append(n - rank > 0)
    deficient = np.array(deficient, dtype=bool)
    cond_u = np.linalg.cond(U)
    if np.isfinite(cond_u) and cond_u < 1e8:
        omega = (c @ U) * (np.linalg.inv(U) @ x0)
        scale = max(float(np.max(np.abs(omega))), float(np.linalg.norm(c) * np.linalg.norm(x0)),
                    np.finfo(float).tiny)
        weights = np.array([complex(omega[g].sum()) for g in groups])
        m_tilde = np.array([1 if abs(w) > 1e-9 * scale else 0 for w in weights], dtype=int)
    else:
        weights = None
        m_tilde = np.array([0 if d else 1 for d in deficient], dtype=int)
    return distinct, m_tilde, deficient, weights


def partition_case(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "jordan":
        lam = float(rng.choice([-0.8, 0.5, 1.5]))
        blocks = [(lam, int(rng.integers(1, 4))), (lam, 1), (-0.3, int(rng.integers(1, 3)))]
        case = make_jordan_case(blocks, seed=seed)
        return case.G, case.c, case.x0
    n = int(rng.integers(2, 10))
    if kind == "repeated":
        Q = orthogonal(n, rng)
        G = Q @ np.diag(rng.choice([-1.0, 0.25, 1.2], n)) @ Q.T
    else:
        G = rng.standard_normal((n, n))
    c = rng.standard_normal(n)
    c[rng.integers(n)] = 0.0
    return G, c, rng.standard_normal(n)


@given(st.sampled_from(["random", "repeated", "jordan"]), st.integers(0, 2**32 - 1))
# two cases whose PBH verdicts differ when the loop's blocks are left unscaled
@example("jordan", 69)
@example("jordan", 1081)
@settings(max_examples=90, deadline=None)
def test_batched_partition_equals_the_per_eigenvalue_loop(kind, seed):
    G, c, x0 = partition_case(kind, seed)
    part = observable_partition(G, c, x0)
    distinct, m_tilde, deficient, weights = per_eigenvalue_partition(G, c, x0)
    assert part.distinct.tobytes() == distinct.tobytes()
    assert np.array_equal(part.m_tilde, m_tilde)
    assert np.array_equal(part.pbh_deficient, deficient)
    if weights is None:
        assert part.modal_weights is None
    else:
        assert part.modal_weights.tobytes() == weights.tobytes()


def test_modal_weights_reconstruct_the_output():
    rng = np.random.default_rng(17)
    G = rng.standard_normal((5, 5)) * 0.6
    setup = ObservationSetup(x0=rng.uniform(0.5, 1.5, 5), c=rng.uniform(0.5, 1.5, 5))
    part = observable_partition(G, setup.c, setup.x0)
    y = simulate_dt(G, setup, K=10)
    for k in range(10):
        recon = sum(w * lam**k for lam, w in zip(part.distinct, part.modal_weights))
        assert abs(recon.real - y.values[k]) < 1e-8
        assert abs(recon.imag) < 1e-8


# =========================================================================
# Jordan constructions
# =========================================================================


def test_full_chain_counts_its_whole_depth():
    case = make_jordan_case([(0.5, 2)], seed=0)
    assert case.n == 2 and case.expected_rank == 2
    assert dict(zip(case.distinct, case.m_tilde)) == {0.5 + 0j: 2}


def test_zeroing_the_top_weight_shortens_the_chain():
    case = make_jordan_case([(0.5, 2)], zero_weights=[(0.5, 1)], seed=0)
    assert case.expected_rank == 1
    assert dict(zip(case.distinct, case.m_tilde)) == {0.5 + 0j: 1}


def test_zeroing_every_weight_is_infeasible():
    with pytest.raises(InfeasiblePatternError):
        make_jordan_case([(1.0, 1)], zero_weights=[(1.0, 0)], seed=0)


def test_complex_blocks_require_their_conjugate_partner():
    with pytest.raises(ValueError):
        make_jordan_case([(0.5 + 0.5j, 1)], seed=0)
    case = make_jordan_case([(0.5 + 0.5j, 1), (0.5 - 0.5j, 1)], seed=0)
    assert case.expected_rank == 2
    assert np.allclose(np.sort_complex(np.linalg.eigvals(case.G)), [0.5 - 0.5j, 0.5 + 0.5j])


def test_zero_patterns_are_restricted_to_real_blocks():
    with pytest.raises(ValueError):
        make_jordan_case(
            [(0.4 + 0.3j, 1), (0.4 - 0.3j, 1)],
            zero_weights=[(0.4 + 0.3j, 0)],
            seed=0,
        )


def test_jordan_similarity_is_kept_well_conditioned():
    for seed in range(5):
        case = make_jordan_case([(0.8, 3), (0.3, 2)], seed=seed)
        assert np.linalg.cond(case.V) <= 100.0


@pytest.mark.parametrize("seed", range(10))
def test_jordan_cases_round_trip_through_the_estimator(seed):
    case = make_jordan_case([(0.9, 2), (0.4, 1)], zero_weights=[(0.9, 1)], seed=seed)
    y = simulate_dt(case.G, case.setup, K=2 * case.n)
    assert build_hankel(y.values).rank == case.expected_rank == 2
    est = estimate_spectrum(y, cluster_tol=1e-4)
    report = match_spectra(est.roots, [(0.9 + 0j, 1), (0.4 + 0j, 1)], tol=1e-8)
    assert report.matched_all


def test_jordan_spectrum_matches_the_requested_blocks():
    case = make_jordan_case([(0.7, 3)], seed=2)
    assert np.array_equal(np.diag(case.J), [0.7, 0.7, 0.7])
    assert np.array_equal(np.diag(case.J, 1), [1.0, 1.0])
    # a defective triple perturbs like eps^(1/3) under similarity round-off
    lams = np.linalg.eigvals(case.G)
    assert abs(np.mean(lams) - 0.7) < 1e-12
    assert np.max(np.abs(lams - 0.7)) < 1e-4


# =========================================================================
# Spectrum matching
# =========================================================================


def test_matching_identical_spectra():
    truth = [(2 + 0j, 1), (1 + 0j, 2)]
    report = match_spectra(truth, truth, tol=1e-12)
    assert report.matched_all and report.max_error == 0.0
    assert report.unmatched_true == [] and report.unmatched_estimated == []


def test_matching_is_order_invariant():
    a = [(1 + 0j, 1), (-1 + 0j, 1)]
    b = [(-1 + 0j, 1), (1 + 0j, 1)]
    assert match_spectra(a, b, tol=1e-12).matched_all


def test_matching_reports_dropped_modes():
    report = match_spectra([(2 + 0j, 1)], [(2 + 0j, 1), (3 + 0j, 1)], tol=1e-9)
    assert not report.matched_all
    assert report.unmatched_true == [3 + 0j]


def test_matching_reports_spurious_modes():
    report = match_spectra([(2 + 0j, 1), (5 + 0j, 1)], [(2 + 0j, 1)], tol=1e-9)
    assert not report.matched_all
    assert report.unmatched_estimated == [5 + 0j]


def test_matching_respects_multiplicity():
    report = match_spectra([(2 + 0j, 1)], [(2 + 0j, 2)], tol=1e-9)
    assert not report.matched_all


@pytest.mark.parametrize(
    "estimated, truth, unmatched_estimated, unmatched_true",
    [
        ([], [(2 + 0j, 1), (-1j, 2)], [], [2 + 0j, -1j, -1j]),
        ([(0.5 + 0j, 2)], [], [0.5 + 0j, 0.5 + 0j], []),
        ([], [], [], []),
    ],
    ids=["empty-estimate", "empty-truth", "both-empty"],
)
def test_an_empty_side_leaves_every_value_unmatched(estimated, truth, unmatched_estimated, unmatched_true):
    report = match_spectra(estimated, truth, tol=1e-9)
    assert report.pairs == []
    assert report.unmatched_estimated == unmatched_estimated
    assert report.unmatched_true == unmatched_true
    assert (report.max_error, report.mean_error) == (0.0, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("estimated, truth", [
    ([1.79e308], [-4e307]),
    ([0.5, 1.79e308, -1.7e308], [-4e307, 0.5 + 1e-12j]),
    ([1.79e308], [-1.79e308, 1.0, 2.0]),
])
def test_a_distance_beyond_the_double_range_is_unmatched_on_both_sides(estimated, truth):
    # the distance overflows to inf, beyond every tol, and no distance is ever summed
    report = match_spectra(estimated, truth, tol=1e300)
    finite = [(0.5 + 0j, 0.5 + 1e-12j, 1e-12)] if 0.5 in estimated else []
    assert report.pairs == finite
    assert report.unmatched_estimated == [complex(v) for v in estimated if v != 0.5]
    assert report.unmatched_true == [complex(v) for v in truth if v != 0.5 + 1e-12j]


FINITE_COMPLEX = st.builds(complex, FINITE_DOUBLES, FINITE_DOUBLES)
SPECTRA = st.lists(FINITE_COMPLEX, max_size=6) | st.lists(st.tuples(FINITE_COMPLEX, st.integers(1, 3)), max_size=4)


@pytest.mark.filterwarnings("error")
@given(SPECTRA, SPECTRA, st.sampled_from([0.0, 1e-9, 1e200]) | st.floats(0.0, 1.7976931348623157e308))
@settings(max_examples=200, deadline=None)
@example([1.7976931348623157e308, -1.7976931348623157e308], [complex(-1.7976931348623157e308, 1.7976931348623157e308)],
         1.7976931348623157e308)
def test_every_finite_matching_pairs_each_value_once_within_the_tolerance(estimated, truth, tol):
    report = match_spectra(estimated, truth, tol)
    est, true = _expand_values(estimated, "estimated"), _expand_values(truth, "truth")
    # each value is paired once or left unmatched, and no pair is farther apart than tol
    assert sorted(map(_spectral_order, [e for e, _, _ in report.pairs] + report.unmatched_estimated)) == sorted(
        map(_spectral_order, est.tolist()))
    assert sorted(map(_spectral_order, [t for _, t, _ in report.pairs] + report.unmatched_true)) == sorted(
        map(_spectral_order, true.tolist()))
    assert all(0.0 <= d <= tol for _, _, d in report.pairs)


def test_matching_accepts_estimates_and_flat_lists():
    y = simulate_dt(SWAP, ObservationSetup(x0=[1, 0], c=[1, 0]), K=4)
    est = estimate_spectrum(y)
    report = match_spectra(est.roots, [1 + 0j, -1 + 0j], tol=1e-9)
    assert report.matched_all and report.max_error <= 1e-12


def test_every_estimate_is_paired_within_tol_where_the_least_sum_pairing_drops_one():
    # pairing each estimate with the nearer true value costs 0.1 + 1.118 in
    # sum, and its second pair lies beyond tol; the other pairing fits
    report = match_spectra([-1.3 - 1.6j, -0.9 - 1.9j], [-0.9 - 1.8j, -0.2 - 1.4j], 1.0)
    assert report.matched_all
    assert [(e, t) for e, t, _ in report.pairs] == [(-1.3 - 1.6j, -0.9 - 1.8j), (-0.9 - 1.9j, -0.2 - 1.4j)]
    assert [d for _, _, d in report.pairs] == pytest.approx([0.447213595499958, 0.8602325267042626], rel=1e-15)


def most_pairs_at_the_least_largest_distance(est, true, tol):
    """By trying every partial matching: the most pairs within ``tol`` one
    can hold, and the least largest distance among those that hold that many."""
    cost = np.abs(np.subtract.outer(np.asarray(est, dtype=complex), np.asarray(true, dtype=complex)))
    for k in range(min(cost.shape), 0, -1):
        largest = [d for rows in itertools.combinations(range(cost.shape[0]), k)
                   for cols in itertools.permutations(range(cost.shape[1]), k)
                   if (d := cost[rows, cols].max()) <= tol]
        if largest:
            return k, min(largest)
    return 0, 0.0


# a grid of half-integers gives exact ties of distance, to the nearest value and beyond
TIED_OR_NOT = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2)).map(lambda z: z / 2) | st.complex_numbers(
    max_magnitude=3.0)


@given(st.lists(TIED_OR_NOT, max_size=5), st.lists(TIED_OR_NOT, max_size=5),
       st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 10.0))
@settings(max_examples=300, deadline=None)
@example([-1.3 - 1.6j, -0.9 - 1.9j], [-0.9 - 1.8j, -0.2 - 1.4j], 1.0)
@example([0j, 0j, 0.5], [0j, 0.5, 0.5], 0.0)
def test_the_matching_holds_the_most_pairs_within_tol_at_the_least_largest_distance(est, true, tol):
    report = match_spectra(est, true, tol)
    assert (len(report.pairs), report.max_error) == most_pairs_at_the_least_largest_distance(est, true, tol)
    rest = iter(map(complex, est))  # and the pairs keep the order of the estimates
    assert all(any(e == r for r in rest) for e, _, _ in report.pairs)


def test_an_augmenting_path_longer_than_the_recursion_limit_is_followed():
    # every estimate but the last sits nearest its own true value, a quarter
    # away; the last reaches true value 0 alone, so all the others must move
    # one place up, and the one augmenting path runs through every row
    n = sys.getrecursionlimit() + 100
    est = np.append(np.arange(n) + 0.25, -0.25)
    report = match_spectra(est, np.arange(n + 1.0), 0.8)
    assert report.matched_all and report.max_error == 0.75
    assert [t for _, t, _ in report.pairs] == [complex(j) for j in range(1, n + 1)] + [0j]


def scipy_matching_size(cost: np.ndarray, bound: float) -> int:
    """The size of a maximum matching of the pairs with ``cost <= bound``, by
    scipy's Hopcroft-Karp."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    if not cost.size:
        return 0
    rows = maximum_bipartite_matching(csr_matrix(cost <= bound), perm_type="column")
    return int(np.count_nonzero(rows >= 0))


# beyond the brute force's reach: crowded free values, and a coarse grid of exact ties
@pytest.mark.parametrize("kind", ["free", "tied"])
@pytest.mark.parametrize("shape", [(40, 40), (25, 40), (40, 25)], ids=["40x40", "25x40", "40x25"])
def test_larger_matchings_hold_as_many_pairs_as_scipys_at_the_least_largest_distance(shape, kind):
    rng = np.random.default_rng(sum(shape))
    if kind == "free":
        est, true = (rng.uniform(0.0, 1.0, (k, 2)) @ [1.0, 1j] for k in shape)
        tol = 0.15
    else:
        est, true = (rng.integers(-3, 4, (k, 2)) @ [0.5, 0.5j] for k in shape)
        tol = 0.5
    report = match_spectra(est, true, tol)
    cost = np.abs(np.subtract.outer(est, true))
    assert len(report.pairs) == scipy_matching_size(cost, tol) > 0
    # the largest distance keeps that many pairs, and nothing below it does
    assert scipy_matching_size(cost, report.max_error) == len(report.pairs)
    assert scipy_matching_size(cost, np.nextafter(report.max_error, -np.inf)) < len(report.pairs)
    assert all(d <= tol for _, _, d in report.pairs)


@pytest.mark.parametrize("near, size", [
    pytest.param([], 0, id="no-rows"),
    pytest.param([[], [0], []], 1, id="rows-with-no-columns"),
    pytest.param([[0, 1], [0]], 2, id="one-augmenting-path"),
    pytest.param([[0], [0], [0, 1]], 2, id="a-column-every-row-wants"),
    pytest.param([[0, 1], [1, 2], [2, 0], [0]], 3, id="a-path-back-round-a-cycle"),
])
def test_a_maximum_matching_gives_each_column_one_row_that_lists_it(near, size):
    row_of = oracle._maximum_matching(near)
    assert len(row_of) == len(set(row_of.values())) == size
    assert all(j in near[i] for j, i in row_of.items())
