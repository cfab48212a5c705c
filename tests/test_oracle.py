"""Ground-truth machinery: eigenstructure, PBH tests, Jordan cases, matching."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from helpers import InfeasiblePatternError, hidden_mode_system, make_jordan_case, orthogonal
from spectral_scope import (
    ObservationSetup,
    build_hankel,
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
from spectral_scope.clustering import cluster_indices
from spectral_scope.oracle import _assignment, _shortest_augmenting_path

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


CHAIN3 = np.array([[0.5, 1.0, 0.0], [0.0, -0.4, 1.0], [0.3, 0.0, 0.2]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x0, c", [
    ([1e300] * 3, [1e300, 0.0, 0.0]),  # the weights overflow
    ([1e308, -1e308, 1e308], [1.0, 1.0, 1.0]),  # w_i^T x0 overflows
])
def test_an_infinite_modal_weight_or_data_scale_is_an_overflow_error(x0, c):
    assert len(observable_partition(CHAIN3, c=[1.0, 0.0, 0.0], x0=[1.0] * 3).missing) == 0
    with pytest.raises(OverflowError, match="double range"):
        observable_partition(CHAIN3, c=c, x0=x0)


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


def test_a_vector_of_the_wrong_length_is_named():
    with pytest.raises(ValueError, match=r"^x0 and c must be equal-length vectors, got \(3,\) and \(2,\)$"):
        observable_partition(CHAIN3, c=[1.0, 0.0], x0=[1.0] * 3)
    with pytest.raises(ValueError, match="^matrix is 3x3 but the setup has 2 components$"):
        observable_partition(CHAIN3, c=[1.0, 0.0], x0=[1.0] * 2)
    with pytest.raises(ValueError, match=r"^c\[0\] is not finite: nan$"):
        observable_partition(np.eye(2), c=[np.nan, 1.0], x0=[1.0, 1.0])
    with pytest.raises(ValueError, match=r"^matrix\[0, 0\] is not finite: nan$"):
        full_spectrum([[np.nan, 0.0], [0.0, 1.0]])


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
    for v in distinct:
        s = np.linalg.svd(np.vstack([G - v * np.eye(n), c[None, :]]), compute_uv=False)
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


def test_matching_accepts_estimates_and_flat_lists():
    y = simulate_dt(SWAP, ObservationSetup(x0=[1, 0], c=[1, 0]), K=4)
    est = estimate_spectrum(y)
    report = match_spectra(est.roots, [1 + 0j, -1 + 0j], tol=1e-9)
    assert report.matched_all and report.max_error <= 1e-12


def lsap_outcome(solve, cost):
    """What an assignment solver returns for ``cost``, or the type it raises."""
    try:
        rows, cols = solve(cost)
    except Exception as exc:  # compared by type against scipy's
        return type(exc)
    return rows.dtype, rows.tolist(), cols.dtype, cols.tolist()


ONE_ULP = 2.0**-52


@st.composite
def spectrum_costs(draw):
    """``|est - true|`` over conjugate pairs and repeated eigenvalues, the
    estimate a shuffled, perturbed, truncated or padded copy of the truth."""
    true = []
    for z in draw(st.lists(st.complex_numbers(max_magnitude=3.0), min_size=1, max_size=3)):
        copies = draw(st.integers(1, 2))
        true += [z] * copies + ([z.conjugate()] * copies if z.imag else [])
    noise = st.sampled_from([0.0, 1e-9, -1e-9, 1e-9j, ONE_ULP])
    est = [t + draw(noise) for t in draw(st.permutations(true))]
    est = est[: draw(st.integers(1, len(est)))] + draw(st.lists(st.sampled_from(true), max_size=2))
    return np.abs(np.array(est)[:, None] - np.array(true)[None, :])


@st.composite
def cost_matrices(draw):
    """Square and rectangular costs, rich in exact ties, near-ties and
    infinite (forbidden) pairings."""
    n, m = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    elements = draw(
        st.sampled_from(
            [
                st.floats(-10.0, 10.0),
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),  # duplicated entries, equal row minima
                st.integers(0, 3).map(lambda k: 1.0 + k * ONE_ULP),
                st.sampled_from([0.0, 1.0, 1.0, np.inf]),  # feasible or not
            ]
        )
    )
    cost = draw(arrays(float, (n, m), elements=elements))
    if m >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(m)))[:2]
        cost[:, j] = cost[:, i]
    return cost


@given(st.one_of(cost_matrices(), spectrum_costs()))
@settings(max_examples=400, deadline=None)
@example(np.array([[1.0, 2.0], [2.0, 1.0]]))
@example(np.array([[1.0, 1.0], [2.0, 3.0]]))
@example(np.array([[1.0, 2.0, 3.0], [1.0, 5.0, 4.0]]))
@example(np.array([[1.0], [0.5], [2.0]]))
def test_assignment_returns_what_scipy_returns(cost):
    assert lsap_outcome(_assignment, cost) == lsap_outcome(linear_sum_assignment, cost)


@given(st.one_of(cost_matrices(), spectrum_costs()))
@settings(max_examples=400, deadline=None)
def test_the_full_solve_returns_what_scipy_returns(cost):
    # also the costs that _assignment's nearest-neighbour path takes
    want = lsap_outcome(linear_sum_assignment, cost)
    assert lsap_outcome(_shortest_augmenting_path, cost) == want


def tied_spectrum_cost(seed):
    """|est - true| for a random truth of conjugate pairs and an estimate that
    permutes, repeats and perturbs it, with one column copied onto another."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 13))
    z = rng.normal(size=(m + 1) // 2) + 1j * rng.normal(size=(m + 1) // 2)
    true = np.concatenate([z, z.conj()])[:m]
    est = np.resize(true[rng.permutation(m)], int(rng.integers(1, 13)))
    est = est + rng.choice([0.0, 1e-9, 1e-9j, ONE_ULP], est.size)
    cost = np.abs(est[:, None] - true[None, :])
    if m >= 2:
        i, j = rng.permutation(m)[:2]
        cost[:, j] = cost[:, i]
    return cost


# the first five of 20 000 seeds whose exact ties make the pairing depend on
# how the dual updates round (``v[j] -= min_val - spc[j]``, not term by term)
@pytest.mark.parametrize("seeds", [range(2000), [3000, 4742, 7021, 8440, 15805]])
def test_the_full_solve_agrees_with_scipy_on_tied_spectrum_costs(seeds):
    for seed in seeds:
        cost = tied_spectrum_cost(seed)
        want = lsap_outcome(linear_sum_assignment, cost)
        assert lsap_outcome(_shortest_augmenting_path, cost) == want, seed


@pytest.mark.parametrize("shape", [(40, 40), (25, 40), (40, 25)])
def test_the_full_solve_agrees_with_scipy_on_larger_costs(shape):
    rng = np.random.default_rng(sum(shape))
    for cost in (rng.uniform(0.0, 1.0, shape), rng.integers(0, 4, shape).astype(float)):
        want = lsap_outcome(linear_sum_assignment, cost)
        assert lsap_outcome(_shortest_augmenting_path, cost) == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_assignment_fails_like_scipy_on_non_finite_costs(bad, shape):
    cost = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
    for where in np.ndindex(*shape):
        c = cost.copy()
        c[where] = bad
        want = lsap_outcome(linear_sum_assignment, c)
        assert lsap_outcome(_assignment, c) == lsap_outcome(_shortest_augmenting_path, c) == want
