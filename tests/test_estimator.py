"""The Hankel pipeline: rank detection, coefficients, roots, deconvolution, logs."""

from __future__ import annotations

import json
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import FINITE_DOUBLES, hidden_mode_system, make_jordan_case
from spectral_scope import (
    CT,
    InsufficientDataError,
    LogSingularRootError,
    NodeDynamics,
    ObservationSetup,
    OutputSequence,
    SingularDeconvolutionError,
    SpectrumEstimate,
    deconvolve_sigma,
    detect_rank_online,
    estimate_spectrum,
    match_spectra,
    nu_sequence,
    observable_partition,
    run_scenario,
    simulate_ct_sampled,
    simulate_dt,
    simulate_dt_networked,
)
from spectral_scope import estimator
from spectral_scope.clustering import _centroid, cluster_complex, cluster_indices, enforce_conjugate_pairs
from spectral_scope.dynamics import matrix_exponential
from spectral_scope.estimator import (
    _REFINE_SWEEPS,
    CharacteristicPoly,
    _exact_residual,
    _polish_roots,
    _residual_rows,
    build_hankel,
    geometric_prescale,
    roots_with_multiplicity,
    solve_coefficients,
)
from spectral_scope.scenarios import SCENARIOS, sweep

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def wide_floats(lo: int, hi: int):
    """Signed doubles m * 2^e with m in [0.5, 1) and e drawn from [lo, hi]."""
    return st.builds(
        lambda m, e, neg: math.ldexp(-m if neg else m, e),
        st.floats(0.5, 1.0, exclude_max=True),
        st.integers(lo, hi),
        st.booleans(),
    )


# =========================================================================
# Hankel construction and rank
# =========================================================================


def test_constant_sequence_fills_a_rank_one_hankel():
    h = build_hankel([3.0, 3.0, 3.0, 3.0])
    assert np.array_equal(h.matrix, [[3.0, 3.0], [3.0, 3.0]])
    assert h.rank == 1 and h.scale_rho == 1.0


def test_alternating_sequence_fills_the_identity():
    h = build_hankel([1.0, 0.0, 1.0, 0.0])
    assert np.array_equal(h.matrix, np.eye(2))
    assert h.rank == 2
    assert np.max(np.abs(h.singular_values - 1.0)) < 1e-15


def test_defective_mode_still_raises_the_rank():
    # outputs of the 2x2 block at 0.5: multiplicity shows up as rank 2
    h = build_hankel([0.0, 1.0, 1.0, 0.75])
    assert np.array_equal(h.matrix, [[0.0, 1.0], [1.0, 1.0]])
    assert h.rank == 2


def test_zero_sequence_has_rank_zero():
    h = build_hankel([0.0, 0.0, 0.0, 0.0, 0.0])
    assert h.rank == 0


def test_prescaling_divides_out_geometric_growth():
    rho, scaled = geometric_prescale([1.0, 2.0, 4.0, 8.0])
    assert rho == 2.0
    assert np.array_equal(scaled, np.ones(4))
    h = build_hankel([1.0, 2.0, 4.0, 8.0], prescale=True)
    assert h.scale_rho == 2.0


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=21))
@settings(max_examples=50, deadline=None)
def test_hankel_structure_and_rank_bounds(values):
    y = np.asarray(values)
    h = build_hankel(y)
    r_max = (len(y) + 1) // 2
    assert h.matrix.shape == (r_max, r_max)
    for i in range(r_max):
        for j in range(r_max):
            assert h.matrix[i, j] == y[i + j]
    assert 0 <= h.rank <= r_max
    if 0 < h.rank < r_max:
        s = h.singular_values
        assert np.all(s[h.rank :] <= h.rank_tolerance * s[0])


def scipy_hankel(values, size):
    return scipy.linalg.hankel(values[:size], values[size - 1 : 2 * size - 1])


HANKEL_SAMPLES = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


def overflows(matrix) -> bool:
    """Whether the matrix's largest singular value lies beyond the doubles."""
    return not math.isfinite(np.linalg.svd(matrix, compute_uv=False)[0])


def rank_within_range(matrix, rel_tol) -> int:
    """The rank rule on ``matrix / 2^64``, whose singular values are all finite."""
    s = np.linalg.svd(np.ldexp(matrix, -64), compute_uv=False)
    return int(np.count_nonzero(s > rel_tol * s[0])) if s[0] > 0 else 0


@given(st.lists(HANKEL_SAMPLES, min_size=1, max_size=22))
@settings(max_examples=100, deadline=None)
@example([0.5])
@example([-0.0, 5e-324, 1.0, -2.2250738585072014e-308])
@example([1.0, -0.0, 3e-310, -5e-324, 2.0, -0.0, 7.0])
@example([1e308, 0.0, 0.0])
@example([1.7e308] * 6)
def test_the_hankel_matrix_equals_scipys_bit_for_bit(values):
    y = np.asarray(values)
    want = scipy_hankel(y, (len(y) + 1) // 2)
    h = build_hankel(y)
    assert h.matrix.tobytes() == want.tobytes()
    if overflows(want):  # a sigma_1 beyond the doubles once gave a refusal, and before that rank 0
        assert h.rank == rank_within_range(want, h.rank_tolerance) >= 1


@given(st.lists(HANKEL_SAMPLES, min_size=1, max_size=30), st.sampled_from([None, 3, 8]))
@settings(max_examples=50, deadline=None)
@example([-0.0, 5e-324, -5e-324, 1.0, 2.0, 4.0], None)
@example([1e308, 0.0, 0.0, 0.0, 0.0], None)
@example([1.0, 1.7e308, 1.7e308, 1.7e308, 1.7e308], None)
def test_online_detection_builds_scipys_hankel_matrices(values, n_hint):
    original = estimator._hankel_rank

    def checked(vals, size, rel_tol):
        want = scipy_hankel(vals, size)
        result = original(vals, size, rel_tol)
        assert result[0].tobytes() == want.tobytes()
        if overflows(want):
            assert result[2] == rank_within_range(want, result[3]) >= 1
        return result

    with mock.patch.object(estimator, "_hankel_rank", side_effect=checked) as spy:
        detect_rank_online(iter(values), n_hint=n_hint)
    assert spy.called


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values, root", [([1.7e308] * 6, 1.0), ([1.7e308, -1.7e308] * 3, -1.0)])
def test_a_record_near_the_top_of_the_double_range_is_answered_unscaled(values, root):
    # its sigma_1 lies beyond the doubles: the rank and the solve are those of
    # the system scaled by a power of two, and so is the residual's ratio
    est = estimate_spectrum(values, prescale=False)
    assert (est.roots, est.residual) == ([(complex(root), 1)], 0.0)


@pytest.mark.filterwarnings("error")
def test_a_residual_whose_norms_overflow_is_the_ratio_of_the_scaled_system():
    # both norms were inf, and inf / inf = nan failed the estimate's own check
    y = [3e200, 1e200, 2e200, 5e200, 1e200, 7e200]
    assert math.isfinite(estimate_spectrum(y, prescale=False).residual)
    h = build_hankel(y)
    p = solve_coefficients(h)
    H, rhs = np.ldexp(h.matrix, -700), np.ldexp(y[h.rank:], -700)
    assert p.residual == pytest.approx(np.linalg.norm(H @ p.coefficients + rhs) / np.linalg.norm(rhs), rel=1e-12)


# =========================================================================
# Online rank detection
# =========================================================================


def test_online_rank_stops_after_three_constant_samples():
    det = detect_rank_online(iter([3.0] * 50))
    assert (det.rank, len(det.values), det.stabilized) == (1, 3, True)


def test_online_rank_of_zero_stream_is_zero():
    det = detect_rank_online(iter([0.0] * 50))
    assert (det.rank, len(det.values)) == (0, 3)
    assert estimate_spectrum(det.values).roots == []


def test_online_rank_two_modes_consumes_at_most_five():
    y = simulate_dt(SWAP, ObservationSetup(x0=[1, 0], c=[1, 0]), K=8)
    det = detect_rank_online(iter(y.values))
    assert det.rank == 2 and len(det.values) <= 5


def test_online_rank_flags_a_dried_up_stream():
    rng = np.random.default_rng(8)
    G = rng.standard_normal((3, 3)) * 0.5
    y = simulate_dt(G, ObservationSetup(x0=rng.uniform(0, 1, 3), c=rng.uniform(0, 1, 3)), K=4)
    det = detect_rank_online(iter(y.values))
    assert not det.stabilized
    assert len(det.values) == 4


@pytest.mark.parametrize("seed", range(10))
def test_online_prefix_reproduces_the_batch_spectrum(seed):
    rng = np.random.default_rng(900 + seed)
    G, setup, _, _ = hidden_mode_system(7, rng)
    y = simulate_dt(G, setup, K=14)
    det = detect_rank_online(iter(y.values), n_hint=7)
    assert len(det.values) <= 14
    online = estimate_spectrum(det.values)
    batch = estimate_spectrum(y)
    report = match_spectra(online.roots, batch.roots, tol=1e-10)
    assert report.matched_all and report.max_error <= 1e-10


# =========================================================================
# Coefficient solve
# =========================================================================


def test_coefficients_of_the_alternating_sequence():
    h = build_hankel([1.0, 0.0, 1.0, 0.0])
    p = solve_coefficients(h)
    assert len(p.coefficients) == 2
    assert np.max(np.abs(p.coefficients - [-1.0, 0.0])) < 1e-14
    assert p.residual < 1e-14


def test_coefficients_of_the_constant_sequence():
    p = solve_coefficients(build_hankel([3.0, 3.0, 3.0, 3.0]))
    assert len(p.coefficients) == 1
    assert abs(p.coefficients[0] + 1.0) < 1e-14


def test_coefficients_of_the_defective_block():
    p = solve_coefficients(build_hankel([0.0, 1.0, 1.0, 0.75]))
    assert np.max(np.abs(p.coefficients - [0.25, -1.0])) < 1e-14


def fraction_residual(raw, rho, x) -> list[Fraction]:
    r = len(x)
    S = [Fraction(v) / Fraction(rho) ** k for k, v in enumerate(raw)]
    xf = [Fraction(*v.as_integer_ratio()) for v in x]
    return [S[r + i] + sum(S[i + j] * xj for j, xj in enumerate(xf)) for i in range(r)]


@st.composite
def residual_cases(draw):
    r = draw(st.integers(1, 12))
    raw = draw(st.lists(wide_floats(-1000, 900), min_size=2 * r, max_size=2 * r))
    rho = draw(st.one_of(st.just(1.0), st.floats(1.0, 1e3)))
    hi = draw(st.lists(wide_floats(-30, 30), min_size=r, max_size=r))
    tail = draw(st.lists(wide_floats(-1, -1), min_size=r, max_size=r))
    # long double x whose low part sits 60-62 bits below its leading bit
    x = np.array(hi, dtype=np.longdouble)
    x = x + x * np.array(tail, dtype=np.longdouble) * np.longdouble(2.0) ** -60
    if draw(st.booleans()):
        # near-solution regime of the refinement: each right-hand sample
        # cancels its row to within one rounding, so the low parts of x count
        for i in range(r):
            raw[r + i] = 0.0
            try:
                raw[r + i] = -float(fraction_residual(raw[: 2 * r], rho, x)[i] * Fraction(rho) ** (r + i))
            except OverflowError:
                assume(False)
    return raw, rho, x


@given(residual_cases())
@settings(max_examples=150, deadline=None)
def test_refinement_residual_matches_rational_arithmetic_bit_for_bit(case):
    raw, rho, x = case
    got = _exact_residual(_residual_rows(np.array(raw), rho, len(x)), x)
    want = [float(v) for v in fraction_residual(raw, rho, x)]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


@pytest.mark.parametrize("e", [-1000, -1020, -1040])
def test_the_residual_takes_every_bit_of_a_tiny_long_double_iterate(e):
    # x_0's low bits sit 63 places below its leading bit; from e = -1012 down
    # they lie under the smallest subnormal double, so a hi/lo double split
    # of x would drop them, while the long double's own integers keep them
    ld = np.longdouble
    x = np.array([ld(2.0) ** e * (1 + 3 * ld(2.0) ** -63), -(ld(2.0) ** e)], dtype=ld)
    hi = x.astype(float).astype(ld)
    assert np.array_equal(hi + (x - hi).astype(float).astype(ld), x) == (e > -1012)
    raw = [2.0**100, 2.0**100, 0.0, 0.0]
    got = _exact_residual(_residual_rows(np.array(raw), 1.0, 2), x)
    want = [float(v) for v in fraction_residual(raw, 1.0, x)]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    assert got[0] == 3.0 * 2.0 ** (e + 37)  # 2^100 (x_0 + x_1), exactly


def solve_with_every_sweep(h):
    """solve_coefficients as it was before the repeat stop: all sweeps always run."""
    r = h.rank
    y = h.y_scaled
    Hr = h.matrix[:r, :r]
    rhs = -y[r : 2 * r]
    U, s, Vt = np.linalg.svd(Hr)
    keep = s > h.rank_tolerance * s[0] if s[0] > 0 else np.zeros_like(s, dtype=bool)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]

    def apply_pinv(v):
        return Vt.T @ (inv * (U.T @ v))

    alpha = apply_pinv(rhs)
    alpha_hi = None
    if np.any(keep) and np.all(np.isfinite(alpha)):
        rows = _residual_rows(h.y_raw, h.scale_rho, r)
        best, best_norm = np.asarray(alpha, dtype=np.longdouble), float("inf")
        x = best
        for sweep in range(_REFINE_SWEEPS + 1):
            res = _exact_residual(rows, x)
            rnorm = float(np.linalg.norm(res))
            if rnorm < best_norm:
                best, best_norm = x, rnorm
            if rnorm == 0.0 or sweep == _REFINE_SWEEPS:
                break
            x = x - apply_pinv(res).astype(np.longdouble)
            if not np.all(np.isfinite(x.astype(float))):
                break
        alpha_hi = best
        alpha = best.astype(float)
    defect = float(np.linalg.norm(Hr @ alpha - rhs))
    rhs_norm = float(np.linalg.norm(rhs))
    residual = defect / rhs_norm if rhs_norm > 0 else defect
    smallest_kept = s[keep][-1] if np.any(keep) else 0.0
    condition = float(s[0] / smallest_kept) if smallest_kept > 0 else float("inf")
    return alpha, alpha_hi, residual, condition


def same_long_doubles(a, b) -> bool:
    # value and sign of every entry; never the padding bytes of an x87 long double
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def assert_same_solve(poly, want):
    alpha, alpha_hi, residual, condition = want
    assert poly.coefficients.tobytes() == alpha.tobytes()
    assert same_long_doubles(poly.coefficients_hi, alpha_hi)
    assert poly.residual.hex() == residual.hex()
    assert poly.condition.hex() == condition.hex()


@st.composite
def refinement_systems(draw):
    if draw(st.booleans()):
        # the preset outputs: ill-conditioned enough that refinement runs 2-7 sweeps
        name = draw(st.sampled_from(SCENARIOS))
        seq = run_scenario(name, draw(st.integers(0, 999)), keep_artifacts=True).artifacts.sequence
        assume(seq is not None)
        return seq.values * draw(st.sampled_from([1e-6, 1.0, 1e8])), draw(st.booleans())
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    growth = draw(st.sampled_from([0.3, 1.0, 2.5, 40.0]))
    A = rng.standard_normal((n, n)) * growth / math.sqrt(n)
    c, v = rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    y = []
    for _ in range(2 * n):
        y.append(float(c @ v))
        v = A @ v
    return np.array(y) * draw(st.sampled_from([1e-6, 1.0, 1e8])), draw(st.booleans())


@given(refinement_systems())
@settings(max_examples=150, deadline=None)
def test_refinement_gives_the_bits_of_running_every_sweep(case):
    y, prescale = case
    h = build_hankel(y, prescale=prescale)
    assume(h.rank > 0)
    assert_same_solve(solve_coefficients(h), solve_with_every_sweep(h))


def test_refinement_stops_at_the_first_repeated_iterate(monkeypatch):
    rng = np.random.default_rng(5)
    A = rng.uniform(0.0, 1.0, (6, 6))
    y = simulate_dt(A, ObservationSetup(x0=rng.uniform(0.0, 1.0, 6), c=np.ones(6)), K=12)
    h = build_hankel(y.values, prescale=True)
    want = solve_with_every_sweep(h)
    calls = []
    real = estimator._exact_residual
    monkeypatch.setattr(
        estimator, "_exact_residual", lambda *a: calls.append(1) or real(*a)
    )
    assert_same_solve(solve_coefficients(h), want)
    assert 1 < len(calls) < _REFINE_SWEEPS + 1


ENTRY_POINTS = {
    "dt": lambda y, **opts: estimate_spectrum(y, **opts),
    "dt-networked": lambda y, **opts: estimate_spectrum(OutputSequence(y, node=NodeDynamics.trivial()), **opts),
    "ct": lambda y, **opts: estimate_spectrum(OutputSequence(y, tau=1.0), **opts),
}


@pytest.mark.parametrize("mode", list(ENTRY_POINTS))
def test_ill_conditioned_solve_warns_but_returns(mode):
    lams = np.array([1.0, 1.0 + 1e-7, 1.0 + 2e-7])
    y = np.array([float(np.sum(lams**k)) for k in range(6)])
    # prescaling, on by default for ct, would cut the rank to 1 here
    est = ENTRY_POINTS[mode](y, rank_tolerance=1e-15, prescale=False)
    assert [w for w in est.warnings if "ill-conditioned" in w] == [
        "ill-conditioned coefficient solve; roots may be inaccurate"
    ]
    assert est.roots


# =========================================================================
# Root extraction
# =========================================================================


def test_roots_of_x_squared_minus_one():
    p = CharacteristicPoly(np.array([-1.0, 0.0]), 0.0, 1.0)
    roots = roots_with_multiplicity(p)
    assert sorted(roots, key=lambda vm: vm[0].real) == [(-1 + 0j, 1), (1 + 0j, 1)]


def test_double_root_clusters_to_multiplicity_two():
    p = CharacteristicPoly(np.array([0.25, -1.0]), 0.0, 1.0)
    roots = roots_with_multiplicity(p)
    assert len(roots) == 1
    value, mult = roots[0]
    assert mult == 2 and abs(value - 0.5) < 1e-6


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_prescale_power_beyond_the_double_range_is_divided_out_one_factor_at_a_time():
    # rho = 1e200, so rho^2 overflows while y_2 / rho^2 = 1e-100 does not
    rho, scaled = geometric_prescale([0.0, 1e200, 1e300])
    assert rho == 1e200
    assert scaled[:2].tolist() == [0.0, 1.0]
    assert abs(scaled[2] / 1e-100 - 1.0) < 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("prescale", [False, True])
def test_outputs_near_the_bottom_of_the_double_range_are_solved(prescale):
    # a singular value of 5e-324 used to give 1/s = inf and then a LinAlgError
    for y in ([5e-324] * 4, [2.0**-1060 * 0.5**k for k in range(6)]):
        est = estimate_spectrum(y, prescale=prescale)
        assert est.rank == 1
        assert abs(est.roots[0][0] - y[1] / y[0]) < 1e-12 and est.roots[0][1] == 1


def test_degree_one_root():
    p = CharacteristicPoly(np.array([-1.0]), 0.0, 1.0)
    assert roots_with_multiplicity(p) == [(1 + 0j, 1)]


def test_prescaled_roots_are_multiplied_back():
    est = estimate_spectrum([1.0, 2.0, 4.0, 8.0], prescale=True)
    assert est.scale_rho == 2.0
    assert len(est.roots) == 1 and abs(est.roots[0][0] - 2.0) < 1e-12


def polish_with_three_horner_calls(monic, raw):
    """_polish_roots as it was: p(z) evaluated afresh at the top of every step."""
    coeff = monic.astype(np.clongdouble)
    deriv = coeff[:-1] * np.arange(len(coeff) - 1, 0, -1, dtype=np.clongdouble)

    def horner(c, z):
        acc = c[0]
        for ck in c[1:]:
            acc = acc * z + ck
        return acc

    out = np.empty(len(raw), dtype=complex)
    for i, z0 in enumerate(raw):
        z = np.clongdouble(z0)
        pz = abs(horner(coeff, z))
        for _ in range(3):
            dz = horner(deriv, z)
            if dz == 0 or pz == 0:
                break
            step = horner(coeff, z) / dz
            cand = z - step
            pc = abs(horner(coeff, cand))
            if not np.isfinite(float(pc)) or pc >= pz:
                break
            z, pz = cand, pc
        out[i] = complex(z)
    return out


@st.composite
def polish_cases(draw):
    roots = draw(
        st.lists(
            st.one_of(
                st.integers(-3, 3).map(float),
                st.floats(-3.0, 3.0),
                st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.01, 3.0)),
            ),
            min_size=1,
            max_size=10,
        )
    )
    # a complex root brings its conjugate, so the coefficients are real
    full = [z for v in roots for z in ((v, v.conjugate()) if isinstance(v, complex) else (v,))]
    monic = np.real(np.poly(full))
    tails = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(monic), max_size=len(monic)))
    monic_hi = monic.astype(np.longdouble)
    monic_hi[1:] += monic_hi[1:] * np.array(tails[1:], dtype=np.longdouble) * np.longdouble(2.0) ** -58
    raw = np.atleast_1d(np.roots(monic))
    raw = raw * (1.0 + draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4])))
    return monic_hi, raw


@given(polish_cases())
@example((np.array([1.0, -3.0, 2.0], dtype=np.longdouble), np.array([2.0 + 0j, 1.0 + 0j])))
@example((np.array([1.0, 0.0, 0.0], dtype=np.longdouble), np.array([0j, 0j])))
@settings(max_examples=150, deadline=None)
def test_polish_gives_the_bits_of_three_horner_calls_per_step(case):
    monic_hi, raw = case
    got = _polish_roots(monic_hi, raw)
    assert got.tobytes() == polish_with_three_horner_calls(monic_hi, raw).tobytes()


def clusters_by_pairwise_loop(values, tol):
    """cluster_indices as it was: one Python test per pair, same union-find."""
    vals = np.asarray(values, dtype=complex)
    parent = list(range(len(vals)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            a, b = complex(vals[i]), complex(vals[j])
            if abs(a - b) <= tol * max(1.0, abs(a), abs(b)):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(vals)):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


H = 2.0**-10
NAN = float("nan")
INF = float("inf")
cluster_values = st.one_of(
    # a grid of step H: with tol = H or 5H, (H, 0) and (3H, 4H) apart are exact ties
    st.builds(lambda m, k: complex(m * H, k * H), st.integers(-8, 8), st.integers(-8, 8)),
    # moduli 1-16, with neighbours exactly tol = H times the larger modulus away
    st.builds(
        lambda e, m, neg: (-1.0 if neg else 1.0) * 2.0**e * (1.0 - m * H),
        st.integers(0, 4),
        st.integers(0, 2),
        st.booleans(),
    ),
    st.builds(complex, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    st.sampled_from(
        [complex(NAN, 0.0), complex(0.0, NAN), complex(NAN, NAN), complex(0.0, INF), complex(-INF, NAN)]
    ),
)


centroid_parts = st.one_of(
    st.sampled_from([0.0, -0.0, INF, -INF, NAN, 5e-324, -5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=False),
)


@given(
    st.lists(st.builds(complex, centroid_parts, centroid_parts), min_size=1, max_size=3),
    st.booleans(),
)
@example([complex(-0.0, 0.0)], False)
@example([complex(-0.0, -0.0)], True)
@example([complex(INF, 1.0)], True)
@example([complex(-INF, 0.0)], False)
@example([complex(1.7976931348623157e308, 1.0)] * 2, False)
@example([complex(1.7976931348623157e308, 0.0), complex(1.7976931348623157e308, 5e-324)], False)
@example([complex(-1e308, 0.0), complex(-1e308, 0.0)], True)
@settings(max_examples=300, deadline=None)
def test_centroid_gives_the_bits_of_np_mean(group, real):
    # every part whose sum stays in range keeps np.mean's bits; a part whose
    # finite values overflow the sum gets a finite mean within rounding of
    # the exact one instead of np.mean's inf or nan
    values = np.array([z.real for z in group]) if real else np.array(group, dtype=complex)
    with np.errstate(all="ignore"):  # np.mean of two or more values may overflow or meet inf - inf
        want, got = complex(values.mean()), _centroid(values)
    finite = np.isfinite(values).all()
    for w, g, part in ((want.real, got.real, values.real), (want.imag, got.imag, values.imag)):
        if finite and not math.isfinite(w):
            exact = [Fraction(float(x)) for x in part]
            assert math.isfinite(g)
            bound = sum(map(abs, exact)) * Fraction(2.0**-51) + Fraction(2.0**-1072)  # + 4 subnormal ulps
            assert abs(Fraction(g) - sum(exact) / len(exact)) <= bound
        else:
            assert g.hex() == w.hex()


@pytest.mark.filterwarnings("error")
def test_a_cluster_whose_sum_overflows_has_its_finite_mean():
    # np.mean of the two values would overflow its sum and warn
    assert cluster_complex([-1e308, -1e308], 1e-6) == [(complex(-1e308, 0.0), 2)]
    assert cluster_complex([complex(-1e308, 1.0), complex(-1e308, 3.0)], 1e-6) == [(complex(-1e308, 2.0), 2)]


@pytest.mark.filterwarnings("error")
def test_a_distance_beyond_the_double_range_is_never_near():
    # 1e308 - (-1e308) once overflowed with a numpy warning on its way to "not near"
    assert [g.tolist() for g in cluster_indices([1e308, -1e308, 1e308], 1e-8)] == [[0, 2], [1]]


def conjugate_pairs_by_partner_search(pairs, tol):
    """enforce_conjugate_pairs as it was: near-real values snap, then each value
    above the axis takes its nearest unused partner below it, and a partner
    within tol makes both the exact conjugate pair of their average."""
    snapped = [(complex(v.real, 0.0), m) if abs(v.imag) <= tol * max(1.0, abs(v)) else (complex(v), m)
               for v, m in pairs]
    pos = [i for i, (v, _) in enumerate(snapped) if v.imag > 0]
    neg = [i for i, (v, _) in enumerate(snapped) if v.imag < 0]
    out = list(snapped)
    used = set()
    for i in pos:
        v, m = snapped[i]
        best, best_d = None, np.inf
        for j in neg:
            if j not in used and (d := abs(v - snapped[j][0].conjugate())) < best_d:
                best, best_d = j, d
        if best is not None and best_d <= tol * max(1.0, abs(v)):
            used.add(best)
            avg = (v + snapped[best][0].conjugate()) / 2.0
            out[i], out[best] = (avg, m), (avg.conjugate(), snapped[best][1])
    out.sort(key=lambda vm: (-vm[0].real, -vm[0].imag))
    return out


@st.composite
def conjugation_closed_spectra(draw):
    """Distinct (value, multiplicity) pairs, closed under conjugation with equal
    multiplicities, shuffled: reals, and values off the axis with their
    conjugates, some 2^-1 to 2^-60 of their modulus from the axis."""
    parts = st.one_of(st.sampled_from([0.0, -0.0]), wide_floats(-1060, 996))  # |parts| < 1e300
    spectrum = {}
    for _ in range(draw(st.integers(0, 8))):
        x, m, kind = draw(parts), draw(st.integers(1, 4)), draw(st.sampled_from(["real", "off", "near"]))
        y = (0.0 if kind == "real" else abs(draw(parts)) if kind == "off"
             else math.ldexp(max(1.0, abs(x)), -draw(st.integers(1, 60))))
        z = complex(x, y)
        if z not in spectrum and (y == 0 or z.conjugate() not in spectrum):
            spectrum[z] = m
            if y:
                spectrum[z.conjugate()] = m
    return draw(st.permutations(list(spectrum.items())))


def spectrum_bits(pairs):
    """Each value's bits with its multiplicity. A zero real part of a value off
    the axis reads as +0.0: the partner search's average, (v + v) / 2.0, gave
    +0.0 there, since Python's complex division adds the parts' products."""
    return [((v.real + 0.0 if v.imag else v.real).hex(), v.imag.hex(), m) for v, m in pairs]


@given(conjugation_closed_spectra(), st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]))
@example([(complex(-0.0, 1.0), 1), (complex(-0.0, -1.0), 1)], 0.0)
@example([(complex(2.0, 2.0**-30), 3), (2.0 + 0j, 1), (complex(2.0, -(2.0**-30)), 3)], 1e-6)
@example([(complex(0.0, 1e-3), 2), (complex(0.0, -1e-3), 2)], 1e-3)  # exactly tol from the axis: it snaps
@settings(max_examples=300, deadline=None)
def test_conjugate_pairs_are_mirrored_with_the_bits_of_the_partner_search(pairs, tol):
    out = enforce_conjugate_pairs(pairs, tol)
    assert spectrum_bits(out) == spectrum_bits(conjugate_pairs_by_partner_search(pairs, tol))
    above = sorted((v.real.hex(), v.imag.hex(), m) for v, m in out if v.imag > 0)
    below = sorted((v.real.hex(), (-v.imag).hex(), m) for v, m in out if v.imag < 0)
    assert above == below
    assert all(v.imag.hex() != "-0x0.0p+0" for v, _ in out)
    assert sum(m for _, m in out) == sum(m for _, m in pairs)


@given(
    st.lists(cluster_values, max_size=12),
    st.sampled_from([0.0, H, 5 * H, 1e-6, 1e-3, 0.5]),
)
@example([0j, complex(3 * H, 4 * H)], 5 * H)
@example([16.0, 16.0 * (1.0 - H), 16.0 * (1.0 - 2 * H)], H)
@example([complex(NAN, 0.0), 0j, 1e-7 + 0j, complex(NAN, 0.0)], 1e-6)
@example([complex(NAN, 0.0), complex(0.0, INF)], 1e-6)  # a NaN modulus drops out of the max
# exact ties where np.abs of a complex rounds one ulp above Python's abs: once
# in the distance, once in the modulus
@example([0j, complex(0.1369616873214543, -0.2302132862361297)], 0.2678743379899948)
@example([complex(0.8150589076261312, 1.0447529482672286), complex(0.8137648868641012, 1.0447529482672286)], H)
@settings(max_examples=300, deadline=None)
def test_cluster_indices_matches_the_pairwise_loop(values, tol):
    got = [g.tolist() for g in cluster_indices(np.array(values, dtype=complex), tol)]
    assert got == clusters_by_pairwise_loop(values, tol)


# =========================================================================
# End-to-end discrete time
# =========================================================================


def test_swap_spectrum_is_plus_minus_one():
    y = simulate_dt(SWAP, ObservationSetup(x0=[1, 0], c=[1, 0]), K=4)
    est = estimate_spectrum(y)
    got = sorted(est.roots, key=lambda vm: vm[0].real)
    assert [m for _, m in got] == [1, 1]
    assert abs(got[0][0] + 1) < 1e-12 and abs(got[1][0] - 1) < 1e-12


def test_unobserved_diagonal_mode_is_never_reported():
    G = np.diag([2.0, 3.0])
    setup = ObservationSetup(x0=[0.7, 0.4], c=[1.0, 0.0])
    est = estimate_spectrum(simulate_dt(G, setup, K=4), prescale=True)
    assert len(est.roots) == 1 and abs(est.roots[0][0] - 2.0) < 1e-9
    oracle = observable_partition(G, setup.c, setup.x0)
    assert oracle.observable == [(2 + 0j, 1)]
    assert np.array_equal(oracle.missing, [3 + 0j])


def test_zero_output_gives_the_empty_spectrum():
    est = estimate_spectrum(np.zeros(8))
    assert est.roots == [] and est.rank == 0


@given(st.floats(0.05, 50.0), st.booleans())
@settings(max_examples=30, deadline=None)
def test_roots_are_invariant_to_output_scale(scale, flip):
    s = -scale if flip else scale
    rng = np.random.default_rng(14)
    G = rng.standard_normal((5, 5)) * 0.6
    y = simulate_dt(G, ObservationSetup(x0=rng.uniform(0, 1, 5), c=rng.uniform(0, 1, 5)), K=10)
    base = estimate_spectrum(y)
    scaled = estimate_spectrum(s * y.values)
    report = match_spectra(scaled.roots, base.roots, tol=1e-10)
    assert report.matched_all and report.max_error <= 1e-10


def scalable_record(spec) -> np.ndarray:
    """A preset's outputs, for (name, seed), or those of a random stable system, for (n, seed)."""
    kind, seed = spec
    if isinstance(kind, str):
        return run_scenario(kind, seed, keep_artifacts=True).artifacts.sequence.values
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((kind, kind))
    A *= rng.uniform(0.2, 0.98) / np.max(np.abs(np.linalg.eigvals(A)))
    c, v = rng.uniform(-1.0, 1.0, kind), rng.uniform(0.0, 1.0, kind)
    y = []
    for _ in range(2 * kind):
        y.append(float(c @ v))
        v = A @ v
    return np.array(y)


def estimate_bits(y) -> tuple:
    est = estimate_spectrum(y, prescale=False)
    roots = [(v.real.hex(), v.imag.hex(), m) for v, m in est.roots]
    return roots, est.residual.hex(), est.condition.hex(), est.warnings


@given(st.one_of(st.tuples(st.sampled_from(SCENARIOS), st.integers(0, 999)),
                 st.tuples(st.integers(1, 10), st.integers(0, 2**32 - 1))),
       st.integers(-600, 600))
@settings(max_examples=60, deadline=None)
@example(("fig1", 0), 600)
@example(("fig2", 1), -600)
@example((6, 3), 600)
@example((4, 8), -600)
def test_roots_are_invariant_to_output_scale_by_a_power_of_two(spec, e):
    # scaling by 2^e is exact for samples that stay normal doubles, and the
    # estimator scales each matrix by a power of two before its SVD, so no bit
    # may move; LAPACK rescales entries past about 1e+-130 by other factors
    y = scalable_record(spec)
    nonzero = np.abs(y[y != 0])
    assume(nonzero.size and math.ldexp(nonzero.min(), e) >= 2.0**-1022 and math.ldexp(nonzero.max(), e) < 2.0**1023)
    assert estimate_bits(np.ldexp(y, e)) == estimate_bits(y)


@pytest.mark.parametrize("seed", range(8))
def test_recovered_spectra_are_exactly_conjugate_symmetric(seed):
    rng = np.random.default_rng(40 + seed)
    n = int(rng.integers(3, 8))
    G = rng.standard_normal((n, n)) * 0.8
    y = simulate_dt(G, ObservationSetup(x0=rng.uniform(0, 1, n), c=rng.uniform(0, 1, n)), K=2 * n)
    roots = estimate_spectrum(y).roots
    for v, m in roots:
        if v.imag != 0.0:
            assert (v.conjugate(), m) in roots


@pytest.mark.parametrize("seed", range(6))
def test_prescaling_does_not_move_well_conditioned_roots(seed):
    rng = np.random.default_rng(60 + seed)
    n = int(rng.integers(2, 7))
    G = rng.standard_normal((n, n)) * 0.6
    y = simulate_dt(G, ObservationSetup(x0=rng.uniform(0, 1, n), c=rng.uniform(0, 1, n)), K=2 * n)
    on = estimate_spectrum(y, prescale=True)
    off = estimate_spectrum(y, prescale=False)
    report = match_spectra(on.roots, off.roots, tol=1e-8)
    assert report.matched_all


def test_detected_rank_counts_excited_chain_depths():
    full = make_jordan_case([(0.5, 2)], seed=1)
    damped = make_jordan_case([(0.5, 2)], zero_weights=[(0.5, 1)], seed=1)
    for case, expected in ((full, 2), (damped, 1)):
        y = simulate_dt(case.G, case.setup, K=2 * case.n)
        assert build_hankel(y.values).rank == expected == case.expected_rank


def test_spectrum_json_round_trips():
    G = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y = simulate_ct_sampled(G, ObservationSetup(x0=[1.0, 0.3], c=[1.0, 0.0]), tau=0.1, K=6)
    d = estimate_spectrum(y).to_json_dict()
    assert d["mode"] == "ct" and len(d["roots"]) == 2
    assert SpectrumEstimate.from_json_dict(d).to_json_dict() == d
    # an unsolvable system's infinite residual and condition read back too
    d = SpectrumEstimate([(0.5 + 0j, 2)], residual=np.inf, condition=np.inf,
                         scale_rho=3.0, warnings=["ill-conditioned"]).to_json_dict()
    assert SpectrumEstimate.from_json_dict(d).to_json_dict() == d


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def spectra(draw) -> SpectrumEstimate:
    """Any estimate of valid values: finite roots of multiplicity >= 1, no tau
    or a positive one, a residual >= 0, a condition >= 1 (both up to
    infinity), a positive rho and string warnings."""
    roots = st.tuples(st.complex_numbers(allow_nan=False, allow_infinity=False), st.integers(1, 5))
    return SpectrumEstimate(
        roots=draw(st.lists(roots, max_size=6)),
        tau=draw(st.none() | POSITIVE),
        residual=draw(st.floats(min_value=0.0)),
        condition=draw(st.floats(min_value=1.0)),
        scale_rho=draw(POSITIVE),
        warnings=draw(st.lists(st.text(), max_size=3)),
    )


@given(spectra())
@example(SpectrumEstimate([(0.5 + 0j, 1)]))
@settings(max_examples=200, deadline=None)
def test_every_valid_spectrum_reads_back_as_itself(est):
    # mode and rank are read off tau and the roots, so no two fields can disagree
    d = est.to_json_dict()
    assert json.dumps(SpectrumEstimate.from_json_dict(d).to_json_dict()) == json.dumps(d)


def test_a_none_condition_is_an_infinite_one():
    # as the file's null is; the record used to refuse it with a message that allows null
    est = SpectrumEstimate([(0.5 + 0j, 1)], condition=None)
    assert est.condition == math.inf and est.to_json_dict()["condition"] is None
    assert SpectrumEstimate.from_json_dict(est.to_json_dict()).condition == math.inf


# =========================================================================
# Node deconvolution
# =========================================================================


def test_trivial_node_weights_are_a_unit_impulse():
    nu = nu_sequence(NodeDynamics.trivial(), K=5)
    assert np.array_equal(nu, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_scalar_node_weights_are_powers():
    nu = nu_sequence(NodeDynamics(A=[[0.5]], beta=[1.0], gamma=[1.0]), K=5)
    assert np.array_equal(nu, 0.5 ** np.arange(5))


def test_sampled_weights_of_a_static_node_are_constant():
    node = NodeDynamics(A=np.zeros((3, 3)), beta=[1.0, 2.0, 0.5], gamma=[0.25, 1.0, 1.0])
    nu = nu_sequence(node, K=4, tau=0.7)
    assert np.max(np.abs(nu - node.gamma @ node.beta)) < 1e-15


def count_weight_builds(monkeypatch) -> list:
    """Start nu_sequence with an empty memo and record each (K, tau) it builds."""
    builds, build = [], estimator._impulse_weights

    def counted(node, K, tau):
        builds.append((K, tau))
        return build(node, K, tau)

    monkeypatch.setattr(estimator, "_nu_memo", (None, None))
    monkeypatch.setattr(estimator, "_impulse_weights", counted)
    return builds


def test_node_weights_are_memoized_and_every_call_gets_its_own_copy(monkeypatch):
    builds = count_weight_builds(monkeypatch)
    node = NodeDynamics(A=[[0.5, 0.25], [0.0, 0.75]], beta=[1.0, 2.0], gamma=[1.0, -1.0])
    first = nu_sequence(node, K=6)
    want = first.copy()
    first[:] = np.nan
    assert np.array_equal(nu_sequence(node, K=6), want)
    # an equal agent in new arrays is the same key
    twin = NodeDynamics(A=node.A.copy(), beta=node.beta.copy(), gamma=node.gamma.copy())
    assert np.array_equal(nu_sequence(twin, K=6), want)
    assert builds == [(6, None)]


def test_an_agent_changed_in_place_gets_fresh_weights(monkeypatch):
    builds = count_weight_builds(monkeypatch)
    node = NodeDynamics(A=[[0.5]], beta=[1.0], gamma=[1.0])
    assert np.array_equal(nu_sequence(node, K=4), 0.5 ** np.arange(4))
    node.A[0, 0] = 0.25
    assert np.array_equal(nu_sequence(node, K=4), 0.25 ** np.arange(4))
    node.gamma[0] = 2.0
    assert np.array_equal(nu_sequence(node, K=4), 2.0 * 0.25 ** np.arange(4))
    node.beta[0] = 3.0
    assert np.array_equal(nu_sequence(node, K=4), 6.0 * 0.25 ** np.arange(4))
    assert len(builds) == 4


def test_calls_that_differ_in_k_tau_or_mode_do_not_share_weights(monkeypatch):
    builds = count_weight_builds(monkeypatch)
    node = NodeDynamics(A=[[-0.5]], beta=[1.0], gamma=[1.0])
    # a call without a tau is discrete time
    calls = [(5, 0.5), (5, 1.0), (5, None), (4, None), (5, 1.0)]
    for K, tau in calls:
        got = nu_sequence(node, K=K, tau=tau)
        rate = -0.5 if tau is None else math.exp(-0.5 * tau)
        assert np.max(np.abs(got - rate ** np.arange(K))) < 1e-15, (K, tau)
    assert builds == calls


def test_node_weights_stay_within_one_rollout_block(monkeypatch):
    # the weights are the agent's own rollout, so they hold one block of
    # states at a time, not all K of them (8.5 MiB of long doubles here)
    monkeypatch.setattr(estimator, "_nu_memo", (None, None))
    rng = np.random.default_rng(0)
    node = NodeDynamics(A=rng.uniform(-1, 1, (128, 128)) / 16, beta=rng.uniform(-1, 1, 128),
                        gamma=rng.uniform(-1, 1, 128))
    tracemalloc.start()
    try:
        nu = nu_sequence(node, K=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nu.shape == (4096,) and np.isfinite(nu).all()
    assert peak < 2 * 2**20, peak


def test_a_fig3_sweep_forms_its_node_weights_once(monkeypatch):
    builds = count_weight_builds(monkeypatch)
    sweep("fig3", 20)
    assert builds == [(20, None)]


def shift_node(nu) -> NodeDynamics:
    """The nilpotent shift, whose discrete-time node weights are ``nu`` bit for
    bit: ``A^k e_0 = e_k`` exactly, so each weight is the one term ``gamma_k``."""
    return NodeDynamics(A=np.eye(len(nu), k=-1), beta=np.eye(len(nu))[0], gamma=nu)


def stripped(y, nu) -> np.ndarray:
    """``deconvolve_sigma`` of the discrete-time record ``y`` with node weights ``nu``."""
    return deconvolve_sigma(OutputSequence(y, node=shift_node(nu)))


def test_unit_impulse_deconvolution_is_the_identity_bit_for_bit():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(12)
    sigma = deconvolve_sigma(OutputSequence(y, node=NodeDynamics.trivial()))
    assert np.array_equal(sigma, y)


def test_deconvolution_inverts_the_binomial_mixing():
    # scalar network g with scalar node a: y_k = (a+g)^k unmixes to g^k
    node = NodeDynamics(A=[[0.3]], beta=[1.0], gamma=[1.0])
    y = simulate_dt_networked(np.array([[0.7]]), node, ObservationSetup(x0=[1.0], c=[1.0]), K=6)
    sigma = deconvolve_sigma(y)
    truth = 0.7 ** np.arange(6)
    assert np.max(np.abs(sigma - truth) / truth) < 1e-12


def fraction_deconvolution(y, nu) -> list[float]:
    sigma: list[Fraction] = []
    for k in range(len(y)):
        head = sum(math.comb(k, s) * Fraction(nu[k - s]) * sigma[s] for s in range(k))
        sigma.append((Fraction(y[k]) - head) / Fraction(nu[0]))
    return [float(v) for v in sigma]


@given(
    st.integers(1, 20).flatmap(
        lambda K: st.tuples(
            st.lists(wide_floats(-1000, 800), min_size=K, max_size=K),
            wide_floats(-1, 0),
            st.lists(st.one_of(st.just(0.0), wide_floats(-60, 0)), min_size=K - 1, max_size=K - 1),
        )
    )
)
@settings(max_examples=150, deadline=None)
@example(([0.5, 0.5, 0.5], -0.5, [0.0, -0.5]))  # sigma_2 = 0 / -0.5 exactly, which once came out -0.0
def test_deconvolution_matches_rational_arithmetic_bit_for_bit(case):
    y, nu0, tail = case
    nu = [nu0] + tail
    got = stripped(y, nu)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in fraction_deconvolution(y, nu)]


@pytest.mark.parametrize("y0", [0.5, -0.5, 0.0, -0.0])
@pytest.mark.parametrize("nu0", [0.5, -0.5])
def test_an_exactly_cancelled_sample_deconvolves_to_plus_zero(y0, nu0):
    # sigma_2 = (y_2 - nu_2 sigma_0) / nu_0 with y_2 = nu_2 sigma_0 exactly, whatever
    # the signs; a zero record, -0.0 too, is +0.0 throughout
    y, nu = [y0] * 3, [nu0, 0.0, nu0]
    sigma = stripped(y, nu)
    assert [v.hex() for v in sigma.tolist()] == [v.hex() for v in fraction_deconvolution(y, nu)]
    assert sigma[2].hex() == "0x0.0p+0"


def test_the_deconvolution_operator_is_memoized_for_the_last_nu():
    memo = estimator._deconvolution_operator
    assert memo.cache_info().maxsize == 1
    memo.cache_clear()
    rng = np.random.default_rng(8)
    nu = [0.75] + rng.uniform(-1.0, 1.0, 9).tolist()
    for y in (rng.standard_normal(10), rng.standard_normal(10) * 1e5):
        got = stripped(y, nu)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in fraction_deconvolution(y, nu)]
    assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 1)
    # a nu that differs only in its last entry builds its own operator
    other = nu[:-1] + [nu[-1] + 2.0**-30]
    want = fraction_deconvolution(y, other)
    assert want[-1] != fraction_deconvolution(y, nu)[-1]
    assert [v.hex() for v in stripped(y, other).tolist()] == [v.hex() for v in want]
    assert memo.cache_info().misses == 2


def test_a_long_nu_is_deconvolved_exactly_and_memoized():
    memo = estimator._deconvolution_operator
    memo.cache_clear()
    rng = np.random.default_rng(9)
    nu = [0.75] + rng.uniform(-1.0, 1.0, 99).tolist()
    for y in (rng.standard_normal(100), rng.standard_normal(100) * 1e-5):
        got = stripped(y, nu)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in fraction_deconvolution(y, nu)]
    assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 1)


def test_a_deconvolution_beyond_its_size_bound_is_rejected_before_it_builds(monkeypatch):
    # the operator's cost grows faster than K^3: 129 samples are refused
    # before the node weights are formed or the operator is built
    cap = estimator._DECONVOLUTION_SIZE_CAP
    assert cap == 128
    y = np.random.default_rng(10).standard_normal(cap + 1)
    assert np.array_equal(deconvolve_sigma(OutputSequence(y[:cap], node=NodeDynamics.trivial())), y[:cap])
    for name in ("nu_sequence", "_deconvolution_operator"):
        monkeypatch.setattr(estimator, name, mock.Mock(side_effect=AssertionError(name)))
    with pytest.raises(ValueError, match=r"^exact deconvolution takes at most 128 samples, got 129$"):
        deconvolve_sigma(OutputSequence(y, node=NodeDynamics.trivial()))


def test_a_fig3_sweep_builds_the_deconvolution_operator_once():
    memo = estimator._deconvolution_operator
    memo.cache_clear()
    sweep("fig3", 20)
    assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 19)


def test_ct_deconvolution_divides_pointwise():
    # a static scalar node: every sampled weight is gamma beta = 2
    node = NodeDynamics(A=[[0.0]], beta=[1.0], gamma=[2.0])
    assert np.array_equal(deconvolve_sigma(OutputSequence([2.0, 4.0, 8.0], tau=1.0, node=node)), [1.0, 2.0, 4.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tau, values, node, index", [
    # nu = 1e-10, 0, 0
    (None, [1.0, 1e308, 1.0], NodeDynamics(A=[[0.0]], beta=[1.0], gamma=[1e-10]), 1),
    # nu_k = e^-k, and 1e308 / e^-2 is beyond the doubles
    (1.0, [1.0, 1.0, 1e308], NodeDynamics(A=[[-1.0]], beta=[1.0], gamma=[1.0]), 2),
])
def test_a_deconvolution_overflow_is_a_plain_overflow_error_naming_its_sample(tau, values, node, index):
    message = rf"^deconvolved sample sigma\[{index}\] lies beyond the double range$"
    with pytest.raises(OverflowError, match=message) as info:
        deconvolve_sigma(OutputSequence(values, tau=tau, node=node))
    assert type(info.value) is OverflowError


def test_networked_estimate_with_trivial_node_is_bitwise_plain():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((5, 5)) * 0.7
    setup = ObservationSetup(x0=rng.uniform(0, 1, 5), c=rng.uniform(0, 1, 5))
    y = simulate_dt(G, setup, K=10)
    plain = estimate_spectrum(y)
    networked = estimate_spectrum(OutputSequence(y.values, node=NodeDynamics.trivial()))
    assert networked.roots == plain.roots
    assert networked.rank == plain.rank and networked.residual == plain.residual


def test_networked_scalar_case_recovers_the_network_rate():
    node = NodeDynamics(A=[[0.3]], beta=[1.0], gamma=[1.0])
    y = simulate_dt_networked(np.array([[0.7]]), node, ObservationSetup(x0=[1.0], c=[1.0]), K=6)
    assert y.node is node  # the networked rollout records its node for the estimator
    est = estimate_spectrum(y)
    assert len(est.roots) == 1 and abs(est.roots[0][0] - 0.7) < 1e-9


# =========================================================================
# Continuous time and the logarithm
# =========================================================================


def test_ct_scalar_decay_maps_back_through_the_log():
    y = simulate_ct_sampled(np.array([[-1.0]]), ObservationSetup(x0=[1.0], c=[1.0]), tau=1.0, K=4)
    est = estimate_spectrum(y)
    assert est.mode == CT and est.tau == 1.0
    assert len(est.roots) == 1 and abs(est.roots[0][0] + 1.0) < 1e-10


def test_ct_rotation_recovers_plus_minus_i():
    G = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y = simulate_ct_sampled(G, ObservationSetup(x0=[1.0, 0.3], c=[1.0, 0.0]), tau=0.1, K=6)
    est = estimate_spectrum(y)
    got = sorted(est.roots, key=lambda vm: vm[0].imag)
    assert [m for _, m in got] == [1, 1]
    assert abs(got[0][0] + 1j) < 1e-8 and abs(got[1][0] - 1j) < 1e-8
    assert not est.warnings


def test_sampling_at_the_nyquist_edge_raises_the_aliasing_flag():
    # tau = pi puts e^{i pi} = -1 on the principal branch cut
    G = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y = simulate_ct_sampled(G, ObservationSetup(x0=[1.0, 0.3], c=[1.0, 0.0]), tau=np.pi, K=8)
    est = estimate_spectrum(y)
    assert any("aliasing" in w for w in est.warnings)
    assert all(abs(abs(v.imag) - 1.0) < 1e-9 for v, _ in est.roots)


@pytest.mark.parametrize("seed", range(6))
def test_ct_and_dt_pipelines_agree_through_the_log(seed):
    rng = np.random.default_rng(70 + seed)
    n = int(rng.integers(2, 6))
    G = rng.standard_normal((n, n)) * 0.5
    setup = ObservationSetup(x0=rng.uniform(0, 1, n), c=rng.uniform(0, 1, n))
    tau = 0.8
    ct = estimate_spectrum(simulate_ct_sampled(G, setup, tau=tau, K=2 * n))
    if ct.warnings:
        pytest.skip("aliasing or conditioning flagged; equivalence not asserted")
    dt = estimate_spectrum(simulate_dt(matrix_exponential(G, tau), setup, K=2 * n))
    logged = [(complex(np.log(v) / tau), m) for v, m in dt.roots]
    report = match_spectra(ct.roots, logged, tol=1e-10)
    assert report.matched_all and report.max_error <= 1e-10


# =========================================================================
# Every finite record gets an answer or a typed refusal
# =========================================================================


@st.composite
def finite_records(draw):
    """Records of 1 to 24 finite samples anywhere in the double range, around
    one exponent with a drawn spread, zeros and subnormals included."""
    base, spread = draw(st.integers(-1074, 1023)), draw(st.sampled_from([0, 4, 60, 2000]))
    exponents = st.integers(base - spread, base + spread).map(lambda e: min(max(e, -1074), 1023))
    return draw(st.lists(st.builds(math.ldexp, st.floats(-1.0, 1.0), exponents), min_size=1, max_size=24))


REFUSALS = (InsufficientDataError, SingularDeconvolutionError, LogSingularRootError, OverflowError)


@given(finite_records(), st.sampled_from([None, 1.0, 1e-3, 1e3]),
       st.one_of(st.none(), st.builds(lambda a, g: NodeDynamics(A=[[a]], beta=[1.0], gamma=[g]),
                                      st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))),
       st.sampled_from([None, True, False]), st.sampled_from([None, 0.0, 1e-6]))
@settings(max_examples=300, deadline=None)
# the norms of the residual overflowed, and inf / inf = nan failed the estimate's own check
@example([3e200, 1e200, 2e200, 5e200, 1e200, 7e200], None, None, False, None)
# an exact refinement residual beyond the doubles ended in Python's integer division
@example([-2.6822173259016633e-53, 1.5851624968960665e-59, 5e-324, -0.0, 8.906682039613852e+235, 0.0,
          -5.994630653871706e+65, -8.571352305561271e+307, 1.2770834843764657e-29, 0.0, 2.609801892584616e+71,
          3.88457805206481e+307], 1e-3, None, False, 0.0)
def test_every_finite_record_gets_an_estimate_or_a_typed_refusal(values, tau, node, prescale, rank_tolerance):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            estimate_spectrum(OutputSequence(values, tau=tau, node=node), rank_tolerance=rank_tolerance,
                              prescale=prescale)
        except REFUSALS as exc:  # no record check's ValueError, no LinAlgError, no Python overflow
            assert type(exc) is not OverflowError or re.search("beyond the double range|floating range", str(exc))


def finite_nodes(d: int):
    """Nodes of dimension ``d`` with any finite entries, zeros and the range's ends included."""
    vector = st.lists(FINITE_DOUBLES, min_size=d, max_size=d)
    return st.builds(NodeDynamics, st.lists(vector, min_size=d, max_size=d), vector, vector)


@given(finite_records(), st.none() | st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
       st.integers(1, 3).flatmap(finite_nodes))
@settings(max_examples=80, deadline=None)
@example([1.0, 2.0, 3.0], None, NodeDynamics(A=[[0.0]], beta=[1.0], gamma=[0.0]))  # nu_0 = 0
@example([1.0, 2.0], 1.0, NodeDynamics(A=[[1.7976931348623157e308]], beta=[1.0], gamma=[1.0]))  # expm overflows
def test_every_finite_networked_record_gets_a_deconvolution_or_a_typed_refusal(values, tau, node):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sigma = deconvolve_sigma(OutputSequence(values, tau=tau, node=node))
        except (SingularDeconvolutionError, OverflowError) as exc:  # no LinAlgError, no Python overflow
            assert type(exc) is not OverflowError or re.search("beyond the double range|floating range", str(exc))
            return
    assert sigma.shape == (len(values),) and np.isfinite(sigma).all()
