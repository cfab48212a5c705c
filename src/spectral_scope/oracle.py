"""Ground truth the estimator is judged against.

``full_spectrum`` and ``observable_partition`` answer "what is there" and
"what can this output weighting and initial state actually reach", with a
PBH rank test per distinct eigenvalue and, for a numerically diagonalizable
matrix, the modal weights of each eigenvalue.
``match_spectra`` scores an estimate against a truth list by minimum-cost
bipartite matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import _centroid, _spectral_order, cluster_indices, enforce_conjugate_pairs
from .dynamics import ObservationSetup, _matrix_for
from .graphs import _tolerance, as_array

__all__ = [
    "OracleSpectrum",
    "MatchReport",
    "full_spectrum",
    "observable_partition",
    "match_spectra",
]

EIGEN_CLUSTER_TOL = 1e-8
WEIGHT_ZERO_RTOL = 1e-9
PBH_RANK_RTOL = 1e-10
DIAGONALIZABLE_COND_CAP = 1e8


def full_spectrum(G) -> np.ndarray:
    """All eigenvalues (with algebraic multiplicity) by dense QR iteration.

    Conjugate pairs are made exact and the result is sorted by descending
    real part, then descending imaginary part. Non-convergence of the
    eigensolver propagates as ``numpy.linalg.LinAlgError``.
    """
    M = as_array(G)
    vals = np.linalg.eigvals(M)
    pairs = enforce_conjugate_pairs([(complex(v), 1) for v in vals], EIGEN_CLUSTER_TOL)
    return np.array([v for v, _ in pairs], dtype=complex)


def _pbh_deficiencies(M: np.ndarray, c, lams) -> np.ndarray:
    """Column-rank deficiency of the stacked (n+1) x n matrix
    ``[M - lam I; c^T]`` at each of ``lams``, by one batched SVD.

    Singular values below ``PBH_RANK_RTOL`` times the largest count as zero.
    Zero means every eigenvector at ``lam`` is visible from ``c``; any
    deficiency means an unobservable mode sits at ``lam``.
    """
    n = M.shape[0]
    lams = np.asarray(lams)
    top = M - lams[:, None, None] * np.eye(n)
    row = np.broadcast_to(np.asarray(c, dtype=float), (lams.size, 1, n))
    s = np.linalg.svd(np.concatenate((top, row), axis=1), compute_uv=False)
    # a zero or NaN largest singular value leaves no entry above the cut: rank 0
    return n - np.count_nonzero(s > PBH_RANK_RTOL * s[:, :1], axis=1)


@dataclass(frozen=True, eq=False)
class OracleSpectrum:
    """Eigenvalues of one (G, c, x0) triple, split by what the output can reach.

    ``m_tilde[i]`` is the multiplicity the estimator should report for
    ``distinct[i]``: the excited depth of the deepest Jordan chain (1 for an
    observable eigenvalue of a diagonalizable matrix, 0 when the eigenvalue
    never shows up in the output). ``modal_weights[i]`` is the summed modal
    weight of ``distinct[i]``, so that ``y_k = sum_i modal_weights[i]
    distinct[i]^k``; it is ``None`` when the matrix is not numerically
    diagonalizable.
    """

    distinct: np.ndarray
    algebraic: np.ndarray
    m_tilde: np.ndarray
    pbh_deficient: np.ndarray
    modal_weights: np.ndarray | None

    @property
    def observable(self) -> list[tuple[complex, int]]:
        """(eigenvalue, recovered multiplicity) for eigenvalues present in the output."""
        return [
            (complex(v), int(m)) for v, m in zip(self.distinct, self.m_tilde) if m > 0
        ]

    @property
    def missing(self) -> np.ndarray:
        """Eigenvalue copies (algebraic minus recovered) that no estimator can see."""
        out = []
        for v, alg, m in zip(self.distinct, self.algebraic, self.m_tilde):
            out.extend([complex(v)] * int(alg - m))
        return np.array(out, dtype=complex)


def observable_partition(G, c, x0) -> OracleSpectrum:
    """Split the spectrum of G into output-reachable and unreachable parts.

    Every distinct eigenvalue gets a PBH test. When G is numerically
    diagonalizable (eigenvector condition below 1e8) the modal weights
    ``omega_i = (c^T u_i)(w_i^T x0)`` are computed with ``W = U^{-1}``, and an
    eigenvalue is reachable iff its total weight (summed over eigenvalues
    within ``EIGEN_CLUSTER_TOL`` of each other) exceeds ``WEIGHT_ZERO_RTOL``
    times the data scale. For defective input only the x0-independent PBH
    verdict is available; recovered multiplicities beyond 1 are then not
    identifiable here. ``ValueError`` from ``ObservationSetup`` for c and x0
    that are not finite vectors of one entry per row of G; ``OverflowError``
    when a modal weight or the data scale ``|c| |x0|`` is not finite.
    """
    setup = ObservationSetup(x0=x0, c=c)
    M = _matrix_for(G, setup)
    c, x0 = setup.c, setup.x0

    vals, U = np.linalg.eig(M)
    groups = cluster_indices(vals, EIGEN_CLUSTER_TOL)
    means = [_centroid(vals[g]) for g in groups]
    order = sorted(range(len(groups)), key=lambda i: _spectral_order(means[i]))
    groups = [groups[i] for i in order]
    distinct = np.array([means[i] for i in order], dtype=complex)
    algebraic = np.array([len(g) for g in groups], dtype=int)
    pbh = _pbh_deficiencies(M, c, distinct) > 0

    cond_u = np.linalg.cond(U)
    if np.isfinite(cond_u) and cond_u < DIAGONALIZABLE_COND_CAP:
        W = np.linalg.inv(U)
        with np.errstate(over="ignore", invalid="ignore"):
            omega = (c @ U) * (W @ x0)
            # hypot scales before it squares, so it overflows only when the norm does
            data = math.hypot(*c) * math.hypot(*x0)
        # an infinite weight or scale would make every mode look unobservable
        if not (np.all(np.isfinite(omega)) and math.isfinite(data)):
            raise OverflowError("the modal weights (c^T u_i)(w_i^T x0) or |c| |x0| exceed the double range")
        scale = max(float(np.max(np.abs(omega))), data, np.finfo(float).tiny)
        threshold = WEIGHT_ZERO_RTOL * scale
        weights = np.array([omega[g].sum() for g in groups], dtype=complex)
        m_tilde = np.array([1 if abs(w) > threshold else 0 for w in weights], dtype=int)
    else:
        weights = None
        m_tilde = np.array([0 if d else 1 for d in pbh], dtype=int)

    return OracleSpectrum(
        distinct=distinct,
        algebraic=algebraic,
        m_tilde=m_tilde,
        pbh_deficient=pbh,
        modal_weights=weights,
    )


# =========================================================================
# Spectrum matching
# =========================================================================


@dataclass(frozen=True, eq=False)
class MatchReport:
    """Minimum-cost pairing of an estimated spectrum against a truth list:
    the (estimated, true, distance) ``pairs`` within the tolerance and the
    values left unmatched on each side. The error statistics read off the pairs."""

    pairs: list[tuple[complex, complex, float]]
    unmatched_true: list[complex]
    unmatched_estimated: list[complex]

    @property
    def matched_all(self) -> bool:
        return not self.unmatched_true and not self.unmatched_estimated

    @property
    def max_error(self) -> float:
        return max((d for _, _, d in self.pairs), default=0.0)

    @property
    def mean_error(self) -> float:
        return float(np.mean([d for _, _, d in self.pairs])) if self.pairs else 0.0

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "max_error": self.max_error,
            "mean_error": self.mean_error,
            "pairs": [
                {
                    "estimated": {"re": e.real, "im": e.imag},
                    "true": {"re": t.real, "im": t.imag},
                    "distance": d,
                }
                for e, t, d in self.pairs
            ],
            "unmatched_true": [{"re": v.real, "im": v.imag} for v in self.unmatched_true],
            "unmatched_estimated": [
                {"re": v.real, "im": v.imag} for v in self.unmatched_estimated
            ],
        }


def _expand_values(spectrum) -> np.ndarray:
    spectrum = list(spectrum)
    if spectrum and isinstance(spectrum[0], tuple):
        return np.array([v for v, m in spectrum for _ in range(int(m))], dtype=complex)
    return np.asarray(spectrum, dtype=complex)


def _assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.optimize.linear_sum_assignment(cost)``, with a fast path for the
    nearest-neighbour pairing (see match_spectra) in front of the full solve.

    On a finite cost with no more rows than columns, whose rows each have a
    single minimum in a column of their own, the solver finds each row's
    argmin as a free column on its first scan, with the column potentials
    still zero, so no rounding enters and it returns these same arrays.
    Every other input, NaN and infinite entries included, goes to
    ``_shortest_augmenting_path``.
    """
    n, m = cost.shape
    if 0 < n <= m and np.isfinite(cost).all():
        cols = cost.argmin(axis=1)
        mins = cost[np.arange(n), cols]
        if len(set(cols.tolist())) == n and np.count_nonzero(cost == mins[:, None]) == n:
            return np.arange(n), cols
    return _shortest_augmenting_path(cost)


def _shortest_augmenting_path(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rectangular shortest-augmenting-path solver of Crouse (2016), as
    scipy's ``linear_sum_assignment`` runs it, so that the two agree bit for bit.

    Like scipy it transposes a tall cost and returns its rows sorted, scans
    the remaining columns from the highest index down (a constant cost gives
    the identity), prefers a free column among equal path costs, rounds
    ``min_val + cost - u[i] - v[j]`` and the dual updates as scipy writes
    them, left to right, and raises ``ValueError`` on a NaN or -inf entry
    and on a cost with no finite assignment.
    """
    nr, nc = cost.shape
    if nr == 0 or nc == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    transpose = nc < nr
    if transpose:
        cost = cost.T
        nr, nc = nc, nr
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("matrix contains invalid numeric entries")
    rows = cost.tolist()
    u, v = [0.0] * nr, [0.0] * nc
    path, row4col, col4row = [-1] * nc, [-1] * nc, [-1] * nr
    for cur in range(nr):
        # Dijkstra over reduced costs from row ``cur`` to the nearest free column
        remaining = list(range(nc - 1, -1, -1))
        spc = [math.inf] * nc  # shortest path cost to each column
        seen_rows, seen_cols = [cur], []
        i, min_val, sink = cur, 0.0, -1
        while sink == -1:
            lowest, index = math.inf, -1
            row, ui = rows[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
                seen_rows.append(i)
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - spc[j]
        j = sink
        while True:  # flip the path's assignments back to row ``cur``
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break

    a = np.array(col4row, dtype=np.intp)
    if transpose:
        order = np.argsort(a)
        return a[order], order
    return np.arange(nr, dtype=np.intp), a


def match_spectra(estimated, truth, tol: float) -> MatchReport:
    """Hungarian matching on |estimated - true| with multiplicities expanded.

    Assignment pairs farther apart than ``tol`` are reported unmatched on
    both sides; a ``tol`` that is not a finite number >= 0 is a
    ``ValueError``. ``estimated`` and ``truth`` each take (value, multiplicity)
    pairs, such as ``SpectrumEstimate.roots`` or ``OracleSpectrum.observable``,
    or flat values, such as ``full_spectrum``'s.

    When there are no more estimates than true values, every estimate's
    nearest true value is strictly nearer than any other, and no two
    estimates share it, that nearest-neighbour pairing is the unique
    minimum-cost assignment: its cost, the sum of the row minima, is a lower
    bound that no other assignment reaches. It is then taken directly, and a
    port of scipy's rectangular assignment solver (Crouse 2016) runs only on
    the remaining cases. Both give the pairs that
    ``scipy.optimize.linear_sum_assignment`` gives, without loading it.
    """
    tol = _tolerance(tol, "tolerance")
    est = _expand_values(estimated)
    true = _expand_values(truth)
    cost = np.abs(est[:, None] - true[None, :])
    rows, cols = _assignment(cost)
    pairs: list[tuple[complex, complex, float]] = []
    un_e = set(range(est.size))
    un_t = set(range(true.size))
    for r, ccol in zip(rows, cols):
        d = float(cost[r, ccol])
        if d <= tol:
            pairs.append((complex(est[r]), complex(true[ccol]), d))
            un_e.discard(int(r))
            un_t.discard(int(ccol))
    return MatchReport(
        pairs=pairs,
        unmatched_true=[complex(true[i]) for i in sorted(un_t)],
        unmatched_estimated=[complex(est[i]) for i in sorted(un_e)],
    )
