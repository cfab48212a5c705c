"""Ground truth the estimator is judged against.

``full_spectrum`` and ``observable_partition`` answer "what is there" and
"what can this output weighting and initial state actually reach", with a
PBH rank test per distinct eigenvalue and, for a numerically diagonalizable
matrix, the modal weights of each eigenvalue.
``match_spectra`` scores an estimate against a truth list: it pairs as many
values within the tolerance as it can, at the least largest distance.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .clustering import _centroid, _spectral_order, cluster_indices, enforce_conjugate_pairs
from .dynamics import ObservationSetup, _matrix_for
from .graphs import _binade, _number, _require_finite, _tolerance, _whole, as_array

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
    real part, then descending imaginary part. ``ValueError`` when the QR
    iteration does not converge, ``OverflowError`` when an eigenvalue's
    modulus is beyond the doubles.
    """
    vals = _converged(np.linalg.eigvals, as_array(G))
    pairs = enforce_conjugate_pairs([(complex(v), 1) for v in vals], EIGEN_CLUSTER_TOL)
    return np.array([v for v, _ in pairs], dtype=complex)


def _converged(eig, M: np.ndarray):
    """``eig(M)``; ``ValueError`` when LAPACK's QR iteration does not converge,
    ``OverflowError`` for an eigenvalue whose modulus is beyond the doubles."""
    try:
        out = eig(M)
    except np.linalg.LinAlgError:
        raise ValueError("the QR iteration for the eigenvalues did not converge") from None
    with np.errstate(over="ignore"):  # eig gives the eigenvalues first, eigvals them alone
        if not np.isfinite(np.abs(out[0] if isinstance(out, tuple) else out)).all():
            raise OverflowError("an eigenvalue's modulus exceeds the double range")
    return out


def _pbh_deficiencies(M: np.ndarray, c, lams) -> np.ndarray:
    """Column-rank deficiency of the stacked (n+1) x n matrix
    ``[M - lam I; c^T]`` at each of ``lams``, by one batched SVD.

    Scaling a block leaves the rank as it is, so ``M`` and each ``lam`` are
    scaled by ``M``'s ``_binade`` and ``c`` by its own; every entry then stays
    below about 2n + 2. Singular values below ``PBH_RANK_RTOL`` times the
    largest count as zero. Zero means every eigenvector at ``lam`` is visible
    from ``c``; any deficiency means an unobservable mode sits at ``lam``.
    """
    n = M.shape[0]
    e = _binade(M)
    shifts = np.ldexp(np.real(lams), e) + 1j * np.ldexp(np.imag(lams), e)  # 2.0**e overflows past e = 1023
    top = np.ldexp(M, e) - shifts[:, None, None] * np.eye(n)
    row = np.broadcast_to(np.ldexp(c, _binade(c)), (shifts.size, 1, n))
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
        return np.repeat(self.distinct, self.algebraic - self.m_tilde)


def observable_partition(G, c, x0) -> OracleSpectrum:
    """Split the spectrum of G into output-reachable and unreachable parts.

    Every distinct eigenvalue gets a PBH test with each block at unit scale,
    so its verdict does not follow the scales of G and c. When G is
    numerically diagonalizable (eigenvector condition below 1e8) the modal weights
    ``omega_i = (c^T u_i)(w_i^T x0)`` are computed with ``W = U^{-1}``, and an
    eigenvalue is reachable iff its total weight (summed over eigenvalues
    within ``EIGEN_CLUSTER_TOL`` of each other) exceeds ``WEIGHT_ZERO_RTOL``
    times the data scale. For defective input only the x0-independent PBH
    verdict is available; recovered multiplicities beyond 1 are then not
    identifiable here. ``ValueError`` from ``ObservationSetup`` for c and x0
    that are not finite vectors of one entry per row of G, and when the QR
    iteration does not converge; ``OverflowError`` when an eigenvalue's
    modulus, a modal weight or the data scale ``|c| |x0|`` is not finite. A
    0 x 0 G has an empty spectrum.
    """
    setup = ObservationSetup(x0=x0, c=c)
    M = _matrix_for(G, setup)
    c, x0 = setup.c, setup.x0
    if not M.size:  # numpy's cond refuses an empty matrix
        empty = np.zeros(0, dtype=int)
        return OracleSpectrum(empty.astype(complex), empty, empty, empty.astype(bool), empty.astype(complex))

    vals, U = _converged(np.linalg.eig, M)
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
    """``match_spectra``'s pairing of an estimated spectrum against a truth
    list: the (estimated, true, distance) ``pairs`` within the tolerance and
    the values left unmatched on each side. The error statistics read off the pairs."""

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


def _expand_values(spectrum, side: str) -> np.ndarray:
    """Flat values, or (value, multiplicity) pairs with each value repeated;
    ``ValueError`` naming ``side`` and the index for an entry of another kind
    than entry 0, a value that is not a ``_number`` and a multiplicity that is
    not a whole number >= 1. A 1-d numeric array, such as ``full_spectrum``'s, is taken as is."""
    if isinstance(spectrum, np.ndarray) and spectrum.ndim == 1 and spectrum.dtype.kind in "iufc":
        return spectrum.astype(complex)
    spectrum = list(spectrum)
    pairs = bool(spectrum) and isinstance(spectrum[0], tuple)
    values = []
    for k, item in enumerate(spectrum):
        if isinstance(item, tuple) != pairs or pairs and len(item) != 2:
            raise ValueError(f"{side}[{k}] must be a (value, multiplicity) pair, got {item!r}" if pairs
                             else f"{side}[{k}] must be a flat value, as {side}[0] is, got {item!r}")
        v, m = item if pairs else (item, 1)
        if (m := m if type(m) is int else _whole(m, f"{side}[{k}] multiplicity")) < 1:
            raise ValueError(f"{side}[{k}] has multiplicity {m}, below 1")
        if type(v) is not complex and not _number(v):  # the exact type skips the ABC check
            raise ValueError(f"{side}[{k}] must be a number, got {v!r}")
        values += [v] * m
    return np.array(values, dtype=complex)


def _maximum_matching(near: list[list[int]]) -> dict[int, int]:
    """A maximum matching of each row i to one of the columns ``near[i]``, as
    the row of each matched column. Each row takes its first free column, or
    else searches depth first for an augmenting path (Kuhn's method), on an
    explicit stack so that no path meets the recursion limit."""
    row_of, seen = {}, set()  # seen: columns that lead to no free one, until row_of changes
    for root, cols in enumerate(near):
        if (free := next((j for j in cols if j not in row_of), None)) is not None:
            row_of[free] = root
            continue
        path, via = [(root, iter(cols))], []  # rows with their untried columns; via[k]: path[k]'s column
        while path:
            for j in path[-1][1]:
                if j not in seen:
                    seen.add(j)
                    break
            else:  # no way onward from this row, nor through the column that reached it
                path.pop()
                del via[-1:]
                continue
            via.append(j)
            if j not in row_of:  # a free column: each row on the path takes the column it reaches
                row_of.update(zip(via, (i for i, _ in path)))
                seen = set()
                break
            path.append((row_of[j], iter(near[row_of[j]])))
    return row_of


def _bottleneck_matching(cost: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """The (row, column) pairs, by row, of a maximum matching within ``tol``
    whose largest ``cost`` is least: rows try columns nearest first, ties by
    index, and a binary search finds the least entry that keeps the size."""
    order = np.argsort(cost, axis=1, kind="stable")
    ranked, order = np.take_along_axis(cost, order, axis=1), order.tolist()

    def within(bound):
        counts = np.count_nonzero(ranked <= bound, axis=1).tolist()
        return _maximum_matching([cols[:k] for cols, k in zip(order, counts)])

    if not (bounds := np.unique(cost[cost <= tol])).size:
        return []
    least = bounds[bisect_left(bounds, len(within(tol)), key=lambda bound: len(within(bound)))]
    return sorted((i, j) for j, i in within(least).items())


def match_spectra(estimated, truth, tol: float) -> MatchReport:
    """Pair ``estimated`` with ``truth``, multiplicities expanded: as many
    pairs within ``tol`` as any pairing holds, and among those one whose
    largest distance is least (a bottleneck assignment; Burkard, Dell'Amico &
    Martello, *Assignment Problems*, SIAM 2009, ch. 6), in estimate order.

    Each side takes (value, multiplicity) pairs, such as
    ``SpectrumEstimate.roots`` or ``OracleSpectrum.observable``, or flat
    values, such as ``full_spectrum``'s. ``ValueError`` for a ``tol`` that
    is not a finite number >= 0, a value that is not finite, a multiplicity
    that is not a whole number >= 1 and a mix of pairs and flat values. No
    distance is ever summed, so one beyond the double range is an infinity,
    beyond every tol.
    """
    tol = _tolerance(tol, "tolerance")
    est = _expand_values(estimated, "estimated")
    true = _expand_values(truth, "truth")
    with np.errstate(over="ignore", invalid="ignore"):  # read below
        cost = np.abs(est[:, None] - true[None, :])
    if cost.size == 0 or not np.isfinite(cost).all():
        # a NaN or an infinity on either side is refused; with neither, some
        # distance lies beyond the double range, and so beyond every tol
        _require_finite(est, "estimated")
        _require_finite(true, "truth")
    n, m = cost.shape
    nearest = cost.argmin(axis=1) if 0 < n <= m else None
    if nearest is not None and len(set(nearest.tolist())) == n and np.count_nonzero(
            cost == cost[np.arange(n), nearest][:, None]) == n:
        # each estimate alone at its own strictly nearest true value: no pairing does better
        matched = enumerate(nearest.tolist())
    else:
        matched = _bottleneck_matching(cost, tol)
    pairs = [(r, j, d) for r, j in matched if (d := float(cost[r, j])) <= tol]
    rows, cols = {r for r, _, _ in pairs}, {j for _, j, _ in pairs}
    return MatchReport(
        pairs=[(complex(est[r]), complex(true[j]), d) for r, j, d in pairs],
        unmatched_true=[complex(v) for j, v in enumerate(true) if j not in cols],
        unmatched_estimated=[complex(v) for r, v in enumerate(est) if r not in rows],
    )
