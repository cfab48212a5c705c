"""Ground truth the estimator is judged against.

``full_spectrum`` and ``observable_partition`` answer "what is there" and
"what can this output weighting and initial state actually reach";
``make_jordan_case`` manufactures matrices with known Jordan structure and a
controlled pattern of excited chain depths, which is the only honest way to
test multiplicity handling (numerically Jordan-decomposing an arbitrary
matrix is ill-posed). ``match_spectra`` scores an estimate against a truth
list by minimum-cost bipartite matching.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .clustering import cluster_indices, enforce_conjugate_pairs
from .dynamics import ObservationSetup
from .estimator import SpectrumEstimate
from .graphs import as_array

__all__ = [
    "OracleSpectrum",
    "JordanTestCase",
    "MatchReport",
    "InfeasiblePatternError",
    "full_spectrum",
    "pbh_deficiency",
    "observable_partition",
    "make_jordan_case",
    "match_spectra",
]

EIGEN_CLUSTER_TOL = 1e-8
WEIGHT_ZERO_RTOL = 1e-9
PBH_RANK_RTOL = 1e-10
DIAGONALIZABLE_COND_CAP = 1e8


class InfeasiblePatternError(ValueError):
    """The requested zero-weight pattern admits only the zero output weighting."""


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


def pbh_deficiency(G, c, lam: complex, rtol: float = PBH_RANK_RTOL) -> int:
    """Column-rank deficiency of the stacked (n+1) x n matrix [G - lam I; c^T].

    Zero means every eigenvector at ``lam`` is visible from ``c``; any
    deficiency means an unobservable mode sits at ``lam``.
    """
    return int(_pbh_deficiencies(as_array(G), c, [lam], rtol)[0])


def _pbh_deficiencies(M: np.ndarray, c, lams, rtol: float) -> np.ndarray:
    """``pbh_deficiency`` at each of ``lams``: one batched SVD of the stacked
    (len(lams), n+1, n) array, each slice built as ``[M - lam I; c^T]`` in the
    dtype of ``lams`` so that it equals the unbatched matrix bit for bit."""
    n = M.shape[0]
    lams = np.asarray(lams)
    top = M - lams[:, None, None] * np.eye(n)
    row = np.broadcast_to(np.asarray(c, dtype=float), (lams.size, 1, n))
    s = np.linalg.svd(np.concatenate((top, row), axis=1), compute_uv=False)
    # a zero or NaN largest singular value leaves no entry above the cut: rank 0
    return n - np.count_nonzero(s > rtol * s[:, :1], axis=1)


@dataclass(eq=False)
class OracleSpectrum:
    """Eigenvalues of one (G, c, x0) triple, split by what the output can reach.

    ``m_tilde[i]`` is the multiplicity the estimator should report for
    ``distinct[i]``: the excited depth of the deepest Jordan chain (1 for an
    observable eigenvalue of a diagonalizable matrix, 0 when the eigenvalue
    never shows up in the output).
    """

    eigenvalues: np.ndarray
    distinct: np.ndarray
    algebraic: np.ndarray
    m_tilde: np.ndarray
    pbh_deficient: np.ndarray
    modal_weights: list[np.ndarray]
    right_vectors: np.ndarray | None
    left_vectors: np.ndarray | None

    @property
    def observable(self) -> list[tuple[complex, int]]:
        """(eigenvalue, recovered multiplicity) for eigenvalues present in the output."""
        return [
            (complex(v), int(m)) for v, m in zip(self.distinct, self.m_tilde) if m > 0
        ]

    @property
    def expected_recovered(self) -> np.ndarray:
        """Exactly what a correct estimator returns, expanded by multiplicity."""
        return np.array(
            [v for v, m in self.observable for _ in range(m)], dtype=complex
        )

    @property
    def missing(self) -> np.ndarray:
        """Eigenvalue copies (algebraic minus recovered) that no estimator can see."""
        out = []
        for v, alg, m in zip(self.distinct, self.algebraic, self.m_tilde):
            out.extend([complex(v)] * int(alg - m))
        return np.array(out, dtype=complex)


def observable_partition(
    G,
    c,
    x0,
    *,
    cluster_tol: float = EIGEN_CLUSTER_TOL,
    weight_rtol: float = WEIGHT_ZERO_RTOL,
    pbh_rtol: float = PBH_RANK_RTOL,
) -> OracleSpectrum:
    """Split the spectrum of G into output-reachable and unreachable parts.

    Every distinct eigenvalue gets a PBH test. When G is numerically
    diagonalizable (eigenvector condition below 1e8) the modal weights
    ``omega_i = (c^T u_i)(w_i^T x0)`` are computed with ``W = U^{-1}``, and an
    eigenvalue is reachable iff its total weight (summed over coinciding
    eigenvalues) is nonzero relative to the data scale. For defective input
    only the x0-independent PBH verdict is available; recovered
    multiplicities beyond 1 are then not identifiable here (constructed test
    cases carry them explicitly instead).
    """
    M = as_array(G)
    n = M.shape[0]
    c = np.asarray(c, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if c.shape != (n,) or x0.shape != (n,):
        raise ValueError(f"c and x0 must be length-{n} vectors")

    vals, U = np.linalg.eig(M)
    groups = cluster_indices(vals, cluster_tol)
    means = [vals[g].mean() for g in groups]
    order = sorted(range(len(groups)), key=lambda i: (-means[i].real, -means[i].imag))
    groups = [groups[i] for i in order]
    distinct = np.array([means[i] for i in order], dtype=complex)
    algebraic = np.array([len(g) for g in groups], dtype=int)
    pbh = _pbh_deficiencies(M, c, distinct, pbh_rtol) > 0

    cond_u = np.linalg.cond(U)
    if np.isfinite(cond_u) and cond_u < DIAGONALIZABLE_COND_CAP:
        W = np.linalg.inv(U)
        omega = (c @ U) * (W @ x0)
        scale = max(
            float(np.max(np.abs(omega))),
            float(np.linalg.norm(c) * np.linalg.norm(x0)),
            np.finfo(float).tiny,
        )
        threshold = weight_rtol * scale
        weights = [np.array([complex(omega[g].sum())]) for g in groups]
        m_tilde = np.array(
            [1 if abs(w[0]) > threshold else 0 for w in weights], dtype=int
        )
        right, left = U, W
    else:
        weights = [np.zeros(0, dtype=complex) for _ in groups]
        m_tilde = np.array([0 if d else 1 for d in pbh], dtype=int)
        right = left = None

    eigenvalues = np.array(
        sorted((complex(v) for v in vals), key=lambda z: (-z.real, -z.imag)),
        dtype=complex,
    )
    return OracleSpectrum(
        eigenvalues=eigenvalues,
        distinct=distinct,
        algebraic=algebraic,
        m_tilde=m_tilde,
        pbh_deficient=pbh,
        modal_weights=weights,
        right_vectors=right,
        left_vectors=left,
    )


# =========================================================================
# Constructed defective cases
# =========================================================================


@dataclass(eq=False)
class JordanTestCase:
    """A matrix with known Jordan structure and controlled excited depths.

    ``weight_table[i][s]`` is the achieved total weight of chain depth ``s``
    for ``distinct[i]``; ``m_tilde[i]`` is the depth the estimator should
    recover (0 when the eigenvalue was zeroed out of the output entirely).
    """

    blocks: tuple[tuple[complex, int], ...]
    G: np.ndarray
    V: np.ndarray
    J: np.ndarray
    c: np.ndarray
    x0: np.ndarray
    distinct: tuple[complex, ...]
    weight_table: tuple[np.ndarray, ...]
    m_tilde: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def expected_rank(self) -> int:
        """The Hankel rank a correct pipeline detects: sum of excited depths."""
        return int(sum(self.m_tilde))

    @property
    def observable(self) -> list[tuple[complex, int]]:
        return [
            (complex(v), int(m)) for v, m in zip(self.distinct, self.m_tilde) if m > 0
        ]

    @property
    def setup(self) -> ObservationSetup:
        return ObservationSetup(x0=self.x0, c=self.c)


def _total_weights(blocks, offsets, distinct, mhat, a, b) -> list[np.ndarray]:
    """omega-bar^(s) per distinct eigenvalue from Jordan-basis coordinates a, b."""
    table = []
    for d in distinct:
        row = np.zeros(mhat[d], dtype=complex)
        for (lam, m), o in zip(blocks, offsets):
            if lam != d:
                continue
            for s in range(m):
                acc = 0.0 + 0.0j
                for l in range(s + 1, m + 1):
                    acc += a[o + l - s - 1] * b[o + l - 1]
                row[s] += acc
        table.append(row)
    return table


def make_jordan_case(
    blocks, zero_weights=(), seed=None, max_condition: float = 100.0
) -> JordanTestCase:
    """Build ``G = V J V^{-1}`` with prescribed Jordan blocks and weight zeros.

    ``blocks`` is a sequence of ``(eigenvalue, size)``; complex eigenvalues
    must appear with their conjugate partner (same size) so G is real. ``V``
    is resampled until its condition number is at most ``max_condition``.
    ``zero_weights`` lists ``(eigenvalue, depth)`` pairs whose total weight
    the output weighting must cancel; patterns are supported on real
    eigenvalues (conjugate-pair weights stay generic). The achieved weight
    table is verified and recorded, so ``expected_rank`` always reflects the
    case actually constructed. A pattern satisfiable only by ``c = 0``
    raises ``InfeasiblePatternError``.
    """
    blocks = tuple((complex(lam), int(m)) for lam, m in blocks)
    if not blocks:
        raise ValueError("at least one block required")
    if any(m < 1 for _, m in blocks):
        raise ValueError("block sizes must be positive")
    pos = Counter((lam, m) for lam, m in blocks if lam.imag > 0)
    neg = Counter((lam.conjugate(), m) for lam, m in blocks if lam.imag < 0)
    if pos != neg:
        raise ValueError("complex blocks must come in conjugate pairs of equal size")

    sizes = [m for _, m in blocks]
    n = int(sum(sizes))
    offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1].astype(int)

    J = np.zeros((n, n), dtype=complex)
    for (lam, m), o in zip(blocks, offsets):
        for i in range(m):
            J[o + i, o + i] = lam
            if i + 1 < m:
                J[o + i, o + i + 1] = 1.0

    # pair conjugate blocks so V (conjugate-paired columns) gives a real G
    taken: set[int] = set()
    conj_pairs: list[tuple[int, int]] = []
    for p, (lam, m) in enumerate(blocks):
        if lam.imag > 0 and p not in taken:
            q = next(
                j
                for j, (l2, m2) in enumerate(blocks)
                if j not in taken and j != p and l2 == lam.conjugate() and m2 == m
            )
            taken.update((p, q))
            conj_pairs.append((p, q))
    real_ids = [i for i, (lam, _) in enumerate(blocks) if lam.imag == 0]

    rng = np.random.default_rng(seed)
    V = None
    for _ in range(500):
        cand = np.zeros((n, n), dtype=complex)
        for i in real_ids:
            o, m = int(offsets[i]), blocks[i][1]
            cand[:, o : o + m] = rng.standard_normal((n, m))
        for p, q in conj_pairs:
            o_p, m = int(offsets[p]), blocks[p][1]
            o_q = int(offsets[q])
            Z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            cand[:, o_p : o_p + m] = Z
            cand[:, o_q : o_q + m] = Z.conj()
        if np.linalg.cond(cand) <= max_condition:
            V = cand
            break
    if V is None:
        raise RuntimeError(f"no similarity with condition <= {max_condition} found")

    Vinv = np.linalg.inv(V)
    Graw = V @ J @ Vinv
    if np.max(np.abs(Graw.imag)) > 1e-9 * max(1.0, np.max(np.abs(Graw.real))):
        raise RuntimeError("constructed matrix failed to be real")
    G = np.ascontiguousarray(Graw.real)

    # initial state with generic Jordan-basis coordinates
    x0 = rng.uniform(-1.0, 1.0, n)
    b = Vinv @ x0
    for _ in range(100):
        if np.min(np.abs(b)) > 1e-6 * np.max(np.abs(b)):
            break
        x0 = rng.uniform(-1.0, 1.0, n)
        b = Vinv @ x0

    distinct: list[complex] = []
    for lam, _ in blocks:
        if all(lam != d for d in distinct):
            distinct.append(lam)
    mhat = {d: max(m for lam, m in blocks if lam == d) for d in distinct}

    requested: set[tuple[complex, int]] = set()
    for e, s in zero_weights:
        e = complex(e)
        match = next(
            (d for d in distinct if abs(d - e) <= 1e-12 * max(1.0, abs(d))), None
        )
        if match is None:
            raise ValueError(f"no block has eigenvalue {e}")
        if match.imag != 0:
            raise ValueError("zero-weight patterns are supported on real eigenvalues only")
        s = int(s)
        if not 0 <= s < mhat[match]:
            raise ValueError(f"depth {s} out of range for eigenvalue {match}")
        requested.add((match, s))

    real_coords = [int(offsets[i]) + j for i in real_ids for j in range(blocks[i][1])]
    coord_pos = {g: idx for idx, g in enumerate(real_coords)}
    rows = []
    for e, s in sorted(requested, key=lambda t: (t[0].real, t[1])):
        row = np.zeros(len(real_coords))
        for (lam, m), o in zip(blocks, offsets):
            if lam != e:
                continue
            for l in range(s + 1, m + 1):
                row[coord_pos[int(o) + (l - s) - 1]] += b[int(o) + l - 1].real
        rows.append(row)
    if rows:
        basis = scipy.linalg.null_space(np.vstack(rows))
    else:
        basis = np.eye(len(real_coords))

    a = np.zeros(n, dtype=complex)
    table: list[np.ndarray] = []
    for attempt in range(100):
        a = np.zeros(n, dtype=complex)
        if basis.size:
            a[real_coords] = basis @ rng.standard_normal(basis.shape[1])
        for p, q in conj_pairs:
            o_p, m = int(offsets[p]), blocks[p][1]
            o_q = int(offsets[q])
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            a[o_p : o_p + m] = w
            a[o_q : o_q + m] = w.conj()
        if np.max(np.abs(a)) == 0.0:
            raise InfeasiblePatternError(
                "the requested zero pattern forces the output weighting to zero"
            )
        table = _total_weights(blocks, offsets, distinct, mhat, a, b)
        wscale = max(1.0, max(np.max(np.abs(t), initial=0.0) for t in table))
        zeros_ok = all(
            abs(table[distinct.index(e)][s]) <= 1e-9 * wscale for e, s in requested
        )
        generic_ok = all(
            abs(table[di][s]) > 1e-6 * wscale
            for di, d in enumerate(distinct)
            for s in range(mhat[d])
            if (d, s) not in requested
        )
        if zeros_ok and (generic_ok or attempt == 99):
            break

    c = np.linalg.solve(V.T, a)
    if np.max(np.abs(c.imag)) > 1e-9 * max(1.0, np.max(np.abs(c.real))):
        raise RuntimeError("constructed output weighting failed to be real")
    c = np.ascontiguousarray(c.real)

    wscale = max(1.0, max(np.max(np.abs(t), initial=0.0) for t in table))
    m_tilde = []
    for di, d in enumerate(distinct):
        excited = [s for s in range(mhat[d]) if abs(table[di][s]) > 1e-9 * wscale]
        m_tilde.append(1 + max(excited) if excited else 0)

    return JordanTestCase(
        blocks=blocks,
        G=G,
        V=V,
        J=J,
        c=c,
        x0=x0,
        distinct=tuple(distinct),
        weight_table=tuple(table),
        m_tilde=tuple(m_tilde),
    )


# =========================================================================
# Spectrum matching
# =========================================================================


@dataclass(eq=False)
class MatchReport:
    """Minimum-cost pairing of an estimated spectrum against a truth list."""

    pairs: list[tuple[complex, complex, float]]
    unmatched_true: list[complex]
    unmatched_estimated: list[complex]
    max_error: float
    mean_error: float

    @property
    def matched_all(self) -> bool:
        return not self.unmatched_true and not self.unmatched_estimated

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
    if isinstance(spectrum, SpectrumEstimate):
        return spectrum.expanded()
    if isinstance(spectrum, OracleSpectrum):
        return spectrum.eigenvalues.copy()
    spectrum = list(spectrum)
    if spectrum and isinstance(spectrum[0], tuple):
        return np.array([v for v, m in spectrum for _ in range(int(m))], dtype=complex)
    return np.asarray(spectrum, dtype=complex)


def match_spectra(estimated, truth, tol: float) -> MatchReport:
    """Hungarian matching on |estimated - true| with multiplicities expanded.

    Assignment pairs farther apart than ``tol`` are reported unmatched on
    both sides. ``estimated`` and ``truth`` accept a SpectrumEstimate /
    OracleSpectrum, a list of (value, multiplicity) pairs, or a flat list.
    """
    est = _expand_values(estimated)
    true = _expand_values(truth)
    if est.size == 0 or true.size == 0:
        return MatchReport(
            pairs=[],
            unmatched_true=[complex(v) for v in true],
            unmatched_estimated=[complex(v) for v in est],
            max_error=0.0,
            mean_error=0.0,
        )
    cost = np.abs(est[:, None] - true[None, :])
    rows, cols = linear_sum_assignment(cost)
    pairs: list[tuple[complex, complex, float]] = []
    un_e = set(range(est.size))
    un_t = set(range(true.size))
    for r, ccol in zip(rows, cols):
        d = float(cost[r, ccol])
        if d <= tol:
            pairs.append((complex(est[r]), complex(true[ccol]), d))
            un_e.discard(int(r))
            un_t.discard(int(ccol))
    errors = [d for _, _, d in pairs]
    return MatchReport(
        pairs=pairs,
        unmatched_true=[complex(true[i]) for i in sorted(un_t)],
        unmatched_estimated=[complex(est[i]) for i in sorted(un_e)],
        max_error=max(errors) if errors else 0.0,
        mean_error=float(np.mean(errors)) if errors else 0.0,
    )
