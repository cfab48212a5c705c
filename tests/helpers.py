"""Shared constructors for seeded test systems.

The observability tests need matrices whose spectrum is known exactly and
whose unobservable modes are placed deliberately: an orthogonally similar
diagonal matrix hides mode ``i`` exactly when the output weighting has a zero
coordinate in the eigenbasis. Eigenvalues come from a jittered ladder so
every pair is well separated and no conditioning accident can blur the
pass/fail line.

``make_jordan_case`` manufactures matrices with known Jordan structure and a
controlled pattern of excited chain depths, which is the only honest way to
test multiplicity handling (numerically Jordan-decomposing an arbitrary
matrix is ill-posed).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from spectral_scope import ObservationSetup

__all__ = [
    "orthogonal",
    "spaced_eigenvalues",
    "hidden_mode_system",
    "InfeasiblePatternError",
    "JordanTestCase",
    "make_jordan_case",
]


def orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR with sign-fixed diagonal."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def spaced_eigenvalues(n: int, rng: np.random.Generator) -> np.ndarray:
    """n distinct reals on a jittered ladder across [-1.5, 1.5] (gaps >= 0.2)."""
    return np.linspace(-1.5, 1.5, n) + rng.uniform(-0.05, 0.05, n)


def hidden_mode_system(n: int, rng: np.random.Generator, hidden_count: int = 1):
    """A diagonalizable system with exactly ``hidden_count`` unobservable modes.

    Returns ``(G, setup, eigenvalues, hidden_indices)`` where
    ``G = Q diag(eigenvalues) Q^T`` and the output weighting is zero along the
    hidden eigenvectors and O(1) along every other one; the initial state is
    redrawn until every retained mode carries an O(1) weight too, so the
    constructed case has exactly the advertised invisible set.
    """
    D = spaced_eigenvalues(n, rng)
    Q = orthogonal(n, rng)
    G = Q @ np.diag(D) @ Q.T
    hidden = np.sort(rng.choice(n, size=hidden_count, replace=False))
    v = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
    v[hidden] = 0.0
    c = Q @ v
    for _ in range(100):
        x0 = rng.uniform(0.5, 1.5, n)
        if np.min(np.abs(Q.T @ x0)) >= 0.1:
            break
    return G, ObservationSetup(x0=x0, c=c), D, hidden


# =========================================================================
# Constructed defective cases
# =========================================================================


class InfeasiblePatternError(ValueError):
    """The requested zero-weight pattern admits only the zero output weighting."""


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
        basis = null_space(np.vstack(rows))
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
