"""Grouping and conjugate-pairing helpers for finite complex spectra.

Shared by the estimator (merging numerically split polynomial roots) and the
oracle (grouping repeated eigenvalues). All tolerances are relative to
max(1, |value|) so unit-scale and large spectra behave alike.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = ["cluster_complex", "enforce_conjugate_pairs"]


def cluster_indices(values, tol: float) -> list[np.ndarray]:
    """Group indices of ``values`` whose entries sit within ``tol`` of each other.

    Entries i and j are near when ``|v_i - v_j| <= tol * max(1, |v_i|, |v_j|)``
    (a NaN modulus drops out of the max, a NaN distance is never near).
    Merging is transitive (union-find), so chains of nearby points collapse
    into a single group. Groups come back ordered by first member index.
    """
    vals = np.asarray(values, dtype=complex)
    # np.hypot is libm's hypot, as Python's abs(complex) is; np.abs of a
    # complex array can differ from it in the last bit
    mod = np.hypot(vals.real, vals.imag)
    with np.errstate(invalid="ignore"):
        diff = vals[:, None] - vals[None, :]
        near = np.hypot(diff.real, diff.imag) <= tol * np.fmax(1.0, np.fmax.outer(mod, mod))
    parent = list(range(len(vals)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(np.triu(near, 1))):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[int]] = {}
    for i in range(len(vals)):
        groups.setdefault(find(i), []).append(i)
    return [np.array(groups[r], dtype=int) for r in sorted(groups)]


def _centroid(group: np.ndarray) -> complex:
    """``complex(group.mean())`` bit for bit, unless the sum of finite values overflows;
    a lone value skips np.mean but keeps its zero-started sum and, if complex, Smith's
    division by 1: both send a -0.0 real part to +0.0."""
    if len(group) > 1:
        with np.errstate(over="ignore", invalid="ignore"):
            mean = complex(group.mean())
        if not cmath.isfinite(mean) and np.isfinite(group).all():
            # A part of the sum overflowed (and numpy's complex division by len
            # may turn the other part into inf * 0 = nan), but the mean lies
            # within the doubles. Scaling by a power of two at most 1/len keeps
            # the sum in range and is exact down to subnormals.
            s = 0.5 ** len(group).bit_length()
            scaled = complex((group * s).mean())
            re = mean.real if math.isfinite(mean.real) else scaled.real / s
            im = mean.imag if math.isfinite(mean.imag) else scaled.imag / s
            mean = complex(re, im)
        return mean
    z = complex(group[0])
    a, b = 0.0 + z.real, 0.0 + z.imag
    return complex(a + b * 0.0, b - a * 0.0) if np.iscomplexobj(group) else complex(a)


def _spectral_order(v: complex) -> tuple[float, float]:
    """The sort key of every spectrum listing: descending real part, then
    descending imaginary part, which keeps conjugate partners adjacent."""
    return -v.real, -v.imag


def cluster_complex(values, tol: float) -> list[tuple[complex, int]]:
    """Merge nearby complex values into (centroid, count) pairs.

    Pairs are sorted by ``_spectral_order`` of their centroids.
    """
    vals = np.asarray(values, dtype=complex)
    out = [(_centroid(vals[idx]), len(idx)) for idx in cluster_indices(vals, tol)]
    out.sort(key=lambda vm: _spectral_order(vm[0]))
    return out


def enforce_conjugate_pairs(
    pairs: list[tuple[complex, int]], tol: float
) -> list[tuple[complex, int]]:
    """Symmetrize (value, multiplicity) pairs of a real-coefficient spectrum.

    Near-real values snap onto the real axis; the rest are matched with their
    best conjugate partner and both are replaced by the exact conjugate pair
    of their average. Values without a partner pass through unchanged.
    """
    snapped: list[tuple[complex, int]] = []
    for v, m in pairs:
        if abs(v.imag) <= tol * max(1.0, abs(v)):
            snapped.append((complex(v.real, 0.0), m))
        else:
            snapped.append((complex(v), m))

    pos = [i for i, (v, _) in enumerate(snapped) if v.imag > 0]
    neg = [i for i, (v, _) in enumerate(snapped) if v.imag < 0]
    out = list(snapped)
    used: set[int] = set()
    for i in pos:
        v, m = snapped[i]
        best, best_d = None, np.inf
        for j in neg:
            if j in used:
                continue
            d = abs(v - snapped[j][0].conjugate())
            if d < best_d:
                best, best_d = j, d
        if best is not None and best_d <= tol * max(1.0, abs(v)):
            used.add(best)
            avg = (v + snapped[best][0].conjugate()) / 2.0
            out[i] = (avg, m)
            out[best] = (avg.conjugate(), snapped[best][1])
    out.sort(key=lambda vm: _spectral_order(vm[0]))
    return out
