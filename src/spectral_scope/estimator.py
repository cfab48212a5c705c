"""Hankel-based recovery of a network spectrum from one scalar output record.

The pipeline: fill the largest square Hankel matrix ``H[i, j] = y[i + j]``
with (optionally geometrically prescaled) outputs, detect its numerical rank
r, solve the r x r Hankel system for the coefficients of a monic degree-r
polynomial, read the roots off its balanced companion matrix, merge
numerically split roots into (value, multiplicity) pairs, and, for sampled
continuous-time data, map each root through the principal complex logarithm.
Networked outputs first have the known identical per-agent dynamics, which
the record carries as its ``node``, stripped, after which the plain pipeline
applies unchanged. The node weights that stripping divides out are the
agent's own output sequence, which the simulators in ``dynamics`` roll out;
this module runs no rollout of its own. ``estimate_spectrum`` runs the whole
pipeline for every kind of record.

The detected rank equals the number of eigenvalues that are actually present
in the output (weighted by how much of each Jordan chain the initial state
and the output weighting excite), so unobservable modes simply never appear:
no model order is assumed.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .clustering import _spectral_order, cluster_complex, enforce_conjugate_pairs
from .dynamics import (CT, DT, NodeDynamics, ObservationSetup, OutputSequence, SimulationOverflowError,
                       _mode_of, simulate_ct_sampled, simulate_dt)
from .graphs import (_binade, _complex, _count, _iterable, _json_object, _pairs, _positive, _reading, _real,
                     _tolerance, _whole)

__all__ = [
    "SpectrumEstimate",
    "OnlineRankDetection",
    "EstimationError",
    "detect_rank_online",
    "nu_sequence",
    "deconvolve_sigma",
    "estimate_spectrum",
]

RANK_TOL_BASE = 1e-10
DEFAULT_CLUSTER_TOL = 1e-6
ILL_CONDITION_LIMIT = 1e12
PRESCALE_TRIGGER = 1e6
NU_ZERO_RTOL = 1e-12
ETA_ZERO_TOL = 1e-12
ALIAS_MARGIN = 1e-9


class EstimationError(ValueError):
    """A well-formed record that holds no estimate: fewer samples than twice
    its detected rank, a node weight the deconvolution divides by that is
    numerically zero, or a recovered discrete root at zero, where no finite
    continuous eigenvalue exists."""


@dataclass(frozen=True, eq=False)
class HankelAnalysis:
    """A square Hankel matrix of outputs with its SVD-based rank decision.
    ``singular_values`` are those of ``matrix`` times the power of two that
    puts its largest |entry| in [1, 2), so they do not move with the scale."""

    matrix: np.ndarray
    singular_values: np.ndarray
    rank: int
    rank_tolerance: float
    scale_rho: float
    y_scaled: np.ndarray
    y_raw: np.ndarray


@dataclass(frozen=True, eq=False)
class CharacteristicPoly:
    """Monic polynomial whose roots are the recoverable eigenvalues.

    ``coefficients`` holds alpha_0 .. alpha_{r-1} in ascending order, so its
    length is the degree r; the leading coefficient is an implicit 1.
    ``residual`` is the relative norm of the solved Hankel system's defect and
    ``condition`` estimates the conditioning of that solve.
    """

    coefficients: np.ndarray
    residual: float
    condition: float
    # same coefficients kept in extended precision when the solve refined
    # them past double rounding; consumed by the root polish, never exported
    coefficients_hi: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Recovered eigenvalues with multiplicities plus solve diagnostics. The
    ``rank`` sums the multiplicities, and the ``mode`` is ``CT`` with a tau.
    ``ValueError`` for roots that are no iterable, a root that is not a tuple
    of a finite number and a whole multiplicity >= 1 (``graphs._pairs``), a
    tau or rho that is not positive and finite, a residual below 0 or a
    condition below 1 (both may be infinite, a None one too) or a non-string
    warning."""

    roots: list[tuple[complex, int]]
    tau: float | None = None
    residual: float = 0.0
    condition: float = 1.0
    scale_rho: float = 1.0
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        roots = _pairs(self.roots, "roots", "root {}", flat=False)
        # NaN fails both tests, and _real gives it for a bool, a string or a huge int
        if not (residual := _real(self.residual)) >= 0:
            raise ValueError(f"residual must be a number >= 0, got {self.residual!r}")
        if not (condition := math.inf if self.condition is None else _real(self.condition)) >= 1:
            raise ValueError(f"condition must be null or a number >= 1, got {self.condition!r}")
        if not (isinstance(self.warnings, (list, tuple)) and all(isinstance(w, str) for w in self.warnings)):
            raise ValueError(f"warnings must be a list of strings, got {self.warnings!r}")
        vars(self).update(  # frozen: the checked values are set here, once
            roots=roots, tau=None if self.tau is None else _positive(self.tau, "tau"), residual=residual,
            condition=condition, scale_rho=_positive(self.scale_rho, "rho"), warnings=tuple(self.warnings))

    @property
    def mode(self) -> str:
        return _mode_of(self.tau)

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.roots)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "mode": self.mode,
            "tau": self.tau,
            "rank": self.rank,
            "residual": self.residual,
            "condition": self.condition if np.isfinite(self.condition) else None,
            "rho": self.scale_rho,
            "roots": [
                {"re": v.real, "im": v.imag, "multiplicity": m} for v, m in self.roots
            ],
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_json_dict(cls, d) -> "SpectrumEstimate":
        """The estimate ``to_json_dict`` wrote. ``ValueError`` for anything
        the record refuses, and for a file that is not a JSON object with
        ``roots``, ``mode``, ``rank`` and ``residual``, of schema 1, whose
        roots are not objects of numbers ``re``, ``im`` and ``multiplicity``,
        whose mode is not ``DT``, with no tau, or ``CT``, with a positive
        one, or whose rank is not the sum of the multiplicities. A null
        condition is an infinite one."""
        _json_object(d, ("roots", "mode", "rank", "residual"))
        if (schema := d.get("schema")) != 1 or isinstance(schema, bool):
            raise ValueError(f"schema must be 1, got {schema!r}")
        if not isinstance(d["roots"], list):
            raise ValueError(f"roots must be a list, got {d['roots']!r}")
        roots = []
        for k, r in enumerate(d["roots"]):
            with _reading("root", k):
                _json_object(r, ("re", "im", "multiplicity"))
                if not (type(r["re"]) in (int, float) and type(r["im"]) in (int, float)):  # JSON numbers, no bool
                    raise ValueError(f"re and im must be numbers, got {r['re']!r} and {r['im']!r}")
            roots.append((_complex(r["re"], r["im"], name=f"root {k}"), r["multiplicity"]))
        mode, tau = d["mode"], d.get("tau")
        if mode not in (DT, CT):
            raise ValueError(f"mode must be {DT!r} or {CT!r}, got {mode!r}")
        if mode == DT and tau is not None:
            raise ValueError(f"a {DT!r} spectrum has no tau, got {tau!r}")
        est = cls(roots, tau=None if mode == DT else _positive(tau, "tau"), residual=d["residual"],
                  condition=d.get("condition"), scale_rho=d.get("rho", 1.0), warnings=d.get("warnings", []))
        if (rank := _whole(d["rank"], "rank")) != est.rank:
            raise ValueError(f"rank {rank} is not the sum of the root multiplicities, {est.rank}")
        return est


@dataclass(frozen=True, eq=False)
class OnlineRankDetection:
    """Result of streaming rank detection: the rank, whether it stabilized
    before the stream ran dry, and the prefix read, whose length is the number
    of samples consumed."""

    rank: int
    stabilized: bool
    values: np.ndarray


def geometric_prescale(values) -> tuple[float, np.ndarray]:
    """Scale out geometric growth: rho = max(1, max_k |y_k|^(1/max(k,1))).

    The scaled sequence ``y_k / rho^k`` has all recoverable roots divided by
    rho, so callers must multiply recovered roots back. Keeps the Hankel
    matrix of strongly unstable data away from the floating range edge.
    """
    v = np.asarray(values, dtype=float)
    exponents = 1.0 / np.maximum(np.arange(len(v)), 1)
    rho = float(max(1.0, np.max(np.abs(v) ** exponents)))
    if (len(v) - 1) * math.log2(rho) < 1023:
        return rho, v / rho ** np.arange(len(v))
    # rho^k lies beyond the double range, though |y_k| / rho^k <= 1 does not:
    # divide rho out one factor at a time
    scaled = v.copy()
    for k in range(1, len(v)):
        scaled[k:] /= rho
    return rho, scaled


def _hankel_rank(values: np.ndarray, size: int, rel_tol: float | None):
    """The size x size Hankel matrix of ``values``, the singular values of
    that matrix scaled by ``_binade``, its rank and the relative tolerance
    that rank used: ``rel_tol``, which the caller has checked, or by default
    ``1e-10 * max(1, size)``."""
    rel_tol = RANK_TOL_BASE * max(1, size) if rel_tol is None else rel_tol
    idx = np.arange(size)
    H = values[idx[:, None] + idx]  # H[i, j] = values[i + j], a copy
    s = np.linalg.svd(np.ldexp(H, _binade(H)), compute_uv=False)
    rank = int(np.count_nonzero(s > rel_tol * s[0])) if s[0] > 0 else 0
    return H, s, rank, rel_tol


def build_hankel(y, prescale: bool = False, rank_tolerance: float | None = None) -> HankelAnalysis:
    """Largest square Hankel matrix from K finite outputs, with numerical rank.

    The matrix has order ``r_max = floor((K + 1) / 2)`` so every entry
    ``y[i + j]`` exists; rank counts singular values above
    ``rank_tolerance * sigma_1`` (an all-zero sequence has rank 0). The
    samples and the tolerance are taken as estimate_spectrum checked them.
    """
    values = np.asarray(y, dtype=float)
    rho, scaled = geometric_prescale(values) if prescale else (1.0, values)
    r_max = (len(values) + 1) // 2
    H, s, rank, tol = _hankel_rank(scaled, r_max, rank_tolerance)
    return HankelAnalysis(
        matrix=H,
        singular_values=s,
        rank=rank,
        rank_tolerance=tol,
        scale_rho=rho,
        y_scaled=scaled,
        y_raw=values,
    )


def detect_rank_online(stream, n_hint: int | None = None, rank_tolerance: float | None = None) -> OnlineRankDetection:
    """Streaming rank detection: grow a k x k Hankel matrix one k at a time.

    Stops as soon as appending ``y[2k-1]`` and ``y[2k]`` fails to grow the
    rank, or once k reaches a known system size ``n_hint`` (consuming at most
    2 * n_hint samples, including the extra sample the coefficient solve
    needs when the rank is still full at the cap). If the stream dries up
    first, the best-effort rank is returned with ``stabilized=False``.
    ``n_hint`` must be a whole number >= 1 and ``rank_tolerance`` a finite
    number >= 0, and ``stream`` an iterable; ``ValueError`` otherwise, before
    any sample is read. The samples read obey the number rule of
    ``OutputSequence``, or ``ValueError``.
    """
    n_hint = None if n_hint is None else _count(n_hint, "n_hint", 1)
    if rank_tolerance is not None:
        rank_tolerance = _tolerance(rank_tolerance, "rank tolerance")
    it = _iterable(stream, "stream", "samples")
    raw: list = []
    buf = np.zeros(0)

    def pull(count: int) -> bool:
        nonlocal buf
        raw.extend(itertools.islice(it, count - len(raw)))
        if raw:  # checked as estimate_spectrum checks the same list
            buf = OutputSequence(raw).values
        return len(raw) == count

    prev: int | None = None
    k = 1
    while True:
        if not pull(2 * k - 1):
            size = (len(buf) + 1) // 2
            rank = _hankel_rank(buf, size, rank_tolerance)[2] if size >= 1 else 0
            return OnlineRankDetection(rank, False, buf)
        rk = _hankel_rank(buf[: 2 * k - 1], k, rank_tolerance)[2]
        if prev is not None and rk == prev:
            return OnlineRankDetection(rk, True, buf)
        if n_hint is not None and k >= n_hint:
            # the solve needs y[0..2r-1]; fetch the tail while the stream lasts
            got = pull(max(2 * rk, len(buf)))
            return OnlineRankDetection(rk, got, buf)
        prev = rk
        k += 1


def _dyadic(values) -> tuple[list[int], int]:
    """Integers n_k and one exponent e <= 0 with ``values[k] == n_k * 2**e`` exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    shift = max(d.bit_length() for _, d in ratios) - 1
    return [n << (shift + 1 - d.bit_length()) for n, d in ratios], -shift


def _ratio_to_float(num: int, e: int, den: int) -> float:
    # num * 2^e / den correctly rounded: int / int rounds once, like float(Fraction),
    # and over a positive den, so an exact zero is +0.0 as the Fraction's is (0 / -3 is -0.0)
    if den < 0:
        num, den = -num, -den
    return (num << e) / den if e >= 0 else num / (den << -e)


def _residual_rows(raw: np.ndarray, rho: float, r: int, scale: int = 0) -> tuple:
    """Integer constants of the scaled Hankel system, in its Hankel structure.

    With ``rho = p / 2^t`` and ``raw[k] = R_k 2^q``, row i of the residual
    ``sum_j raw[i+j] x_j / rho^(i+j) + raw[r+i] / rho^(r+i)`` equals
    ``2^(q+ti) (R_{r+i} 2^(tr) + sum_j R_{i+j} w_j x_j) / p^(r+i)`` with
    column weights ``w_j = p^(r-j) 2^(tj)``: one common denominator per row.
    Returns the 2r sample integers R, the weights, and per row its head
    ``R_{r+i} 2^(tr)``, exponent ``q + ti + scale`` and denominator
    ``p^(r+i)``: the residual comes out times ``2^scale``, rounded once.
    """
    p, d = float(rho).as_integer_ratio()
    t = d.bit_length() - 1
    R, q = _dyadic(np.asarray(raw[: 2 * r], dtype=float).tolist())
    powers = list(itertools.accumulate([p] * (2 * r - 1), operator.mul, initial=1))
    weights = [powers[r - j] << (t * j) for j in range(r)]
    return R, weights, [v << (t * r) for v in R[r:]], [q + t * i + scale for i in range(r)], powers[r:]


def _exact_residual(rows: tuple, x: np.ndarray, parts: tuple | None = None) -> np.ndarray:
    """Residual of the scaled Hankel system, exact up to one final rounding.

    ``rows`` comes from _residual_rows. The long-double iterate is taken
    exactly, as integers ``X_j`` and one exponent g with ``x_j = X_j 2^g``
    (``parts``, from _dyadic when not given). ``V_j = w_j X_j`` is formed
    once, and row i's numerator is the exact integer ``head_i 2^(-g) +
    sum_j R_{i+j} V_j``, so the only rounding is the correctly rounded
    integer division at the end. That is what lets the refinement sweeps in
    solve_coefficients contract well past the naive eps*cond(H) floor, where
    the rounding of the scaled matrix entries would otherwise dominate.
    """
    R, weights, heads, exponents, dens = rows
    X, g = _dyadic(x) if parts is None else parts
    V = list(map(operator.mul, weights, X))
    out = np.empty(len(heads))
    for i, (head, e, den) in enumerate(zip(heads, exponents, dens)):
        out[i] = _ratio_to_float((head << -g) + sum(map(operator.mul, R[i:], V)), e + g, den)
    return out


_REFINE_SWEEPS = 6
_REFINE_SIZE_CAP = 64


# an overflow or NaN here is reported, ends the refinement, or is the figure
# itself (an infinite residual); numpy need not print a warning first
@np.errstate(over="ignore", invalid="ignore")
def solve_coefficients(h: HankelAnalysis) -> CharacteristicPoly:
    """Solve ``H_r alpha = -(y[r..2r-1])`` for the monic polynomial coefficients.

    Uses the SVD pseudo-inverse truncated at the detected-rank tolerance
    (never an explicit inverse), then iterates the same truncated operator
    against exactly computed residuals; each sweep contracts the forward
    error by roughly eps * cond(H_r), so the coefficients come out close to
    the exact-arithmetic solution of the stored system even when the Hankel
    condition number is large. The iterate with the smallest residual norm
    is kept (the first one on ties). Refinement stops at a zero residual, at
    a non-finite iterate, after ``_REFINE_SWEEPS`` sweeps, or as soon as an
    iterate repeats an earlier one: a sweep depends on the iterate alone, so
    from there on the iterates cycle and none can beat the kept one. Iterates
    are compared by the exact integers from _dyadic that the residual takes.
    Reports the relative residual ``||H_r alpha + y_rhs|| / ||y_rhs||`` plus
    a condition estimate. H_r and the right-hand side are taken scaled by
    H_r's ``_binade``, which leaves all three as they are. Rank 0 yields the
    empty polynomial, and a coefficient beyond the double range raises
    ``OverflowError``.
    """
    r = h.rank
    y = h.y_scaled
    if r == 0:
        return CharacteristicPoly(np.zeros(0), 0.0, 1.0)
    if len(y) < 2 * r:
        raise EstimationError(f"need {2 * r} samples to solve at rank {r}, have {len(y)}")
    # H_r's binade alone: one taken from rhs too flushes H_r to zero once |rhs| /
    # |H_r| passes 2^1074. rhs is its own array: BLAS sums a strided one otherwise
    Hr = h.matrix[:r, :r]
    e = _binade(Hr)
    Hr, rhs = np.ldexp(Hr, e), np.ldexp(-y[r : 2 * r], e)
    U, s, Vt = np.linalg.svd(Hr)
    keep = s > h.rank_tolerance * s[0] if s[0] > 0 else np.zeros_like(s, dtype=bool)
    kept = s[keep]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / kept

    def apply_pinv(v: np.ndarray) -> np.ndarray:
        return Vt.T @ (inv * (U.T @ v))

    alpha = apply_pinv(rhs)
    if not np.all(np.isfinite(alpha)):
        raise OverflowError("a characteristic polynomial coefficient lies beyond the double range")
    alpha_hi = None
    raw = h.y_raw
    if np.any(keep) and r <= _REFINE_SIZE_CAP:
        rows = _residual_rows(raw, h.scale_rho, r, e)
        best, best_norm = np.asarray(alpha, dtype=np.longdouble), float("inf")
        x = best
        seen: set[tuple[int, ...]] = set()
        for sweep in range(_REFINE_SWEEPS + 1):
            parts = _dyadic(x)
            if (key := (parts[1], *parts[0])) in seen:
                break
            seen.add(key)
            try:
                res = _exact_residual(rows, x, parts)
            except OverflowError:  # a residual beyond the doubles: this iterate is no better
                break
            rnorm = math.sqrt(res @ res)  # np.linalg.norm's sum and root, without its dispatch
            if rnorm < best_norm:
                best, best_norm = x, rnorm
            if rnorm == 0.0 or sweep == _REFINE_SWEEPS:
                break
            x = x - apply_pinv(res).astype(np.longdouble)
            if not np.all(np.isfinite(x.astype(float))):
                break
        alpha_hi = best
        alpha = best.astype(float)
    residual = _relative_defect(Hr, alpha, rhs)
    smallest_kept = kept[-1] if kept.size else 0.0
    condition = float(s[0] / smallest_kept) if smallest_kept > 0 else float("inf")
    return CharacteristicPoly(alpha, residual, condition, alpha_hi)


def _relative_defect(Hr: np.ndarray, alpha: np.ndarray, rhs: np.ndarray) -> float:
    """``||H_r alpha - rhs|| / ||rhs||``, or the defect's norm alone for a zero
    ``rhs`` (whose defect is zero too). Both vectors are scaled by ``rhs``'s
    ``_binade`` first, so ``||rhs||`` never squares its entries past the
    double range, and a ratio beyond it comes out infinite."""
    e = _binade(rhs)
    defect, rhs = np.ldexp(Hr @ alpha - rhs, e), np.ldexp(rhs, e)
    defect_norm, rhs_norm = math.sqrt(defect @ defect), math.sqrt(rhs @ rhs)
    return defect_norm / rhs_norm if rhs_norm > 0 else defect_norm


def _polish_roots(monic: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """A few guarded Newton steps per root, evaluated in extended precision.

    The companion-matrix eigensolver is backward stable in doubles; when the
    coefficients themselves are accurate (see solve_coefficients) the roots
    can be tightened further by Newton iteration with the polynomial and its
    derivative evaluated via Horner in long double. Steps that fail to shrink
    |p(z)| are rejected, which keeps clustered (near-multiple) roots where the
    eigensolver put them. An accepted candidate's ``p(z)`` is carried into the
    next step, so a root costs one Horner call for ``p(z0)`` plus two per
    step (``p'(z)`` and ``p(z - p(z)/p'(z))``), at most three steps.
    """
    coeff = monic.astype(np.clongdouble)
    deriv = coeff[:-1] * np.arange(len(coeff) - 1, 0, -1, dtype=np.clongdouble)
    # lists of the same long-double scalars: iterating the arrays would box a
    # new scalar per coefficient on every call
    coeff, deriv = list(coeff), list(deriv)

    def horner(c: list[np.clongdouble], z: np.clongdouble) -> np.clongdouble:
        acc = c[0]
        for ck in c[1:]:
            acc = acc * z + ck
        return acc

    out = np.empty(len(raw), dtype=complex)
    for i, z0 in enumerate(raw):
        z = np.clongdouble(z0)
        pval = horner(coeff, z)
        pz = abs(pval)
        for _ in range(3):
            dz = horner(deriv, z)
            if dz == 0 or pz == 0:
                break
            cand = z - pval / dz
            cval = horner(coeff, cand)
            pc = abs(cval)
            if not np.isfinite(float(pc)) or pc >= pz:
                break
            z, pval, pz = cand, cval, pc
        out[i] = complex(z)
    return out


def roots_with_multiplicity(
    p: CharacteristicPoly,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    scale_rho: float = 1.0,
) -> list[tuple[complex, int]]:
    """Roots of the monic polynomial as (value, multiplicity) pairs.

    Roots come from the eigenvalues of the balanced companion matrix with a
    short Newton polish; roots within ``cluster_tol * max(1, |root|)`` of
    each other merge into their centroid with summed multiplicity, conjugate
    symmetry is made exact, and any prescaling is undone by multiplying
    through by ``scale_rho``. ``cluster_tol`` is taken as estimate_spectrum
    checked it; a root beyond the double range is an ``OverflowError``.
    """
    if len(p.coefficients) == 0:
        return []
    monic = np.concatenate(([1.0], p.coefficients[::-1]))
    if p.coefficients_hi is not None:
        monic_hi = np.concatenate((np.ones(1, dtype=np.longdouble), p.coefficients_hi[::-1]))
    else:
        monic_hi = monic
    raw = _polish_roots(monic_hi, np.atleast_1d(np.roots(monic)))
    pairs = cluster_complex(raw, cluster_tol)
    pairs = enforce_conjugate_pairs(pairs, cluster_tol)
    if scale_rho != 1.0:
        pairs = [(v * scale_rho, m) for v, m in pairs]
    if not all(cmath.isfinite(v) for v, _ in pairs):
        raise OverflowError("a root lies beyond the double range")
    return pairs


# =========================================================================
# Node deconvolution, then the whole pipeline
# =========================================================================


def nu_sequence(node: NodeDynamics, K: int, tau: float | None = None) -> np.ndarray:
    """Node impulse weights: gamma^T A^k beta (discrete, no tau) or gamma^T e^{A k tau} beta (sampled).

    They are the agent's own output sequence: ``simulate_dt`` (or
    ``simulate_ct_sampled``) of ``A`` from ``x0 = beta`` through ``c =
    gamma``, with its precision and its memory bound of one rollout block.
    Raises ``OverflowError`` naming the first weight beyond the double range.
    """
    setup = ObservationSetup(x0=node.beta, c=node.gamma)
    try:
        y = simulate_dt(node.A, setup, K) if tau is None else simulate_ct_sampled(node.A, setup, tau, K)
    except SimulationOverflowError as exc:
        raise OverflowError(f"node weight nu[{exc.index}] lies beyond the double range") from None
    return y.values.copy()


# Most samples deconvolve_sigma takes. Building fig3's operator takes 0.5 s
# of CPU and 12 MiB at K = 128 and 3.7 s and 53 MiB at K = 192 (one core of
# a Xeon VM), and the cost grows faster than K^3. The same bound caps the
# one operator _deconvolution_operator keeps.
_DECONVOLUTION_SIZE_CAP = 128


def _deconvolvable(nu: np.ndarray, needed: int) -> np.ndarray:
    """``nu``, whose first ``needed`` weights a deconvolution divides by;
    ``EstimationError`` naming the first of them that is numerically zero."""
    zero = np.abs(nu[:needed]) <= NU_ZERO_RTOL * max(float(np.max(np.abs(nu))), np.finfo(float).tiny)
    if np.any(zero):
        k = int(np.argmax(zero))
        raise EstimationError(
            f"node weight nu[{k}] = {nu[k]:.3e} is numerically zero; the node dynamics cannot be deconvolved"
        )
    return nu


@functools.lru_cache(maxsize=1)
def _deconvolution_operator(node: NodeDynamics, K: int) -> tuple[list[list[int]], list[int], int]:
    """Integer rows ``C(k, s) M_{k-s} V_0^s`` (s <= k), denominators ``V_0^(k+1)`` and the
    exponent b of ``nu_k = V_k 2^b`` for the node's K discrete-time weights, which are formed
    here and divided by nu_0 alone; see deconvolve_sigma. Keyed on the node itself, which
    cannot change once checked."""
    V, b = _dyadic(_deconvolvable(nu_sequence(node, K), 1).tolist())
    pow0 = [V[0] ** k for k in range(K + 1)]
    W = [0] + [V[m] * pow0[m - 1] for m in range(1, K)]
    M = [1]
    for k in range(1, K):
        M.append(-sum(math.comb(k, s) * W[k - s] * M[s] for s in range(k)))
    rows = [[math.comb(k, s) * M[k - s] * pow0[s] for s in range(k + 1)] for k in range(K)]
    return rows, pow0[1:], b


def deconvolve_sigma(y: OutputSequence) -> np.ndarray:
    """The network's own output of a networked record: ``y`` with its ``node`` stripped.

    The node weights are ``nu_sequence(y.node, len(y), y.tau)``. Without a
    tau this solves the lower-triangular system ``sum_s binom(k, s) nu_{k-s}
    sigma_s = y_k`` exactly (the binomial weights reach ~1e5 by k = 20 and
    would otherwise amplify rounding ahead of the Hankel stage), invertible
    exactly when ``nu_0 = gamma^T beta`` is nonzero. On common power-of-two
    denominators ``y_k = Y_k 2^a`` and ``nu_k = V_k 2^b`` the solution is
    ``sigma_k = Z_k 2^(a-b) / V_0^(k+1)`` with integers ``Z_k = sum_s
    binom(k, s) M_{k-s} V_0^s Y_s``, where ``M_0 = 1`` and ``M_k = -sum_{s<k}
    binom(k, s) V_{k-s} V_0^(k-s-1) M_s`` invert the binomial mixing by nu.
    Those integers depend on the node and K alone, so the operator is kept
    for the last node and K (a networked preset's seeds share one agent); a
    call multiplies them by its own sample integers and rounds each
    ``sigma_k`` once. For the trivial node this returns the samples
    themselves, bit for bit. More than ``_DECONVOLUTION_SIZE_CAP`` samples is
    a ``ValueError``, raised before the weights are formed.

    With a tau (sampled continuous time) the node factor multiplies the
    network factor sample by sample (the two Kronecker terms commute), so
    stripping it is pointwise division, and every ``nu_k`` must be nonzero.

    ``ValueError`` for a record with no node, ``EstimationError``
    naming a weight the mode needs that is numerically zero, and
    ``OverflowError`` naming a sample beyond the double range.
    """
    if not isinstance(y, OutputSequence) or y.node is None:
        raise ValueError("deconvolve_sigma takes a networked record: an OutputSequence with a node")
    K = len(y)
    if y.tau is None and K > _DECONVOLUTION_SIZE_CAP:
        raise ValueError(
            f"exact deconvolution takes at most {_DECONVOLUTION_SIZE_CAP} samples, got {K}"
        )
    if y.tau is not None:  # sampled continuous time divides by every nu_k
        nu = _deconvolvable(nu_sequence(y.node, K, y.tau), K)
        with np.errstate(over="ignore"):  # reported below, with the sample it hit
            sigma = y.values / nu
        if np.any(big := ~np.isfinite(sigma)):
            raise OverflowError(f"deconvolved sample sigma[{np.argmax(big)}] lies beyond the double range")
        return sigma
    rows, dens, b = _deconvolution_operator(y.node, K)
    Y, a = _dyadic(y.values.tolist())
    sigma = np.empty(K)
    for k, (row, den) in enumerate(zip(rows, dens)):
        try:
            sigma[k] = _ratio_to_float(sum(map(operator.mul, row, Y)), a - b, den)
        except OverflowError:
            raise OverflowError(f"deconvolved sample sigma[{k}] lies beyond the double range") from None
    return sigma


def estimate_spectrum(
    y,
    *,
    rank_tolerance: float | None = None,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    prescale: bool | None = None,
) -> SpectrumEstimate:
    """The whole pipeline: node deconvolution, Hankel rank, coefficients, clustered roots.

    ``y`` is an OutputSequence or a plain array, which is taken as discrete
    time with no node. A sequence's ``node`` is stripped first, by
    deconvolve_sigma. An identically zero sequence gives rank 0 and an empty
    spectrum, which is a valid answer, not an error.

    rank_tolerance
        Relative singular-value threshold for rank detection. Default
        ``1e-10 * max(1, r_max)``.
    cluster_tol
        Roots within ``cluster_tol * max(1, |root|)`` of each other merge
        into one root with summed multiplicity. Default 1e-6; widen to ~1e-3
        when hunting defective eigenvalues, whose computed roots split at
        order ``eps^(1/multiplicity)``.
    prescale
        Geometric prescaling of the outputs. Default: on for sampled
        continuous-time data, off for discrete-time data unless
        ``max |y| > 1e6``.

    Both tolerances must be finite and non-negative; any other value is a
    ``ValueError``, raised before any other work.

    Sampled continuous-time roots are ``eta_i = e^{lambda_i tau}`` and are
    mapped back through the principal complex logarithm; a root within 1e-12
    of zero is an ``EstimationError``, and a log divided by tau beyond the
    double range is an ``OverflowError``. Sampling can only distinguish
    imaginary parts inside ``(-pi/tau, pi/tau]``; any recovered eigenvalue at
    that boundary gets an ``aliasing`` warning rather than a silent unwrap.
    """
    rank_tolerance = None if rank_tolerance is None else _tolerance(rank_tolerance, "rank tolerance")
    cluster_tol = _tolerance(cluster_tol, "cluster tolerance")
    seq = y if isinstance(y, OutputSequence) else OutputSequence(y)
    values = seq.values if seq.node is None else deconvolve_sigma(seq)
    tau = seq.tau
    if prescale is None:
        prescale = tau is not None or bool(np.max(np.abs(values)) > PRESCALE_TRIGGER)
    h = build_hankel(values, prescale=prescale, rank_tolerance=rank_tolerance)
    p = solve_coefficients(h)
    roots = roots_with_multiplicity(p, cluster_tol, h.scale_rho)
    warnings = []
    if p.condition > ILL_CONDITION_LIMIT:
        warnings.append("ill-conditioned coefficient solve; roots may be inaccurate")
    if tau is not None:
        logged = []
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported with its root
            for v, m in roots:
                if abs(v) <= ETA_ZERO_TOL:
                    raise EstimationError(
                        f"recovered discrete root {v} is numerically zero; "
                        "no finite continuous eigenvalue maps to it"
                    )
                if not cmath.isfinite(lam := complex(np.log(complex(v)) / tau)):
                    raise OverflowError(f"recovered discrete root {v} maps beyond the double range at tau = {tau!r}")
                logged.append((lam, m))
        roots = sorted(logged, key=lambda vm: _spectral_order(vm[0]))
        boundary = (np.pi / tau) * (1.0 - ALIAS_MARGIN)
        if any(abs(v.imag) >= boundary for v, _ in roots):
            warnings.append(
                f"aliasing: an eigenvalue sits at the principal-strip boundary |Im| = pi/tau;"
                f" frequencies beyond {np.pi / tau:.6g} are indistinguishable at this tau"
            )
    return SpectrumEstimate(roots, tau, p.residual, p.condition, h.scale_rho, warnings)
