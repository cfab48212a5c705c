"""Weighted directed graphs and the matrices the estimator operates on.

Generators cover the two network families used in the demos (preferential
attachment and rings), ``assign_uniform_weights`` draws i.i.d. edge weights,
and ``build_matrix`` turns a graph into one of the four supported matrix
kinds. All randomness flows through numpy's seedable PCG64 generator, so
identical parameters reproduce identical graphs on any platform.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import numbers
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate, chain, repeat
from operator import truediv
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "GraphMatrixKind",
    "generate_preferential_attachment",
    "generate_ring",
    "assign_uniform_weights",
    "build_matrix",
    "write_graph_tsv",
    "write_matrix_csv",
    "read_matrix_csv",
]


class GraphMatrixKind(Enum):
    ADJACENCY = "adjacency"
    DEGREE = "degree"
    LAPLACIAN = "laplacian"
    ROW_STOCHASTIC = "row-stochastic"


@dataclass(frozen=True)
class Graph:
    """Weighted multigraph on nodes ``0..n-1``.

    Each edge is stored once as ``(src, dst, weight)``; undirected graphs are
    symmetrized only when a matrix is built. Parallel edges are allowed and
    their weights sum. ``n`` is a count >= 1 and ``directed`` a bool; an
    ``edges`` that is no iterable of triples, or an edge whose node is not a
    whole number in ``0..n-1`` by the count rule (``3.0`` is node 3, a bool
    none) or whose weight is not a finite real number, is a ``ValueError``
    naming it.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    directed: bool = False

    def __post_init__(self):
        n = _count(self.n, "n", 1)
        if not isinstance(self.directed, bool):
            raise ValueError(f"directed must be a bool, got {self.directed!r}")
        edges = []
        for edge in _iterable(self.edges, "edges", "(src, dst, weight) triples"):
            try:
                a, b, w = edge
            except (TypeError, ValueError):  # Python's own, unnamed unpacking errors
                raise ValueError(f"edges holds {edge!r}, which is not a (src, dst, weight) triple") from None
            # an exact int or float skips the ABC checks: each preset seed rebuilds its graph
            if type(a) is not int or type(b) is not int:
                a, b = (_whole(x, f"edge ({a!r},{b!r}) node") for x in (a, b))
            if type(w) is not float and not _number(w, numbers.Real):
                raise ValueError(f"edge ({a},{b}) weight {w!r} is not a real number")
            x = w if type(w) is float else _real(w)
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            if not math.isfinite(x):
                raise ValueError(f"edge ({a},{b}) weight is not finite: {w}")
            edges.append((a, b, x))
        vars(self).update(n=n, edges=tuple(edges))  # frozen: the checked values are set here, once

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def as_array(matrix) -> np.ndarray:
    """A square matrix of finite real numbers, by ``_floats``'s rule, as floats;
    a float array is checked in place and returned as is. ``ValueError`` for
    another shape, or naming the first entry that is not a finite number."""
    arr = matrix if type(matrix) is np.ndarray and matrix.dtype == float else _floats(matrix, "matrix", ndmin=0)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"square matrix required, got shape {arr.shape}")
    return _require_finite(arr, "matrix")


def _require_finite(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr``, or ``ValueError`` naming its first NaN or infinite entry, as ``name[i, ...]``."""
    if not np.isfinite(arr).all():
        index = np.argwhere(~np.isfinite(arr))[0].tolist()
        raise ValueError(f"{name}{index} is not finite: {arr[tuple(index)]}")
    return arr


def _binade(a: np.ndarray) -> int:
    """The e that puts ``max |a|`` in [1, 2) once ``a`` is multiplied by 2^e.
    Every SVD in the package, and every norm in the estimator, takes its input
    so scaled: exactly, short of entries that become subnormal, and with no
    room for LAPACK's own rescaling, so no rank follows the input's scale and
    an unprescaled estimate has the same bits at every power-of-two scale of y."""
    return 1 - math.frexp(np.abs(a).max())[1]


def _floats(value, name: str, ndmin: int = 1) -> np.ndarray:
    """``value`` as a float array of at least ``ndmin`` dimensions: a real
    number or an array, or a list or tuple, nested ones too, of only those;
    an array of another dtype than int or float is checked by its entries.
    ``ValueError`` naming a bool (numpy reads it as 0 or 1), a string, an
    object, None or an entry that is not finite, or a number beyond the doubles."""
    items = [value]
    while items:  # depth first, in order, so the first such value is named
        if isinstance(item := items.pop(), (list, tuple)):
            items.extend(reversed(item))
        elif isinstance(item, np.ndarray):
            if item.dtype.kind not in "iuf":  # numpy would read bools, strings and complex parts as floats
                items.append(item.tolist())
        elif not _number(item, numbers.Real):
            raise ValueError(f"{name} {'is' if item is value else 'holds'} {item!r}, which is not a number")
    try:
        arr = np.array(value, dtype=float, ndmin=ndmin)  # a copy, which the caller cannot change
    except (TypeError, OverflowError) as exc:  # such as an array of objects or an int beyond the doubles
        raise ValueError(str(exc)) from None
    return _require_finite(arr, name)


def _number(value, kind=numbers.Number) -> bool:
    """The number rule: a ``kind`` of number, any by default, that is not a bool (numpy reads one as 0 or 1)."""
    return not isinstance(value, bool) and isinstance(value, kind)


def _complex(*parts, name: str) -> complex:
    """``complex(*parts)`` of numbers; ``ValueError`` headed ``name`` for an
    int beyond the doubles, which Python refuses with an unnamed ``OverflowError``."""
    try:
        return complex(*parts)
    except OverflowError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _real(value) -> float:
    """A real number that is not a bool, as a float; NaN, which fails every
    range test, for anything else, an int beyond the doubles included."""
    with contextlib.suppress(OverflowError):  # float() of an int beyond the doubles
        if _number(value, numbers.Real):
            return float(value)
    return math.nan


def _whole(value, name: str) -> int:
    """A whole number as an int; ``ValueError`` for a fraction, a bool, a string, an infinity or a NaN."""
    with contextlib.suppress(OverflowError, ValueError):  # int() of an infinity or a NaN
        if _number(value, numbers.Real) and int(value) == value:
            return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _count(value, name: str, least: int) -> int:
    """The count rule: a whole number >= ``least``, by ``_whole``'s kinds, as an int; ``ValueError`` otherwise."""
    if (n := value if type(value) is int else _whole(value, name)) < least:
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")
    return n


def _iterable(value, name: str, items: str):
    """An iterator over ``value``; ``ValueError`` naming ``name`` for a value that is no iterable of ``items``."""
    try:
        return iter(value)
    except TypeError:  # Python's own, unnamed "'int' object is not iterable"
        raise ValueError(f"{name} must be an iterable of {items}, got {value!r}") from None


def _pairs(entries, spectrum: str, name: str, flat: bool) -> list[tuple[complex, int]]:
    """The spectrum-entry rule: tuples of a finite ``_number`` and a whole multiplicity in
    1..``sys.maxsize`` (the most copies a list holds), or, with ``flat`` and no tuple at entry 0,
    bare values of multiplicity 1; as such pairs, or a ``ValueError`` naming the first other entry
    as ``name.format(k)``, or ``spectrum`` when it is no iterable."""
    entries = list(_iterable(entries, spectrum, "spectrum entries"))
    pairs = not flat or bool(entries) and isinstance(entries[0], tuple)
    checked = []
    for k, entry in enumerate(entries):
        if isinstance(entry, tuple) != pairs or pairs and len(entry) != 2:
            raise ValueError(f"{name.format(k)} must be a (value, multiplicity) pair, got {entry!r}" if pairs
                             else f"{name.format(k)} must be a flat value, as {name.format(0)} is, got {entry!r}")
        v, m = entry if pairs else (entry, 1)
        if type(v) is not complex:  # the exact type skips the ABC check and the conversion
            if not _number(v):
                raise ValueError(f"{name.format(k)} must be a number, got {v!r}")
            v = _complex(v, name=name.format(k))
        if not cmath.isfinite(v):
            raise ValueError(f"{name.format(k)} is not finite: {v}")
        if (m := m if type(m) is int else _whole(m, name.format(k) + " multiplicity")) < 1:
            raise ValueError(f"{name.format(k)} has multiplicity {m}, below 1")
        if m > sys.maxsize:
            raise ValueError(f"{name.format(k)} has multiplicity {m}, above {sys.maxsize}")
        checked.append((v, m))
    return checked


def _positive(value, name: str) -> float:
    """The sampling-period rule: a positive finite real, or ``ValueError``."""
    if not 0 < (x := _real(value)) < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return x


def _tolerance(value, name: str) -> float:
    """The tolerance rule: a finite real >= 0, or ``ValueError``."""
    if not 0 <= (x := _real(value)) < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    return x


# =========================================================================
# Generators
# =========================================================================


def generate_preferential_attachment(n: int, m_attach: int, seed=None) -> Graph:
    """Undirected preferential-attachment graph.

    Starts from a complete clique on ``m_attach`` nodes; every later node
    attaches to ``m_attach`` distinct existing nodes, sampled without
    replacement with probability proportional to current weighted-free degree
    (uniformly while all degrees are still zero). The result is connected
    with exactly ``C(m_attach, 2) + m_attach * (n - m_attach)`` edges.

    Draw contract: the graph takes ``m_attach * (n - m_attach)`` uniforms,
    one per target in the order the targets are picked, in a single
    ``rng.random`` call. Target ``t`` is the first node whose normalized
    cumulative weight exceeds its uniform, with the arithmetic of
    ``rng.choice(new, p=w / w.sum())``: each ``p_i`` rounded once, the
    cumulative sum taken left to right and divided by its last entry. So the
    edges, and the state a passed ``Generator`` is left in, are those of one
    ``choice`` call per target.

    Parameters
    ----------
    n : int
        Total number of nodes.
    m_attach : int
        Clique size and edges added per new node; ``1 <= m_attach <= n``.
    seed
        Anything ``numpy.random.default_rng`` accepts.
    """
    if (m_attach := _count(m_attach, "m_attach", 1)) > (n := _whole(n, "n")):
        raise ValueError(f"m_attach={m_attach} exceeds n={n}")
    uniforms = iter(np.random.default_rng(seed).random(m_attach * (n - m_attach)).tolist())

    edges = [(i, j, 1.0) for i in range(m_attach) for j in range(i + 1, m_attach)]
    # integer degrees, so every sum of them is exact
    degree = [m_attach - 1] * m_attach + [0] * (n - m_attach)
    for new in range(m_attach, n):
        # all degrees are zero only before the first edge (m_attach = 1, new = 1)
        weight = degree[:new] if edges else [1] * new
        for _ in range(m_attach):
            t = _pick(weight, next(uniforms))
            weight[t] = 0  # without replacement
            edges.append((new, t, 1.0))
            degree[t] += 1
        degree[new] = m_attach

    return Graph(n=n, edges=tuple(edges), directed=False)


def _pick(weight: list[int], u: float) -> int:
    """The index ``rng.choice(len(weight), p=w / w.sum())`` returns when its
    one uniform draw is ``u``: ``searchsorted(cdf / cdf[-1], u, side="right")``
    with ``cdf = cumsum(p)``, in the same float operations."""
    cdf = list(accumulate(map(truediv, weight, repeat(sum(weight)))))
    last = cdf[-1]
    return bisect_right(cdf, u, key=lambda c: c / last)


def generate_ring(n: int, directed: bool = False) -> Graph:
    """Cycle on ``n`` nodes with unit weights.

    ``n`` is a count >= 2. Directed rings orient every edge ``i -> (i+1) mod n``.
    The undirected 2-ring is a single edge, not a doubled one.
    """
    n = _count(n, "n", 2)
    if not directed and n == 2:
        edges = ((0, 1, 1.0),)
    else:
        edges = tuple((i, (i + 1) % n, 1.0) for i in range(n))
    return Graph(n=n, edges=edges, directed=directed)


def assign_uniform_weights(g: Graph, lo: float, hi: float, seed=None) -> Graph:
    """Replace every edge weight with an i.i.d. Uniform[lo, hi) draw, in edge
    order; the bounds must be finite real numbers with ``lo < hi``."""
    if not -math.inf < _real(lo) < _real(hi) < math.inf:
        raise ValueError(f"need lo < hi, both finite, got [{lo!r}, {hi!r})")
    w = np.random.default_rng(seed).uniform(lo, hi, g.num_edges)
    edges = tuple((u, v, float(wi)) for (u, v, _), wi in zip(g.edges, w))
    return replace(g, edges=edges)


# =========================================================================
# Matrix construction
# =========================================================================


def build_matrix(g: Graph, kind: GraphMatrixKind) -> np.ndarray:
    """The requested matrix of a graph, as a dense float array.

    Adjacency sums parallel-edge weights; undirected edges contribute to both
    ``A[u, v]`` and ``A[v, u]`` (self loops once). Degree is the diagonal of
    weighted row sums, the Laplacian is ``D - A``, and the row-stochastic
    matrix is ``D^{-1} A``, which requires every weighted degree to be
    nonzero: a zero one is a ``ValueError`` naming its nodes.
    """
    kind = GraphMatrixKind(kind)
    A = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        A[u, v] += w
        if not g.directed and u != v:
            A[v, u] += w

    if kind is GraphMatrixKind.ADJACENCY:
        M = A
    else:
        deg = A.sum(axis=1)
        if kind is GraphMatrixKind.DEGREE:
            M = np.diag(deg)
        elif kind is GraphMatrixKind.LAPLACIAN:
            M = np.diag(deg) - A
        else:
            zero = np.flatnonzero(deg == 0.0)
            if zero.size:
                raise ValueError(
                    f"nodes {zero.tolist()} have zero weighted degree; "
                    f"{kind.value} is undefined"
                )
            M = A / deg[:, None]
    return M


# =========================================================================
# File formats
# =========================================================================


@contextlib.contextmanager
def _reading(what: str, path):
    """A ``ValueError`` raised inside names the file, or root, read: ``"{what} {path}: {message}"``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{what} {path}: {exc}") from None


def _json_object(value, keys) -> dict:
    """``value``, which must be a JSON object holding every key of ``keys``;
    ``ValueError`` otherwise."""
    if not isinstance(value, dict):
        raise ValueError("must hold a JSON object")
    for key in keys:
        if key not in value:
            raise ValueError(f"has no {key!r}")
    return value


def _csv_table(lines) -> np.ndarray:
    """The CSV ``lines`` as a 2-d array of as many columns as its first row.
    Blank lines and ``#`` comments are skipped, and each field must be a
    finite number as numpy's text reader reads one: not empty, no underscore,
    no line break inside. ``ValueError`` for no row, or naming a fault's line,
    counted from 1. ``lines`` is a list, or an open file, which is streamed
    once and read again from its start only to name a fault."""
    def data_lines():  # each data line, with its line number
        for i, line in enumerate(lines, 1):
            if data := line.partition("#")[0].strip():
                yield i, data

    # numpy's C reader keeps a large file fast and small, but its message
    # counts rows from 0 and names no row of another width: only then is the
    # file rescanned, one call a line, then one a field of the line it refuses
    stream = (data for _, data in data_lines())
    if (head := next(stream, None)) is None:  # numpy would warn of a table with no data
        raise ValueError("has no entries")
    if (table := _finite(chain((head,), stream))) is not None:
        return table
    if hasattr(lines, "seek"):
        lines.seek(0)
    width = None
    for i, data in data_lines():
        fields = data.split(",")
        if len(fields) != (width := width or len(fields)):
            raise ValueError(f"line {i}: expected {width} columns, got {len(fields)}")
        if _finite([data]) is None:  # a line break ends numpy's line, though its field may read alone
            j = next(j for j, f in enumerate(fields, 1)
                     if not f.strip() or "\r" in f or "\n" in f or _finite([f]) is None)
            raise ValueError(f"line {i}, column {j}: {fields[j - 1]!r} is not a finite number")


def _finite(lines) -> np.ndarray | None:
    """The 2-d table numpy's text reader reads from CSV ``lines`` of data, if all of it is finite."""
    with contextlib.suppress(ValueError):
        if np.isfinite(table := np.loadtxt(lines, delimiter=",", ndmin=2)).all():
            return table


def write_graph_tsv(g: Graph, path) -> None:
    """Edge list: header ``# n=<count> directed=<0|1>``, then src<TAB>dst<TAB>weight."""
    lines = [f"# n={g.n} directed={int(g.directed)}"]
    for u, v, w in g.edges:
        lines.append(f"{u}\t{v}\t{w:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_matrix_csv(matrix, path) -> None:
    """Dense CSV, one row per line, 17 significant digits (round-trip exact)."""
    # Python floats format faster than numpy scalars, to the same text
    lines = [",".join(f"{x:.17g}" for x in row) for row in as_array(matrix).tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    """Dense CSV matrix, as ``_csv_table`` reads it and ``as_array`` checks
    it; its ``ValueError`` names the file."""
    with open(path) as f, _reading("matrix", path):  # streamed: a large file reads faster and smaller
        return as_array(_csv_table(f))
