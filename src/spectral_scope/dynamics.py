"""Simulators producing the scalar output sequences the estimator consumes.

Four system classes: discrete-time single integrators coupled through a graph
matrix, the same network sampled from continuous time, and both variants with
identical higher-dimensional linear agents at the nodes. Powers of the system
matrix are never formed; every rollout is an iterated matrix-vector product,
and networked rollouts work blockwise so the Kronecker-stacked matrix is
never materialized.

This module alone owns the rollout arithmetic and the matrix exponential.
The estimator's node weights ``gamma^T A^k beta`` are an agent's own rollout
through ``simulate_dt`` or ``simulate_ct_sampled``, so they share it.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import _floats, _json_object, _number, _positive, _reading, as_array

__all__ = [
    "DT",
    "CT",
    "ObservationSetup",
    "NodeDynamics",
    "OutputSequence",
    "SimulationOverflowError",
    "simulate_dt",
    "simulate_dt_networked",
    "simulate_ct_sampled",
    "simulate_ct_networked",
    "random_setup",
    "write_sequence",
    "read_sequence",
]

DT = "dt"
CT = "ct"


def _mode_of(tau) -> str:
    """The time mode of a record: ``CT`` when it has a sampling period tau,
    ``DT`` when not."""
    return DT if tau is None else CT


class SimulationOverflowError(OverflowError):
    """The floating range was exhausted mid-rollout.

    ``index`` is the first step whose state or output was non-finite;
    ``partial`` holds the outputs recorded before that step.
    """

    def __init__(self, message: str, index: int, partial):
        super().__init__(message)
        self.index = int(index)
        self.partial = np.asarray(partial, dtype=float)


@dataclass(frozen=True, eq=False)
class ObservationSetup:
    """Initial condition x0 and output weighting c for one rollout: finite,
    equal-length vectors, or a ``ValueError`` naming what is not."""

    x0: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        x0, c = _floats(self.x0, "x0"), _floats(self.c, "c")
        if x0.ndim != 1 or c.ndim != 1 or x0.shape != c.shape:
            raise ValueError(
                f"x0 and c must be equal-length vectors, got {x0.shape} and {c.shape}"
            )
        x0.flags.writeable = c.flags.writeable = False  # as OutputSequence keeps its samples
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.x0.shape[0]


def random_setup(n: int, seed=None, observed=None, observe_weights=None) -> ObservationSetup:
    """Draw ``x0 ~ Uniform[0,1)^n`` and build the output weighting.

    ``observed`` selects nodes: one integer index or a sequence of distinct
    ones gives ``c`` with ones (or ``observe_weights``) at those positions,
    and any other index is a ``ValueError``; ``None`` draws a fully random
    ``c ~ Uniform[0,1)^n`` after ``x0``, and takes no ``observe_weights``.
    """
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.0, 1.0, n)
    if observed is None:
        if observe_weights is not None:
            raise ValueError("observe_weights given without observed nodes")
        c = rng.uniform(0.0, 1.0, n)
    else:
        nodes: list[int] = []
        for v in np.atleast_1d(np.asarray(observed, dtype=object)).tolist():
            if not _number(v, numbers.Integral):
                raise ValueError(f"observed node {v!r} is not an integer index")
            if int(v) in nodes:
                raise ValueError(f"observed node {int(v)} is repeated; observed nodes must be distinct")
            nodes.append(int(v))
        # in Python ints, so that an index beyond int64 is out of range too
        if not nodes or min(nodes) < 0 or max(nodes) >= n:
            raise ValueError(f"observed nodes {nodes} out of range for n={n}")
        w = np.ones(len(nodes)) if observe_weights is None else _floats(observe_weights, "observe_weights")
        if w.shape != (len(nodes),):
            raise ValueError("one weight per observed node required")
        c = np.zeros(n)
        c[nodes] = w
    return ObservationSetup(x0=x0, c=c)


@dataclass(frozen=True, eq=False)
class NodeDynamics:
    """Identical per-agent dynamics: state matrix A, input direction beta, readout gamma.

    A is d x d with d >= 1, beta and gamma have d entries, and every entry is
    a finite number; ``ValueError`` naming the shape, a value that is no
    number, or the first NaN or infinite entry otherwise.
    """

    A: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        A, beta, gamma = _floats(self.A, "A", ndmin=2), _floats(self.beta, "beta"), _floats(self.gamma, "gamma")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if A.shape[0] < 1:
            raise ValueError("a node needs state dimension d >= 1, got 0")
        if beta.shape != (A.shape[0],) or gamma.shape != (A.shape[0],):
            raise ValueError("beta and gamma must match the state dimension of A")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def trivial(cls) -> "NodeDynamics":
        """Scalar single integrator: d=1, A=0, beta=gamma=1."""
        return cls(A=np.zeros((1, 1)), beta=np.ones(1), gamma=np.ones(1))

    @classmethod
    def random_symmetric(cls, d: int, seed=None) -> "NodeDynamics":
        """Symmetric A with Uniform[0,1) entries (lower triangle mirrored), beta, gamma ~ Uniform[0,1)^d."""
        rng = np.random.default_rng(seed)
        M = rng.uniform(0.0, 1.0, (d, d))
        A = np.tril(M) + np.tril(M, -1).T
        return cls(A=A, beta=rng.uniform(0.0, 1.0, d), gamma=rng.uniform(0.0, 1.0, d))

    def to_json_dict(self) -> dict:
        return {"schema": 1, "A": self.A.tolist(), "beta": self.beta.tolist(), "gamma": self.gamma.tolist()}

    @classmethod
    def from_json_dict(cls, d) -> "NodeDynamics":
        """The node ``to_json_dict`` wrote. ``ValueError`` for anything but an
        object with ``A``, ``beta`` and ``gamma`` of fitting shapes and finite entries."""
        _json_object(d, ("A", "beta", "gamma"))
        return cls(A=d["A"], beta=d["beta"], gamma=d["gamma"])


@dataclass(frozen=True, eq=False)
class OutputSequence:
    """A non-empty, 1-d, finite output record y[0..K-1] with, when sampled
    (``mode`` ``CT``), its positive finite tau and, for a networked record,
    the agent dynamics it was convolved with; ``ValueError`` otherwise."""

    values: np.ndarray
    tau: float | None = None
    node: NodeDynamics | None = None

    def __post_init__(self):
        values = _floats(self.values, "output y")
        if values.ndim != 1 or values.size < 1:
            raise ValueError("a non-empty 1-d sequence of outputs is required")
        values.flags.writeable = False  # and a copy, so that the caller's array cannot change a checked record
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tau", None if self.tau is None else _positive(self.tau, "tau"))

    @property
    def mode(self) -> str:
        return _mode_of(self.tau)

    def __len__(self) -> int:
        return self.values.shape[0]


# =========================================================================
# Core rollouts
# =========================================================================


def matrix_exponential(M, t: float = 1.0) -> np.ndarray:
    """Dense ``e^{M t}`` by scaling-and-squaring with a Pade approximant.

    Thin wrapper over scipy's expm (Al-Mohy/Higham order selection with
    norm-based scaling), plus an explicit finiteness check so overflow
    surfaces as an error instead of silent inf entries. The inputs come in
    checked: ``M`` is a square float array of finite entries, from
    ``_setup_arrays`` or ``NodeDynamics``, and ``t`` is a positive finite
    tau. scipy is imported here, on first use, so that discrete-time runs
    never load it.
    """
    import scipy.linalg

    # the finiteness check below reports overflow; numpy's warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(M * float(t))
    if not np.all(np.isfinite(E)):
        raise OverflowError("matrix exponential exceeded the floating range")
    return E


def _matrix_for(G, setup: ObservationSetup) -> np.ndarray:
    """``as_array(G)``, which must have one row per component of ``setup``."""
    A = as_array(G)
    if setup.n != len(A):
        raise ValueError(f"matrix is {len(A)}x{len(A)} but the setup has {setup.n} components")
    return A


def _setup_arrays(G, setup: ObservationSetup, K: int):
    A = _matrix_for(G, setup)
    if K < 1:
        raise ValueError(f"need at least one step, got K={K}")
    return A, setup.x0, setup.c.astype(np.longdouble)


_BLOCK = 64  # most rollout steps whose outputs are formed, and checked, at once
_BLOCK_BYTES = 1 << 22  # most bytes of stacked states one block holds


def _block_length(state_nbytes: int) -> int:
    """Steps per rollout block: at most ``_BLOCK`` and ``_BLOCK_BYTES`` of states, at least one."""
    return max(1, min(_BLOCK, _BLOCK_BYTES // max(state_nbytes, 1)))


def _rollout(state, step, output, K: int, tau=None, node=None) -> OutputSequence:
    # Iterated step; powers of the system matrix are never formed. The state
    # accumulates in extended precision where the platform has one (x86 long
    # double), so each emitted double carries only its final rounding instead
    # of K steps of drift. The presets depend on it: with np.longdouble
    # replaced by float64 in this module, fig3's node weights included, they
    # pass 279/268/298 of 300 seeds instead of 287/276/299, acceptance
    # criterion 1 sits at its floor of 95 of 100 and criterion 2 falls to 89
    # against its floor of 90 (numpy 2.4.6 on x86-64).
    #
    # The states of a block are stacked, and ``output`` maps the stack to the
    # block's outputs in one product. Numpy's long-double matmul sums each
    # output's terms in the same order as a product with one state, so the
    # bits are those of one output per step. ``_block_length`` bounds the
    # stack's size; a state too large to stack is a block of its own. The
    # steps call np.dot, which for long doubles sums in the same order as
    # ``@`` with less overhead per call.
    #
    # Overflow is checked on the outputs alone, once per block. Every output
    # forms every c_i x_i term and 0 * inf is NaN, so a non-finite state
    # always gives a non-finite output: the first non-finite output is the
    # first step whose state or output left the floating range. A long
    # rollout stops within one block of steps after it.
    ys = np.empty(K)
    length = _block_length(state.nbytes)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, K, length):
            end = min(start + length, K)
            states = np.empty((end - start,) + state.shape, dtype=state.dtype)
            states[0] = state
            for j in range(1, end - start):
                states[j] = step(states[j - 1])
            ys[start:end] = output(states)
            bad = np.flatnonzero(~np.isfinite(ys[start:end]))
            if bad.size:
                k = start + int(bad[0])
                raise SimulationOverflowError(
                    f"state overflowed the floating range at step {k}", index=k, partial=ys[:k]
                )
            if end < K:
                state = step(states[-1])
    return OutputSequence(ys, tau=tau, node=node)


def simulate_dt(G, setup: ObservationSetup, K: int) -> OutputSequence:
    """y[k] = c^T G^k x0 for k = 0..K-1."""
    A, x0, c = _setup_arrays(G, setup, K)
    P = A.astype(np.longdouble)
    return _rollout(x0.astype(np.longdouble), lambda x: np.dot(P, x), lambda S: S @ c, K)


def simulate_dt_networked(G, node: NodeDynamics, setup: ObservationSetup, K: int) -> OutputSequence:
    """Networked rollout of identical agents, blockwise.

    With agent states as rows of an (n, d) array X, one step of the stacked
    system ``I_n (x) A + G (x) I_d`` is ``X <- X A^T + G X`` and the output is
    ``c^T X gamma``; initial state is ``outer(x0, beta)``.
    """
    A, x0, c = _setup_arrays(G, setup, K)
    Al = A.astype(np.longdouble)
    AnT = node.A.T.astype(np.longdouble)
    gl = node.gamma.astype(np.longdouble)
    with np.errstate(over="ignore"):  # an infinite entry is the rollout's overflow at sample 0
        X0 = np.outer(x0, node.beta).astype(np.longdouble)
    return _rollout(X0, lambda X: np.dot(X, AnT) + np.dot(Al, X), lambda S: (S @ gl) @ c, K, node=node)


def simulate_ct_sampled(G, setup: ObservationSetup, tau: float, K: int) -> OutputSequence:
    """y[k] = c^T e^{G k tau} x0: one matrix exponential, then the DT rollout path."""
    tau = _positive(tau, "tau")
    A, x0, c = _setup_arrays(G, setup, K)
    P = matrix_exponential(A, tau).astype(np.longdouble)
    return _rollout(x0.astype(np.longdouble), lambda x: np.dot(P, x), lambda S: S @ c, K, tau)


def simulate_ct_networked(
    G, node: NodeDynamics, setup: ObservationSetup, tau: float, K: int
) -> OutputSequence:
    """Sampled networked continuous-time output.

    Because ``I (x) A`` and ``G (x) I`` commute, the sampled output factors
    exactly into (network part) * (node part); each factor is iterated with
    its own one-step propagator.
    """
    tau = _positive(tau, "tau")
    A, x0, c = _setup_arrays(G, setup, K)
    n = len(c)
    P = matrix_exponential(A, tau).astype(np.longdouble)
    Q = matrix_exponential(node.A, tau).astype(np.longdouble)
    gl = node.gamma.astype(np.longdouble)
    # network state u and node state v stacked as one vector [u; v]
    w0 = np.concatenate((x0, node.beta)).astype(np.longdouble)
    return _rollout(
        w0,
        lambda w: np.concatenate((np.dot(P, w[:n]), np.dot(Q, w[n:]))),
        lambda S: (S[:, :n] @ c) * (S[:, n:] @ gl),
        K, tau, node,
    )


# =========================================================================
# File formats
# =========================================================================


def write_sequence(seq: OutputSequence, path, seed=None) -> None:
    """One JSON record ``{schema, tau, values, seed}`` on one line, which also
    holds the ``node`` of a networked record. ``json`` writes each double's
    shortest repr that round-trips, so ``read_sequence`` reads every value back exactly."""
    record = {"schema": 1, "tau": seq.tau, "values": seq.values.tolist(), "seed": seed}
    if seq.node is not None:
        record["node"] = seq.node.to_json_dict()
    Path(path).write_text(json.dumps(record) + "\n")


def read_sequence(path) -> OutputSequence:
    """The record ``write_sequence`` wrote: a JSON object with ``values``, a
    ``tau`` for a sampled record and a ``node`` for a networked one, as
    ``OutputSequence`` and ``NodeDynamics`` check them; their ``ValueError``,
    or the JSON decoder's, names the file. Other keys are ignored."""
    with _reading("sequence", path):
        record = _json_object(json.loads(Path(path).read_text()), ("values",))
        node = None if record.get("node") is None else NodeDynamics.from_json_dict(record["node"])
        return OutputSequence(record["values"], tau=record.get("tau"), node=node)
