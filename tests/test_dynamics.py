"""Simulators: closed-form outputs, Kronecker consistency, and file round trips."""

from __future__ import annotations

import ast
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import FINITE_DOUBLES
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spectral_scope import dynamics
from spectral_scope import (
    CT,
    DT,
    NodeDynamics,
    ObservationSetup,
    OutputSequence,
    SimulationOverflowError,
    nu_sequence,
    observable_partition,
    random_setup,
    read_sequence,
    simulate_ct_networked,
    simulate_ct_sampled,
    simulate_dt,
    simulate_dt_networked,
    write_sequence,
)
from spectral_scope.dynamics import matrix_exponential

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


# =========================================================================
# Discrete-time rollouts
# =========================================================================


def test_identity_dynamics_hold_the_output_constant():
    y = simulate_dt(np.eye(2), ObservationSetup(x0=[1, 2], c=[1, 1]), K=4)
    assert np.array_equal(y.values, [3.0, 3.0, 3.0, 3.0])
    assert y.mode == DT


def test_swap_dynamics_alternate():
    y = simulate_dt(SWAP, ObservationSetup(x0=[1, 0], c=[1, 0]), K=4)
    assert np.array_equal(y.values, [1.0, 0.0, 1.0, 0.0])


def test_swap_output_matches_eigendecomposition_oracle():
    # y[k] must equal sum_i omega_i lambda_i^k with weights from the oracle
    setup = ObservationSetup(x0=[1, 0], c=[1, 0])
    y = simulate_dt(SWAP, setup, K=8)
    oracle = observable_partition(SWAP, setup.c, setup.x0)
    omega = oracle.modal_weights
    recon = np.array(
        [np.real(np.sum(omega * oracle.distinct**k)) for k in range(8)]
    )
    assert np.max(np.abs(recon - y.values)) < 1e-12


def test_defective_block_grows_polynomially():
    # y[k] = k * 0.5^(k-1) for the 2x2 block at 0.5 read off the chain top
    G = np.array([[0.5, 1.0], [0.0, 0.5]])
    y = simulate_dt(G, ObservationSetup(x0=[0, 1], c=[1, 0]), K=4)
    assert np.array_equal(y.values, [0.0, 1.0, 1.0, 0.75])


@given(st.floats(0.05, 20.0), st.booleans())
@settings(max_examples=30, deadline=None)
def test_output_is_linear_in_x0_and_c(scale, flip):
    s = -scale if flip else scale
    rng = np.random.default_rng(7)
    G = rng.standard_normal((4, 4)) * 0.6
    x0 = rng.uniform(0, 1, 4)
    c = rng.uniform(0, 1, 4)
    base = simulate_dt(G, ObservationSetup(x0=x0, c=c), K=8).values
    sx = simulate_dt(G, ObservationSetup(x0=s * x0, c=c), K=8).values
    sc = simulate_dt(G, ObservationSetup(x0=x0, c=s * c), K=8).values
    ref = np.abs(s) * np.max(np.abs(base))
    assert np.max(np.abs(sx - s * base)) <= 1e-12 * ref
    assert np.max(np.abs(sc - s * base)) <= 1e-12 * ref


# =========================================================================
# Networked rollouts
# =========================================================================


def test_trivial_node_reduces_to_plain_rollout_exactly():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((5, 5))
    setup = ObservationSetup(x0=rng.uniform(0, 1, 5), c=rng.uniform(0, 1, 5))
    plain = simulate_dt(G, setup, K=10)
    networked = simulate_dt_networked(G, NodeDynamics.trivial(), setup, K=10)
    assert np.array_equal(plain.values, networked.values)


def test_scalar_network_and_node_add_their_rates():
    node = NodeDynamics(A=[[0.3]], beta=[1.0], gamma=[1.0])
    y = simulate_dt_networked(
        np.array([[0.6]]), node, ObservationSetup(x0=[1.0], c=[1.0]), K=3
    )
    assert np.max(np.abs(y.values - 0.9 ** np.arange(3))) < 1e-15


@given(st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_networked_dt_matches_materialized_kronecker_system(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    G = rng.standard_normal((n, n)) * 0.7
    node = NodeDynamics(
        A=rng.standard_normal((d, d)) * 0.7,
        beta=rng.uniform(0.2, 1.0, d),
        gamma=rng.uniform(0.2, 1.0, d),
    )
    setup = ObservationSetup(x0=rng.uniform(0, 1, n), c=rng.uniform(0, 1, n))
    K = 2 * n
    y = simulate_dt_networked(G, node, setup, K=K).values

    stacked = np.kron(np.eye(n), node.A) + np.kron(G, np.eye(d))
    state = np.kron(setup.x0, node.beta)
    readout = np.kron(setup.c, node.gamma)
    brute = np.empty(K)
    for k in range(K):
        brute[k] = readout @ state
        state = stacked @ state
    assert np.max(np.abs(y - brute)) <= 1e-10 * max(1.0, np.max(np.abs(brute)))


@given(st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_networked_ct_matches_materialized_kronecker_system(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 4)), int(rng.integers(1, 4))
    G = rng.standard_normal((n, n)) * 0.5
    node = NodeDynamics(
        A=rng.standard_normal((d, d)) * 0.5,
        beta=rng.uniform(0.2, 1.0, d),
        gamma=rng.uniform(0.2, 1.0, d),
    )
    setup = ObservationSetup(x0=rng.uniform(0, 1, n), c=rng.uniform(0, 1, n))
    tau, K = 0.4, 2 * n
    y = simulate_ct_networked(G, node, setup, tau=tau, K=K).values

    stacked = np.kron(np.eye(n), node.A) + np.kron(G, np.eye(d))
    P = matrix_exponential(stacked, tau)
    state = np.kron(setup.x0, node.beta)
    readout = np.kron(setup.c, node.gamma)
    brute = np.empty(K)
    for k in range(K):
        brute[k] = readout @ state
        state = P @ state
    assert np.max(np.abs(y - brute)) <= 1e-10 * max(1.0, np.max(np.abs(brute)))


def test_ct_networked_trivial_node_reduces_to_sampled_rollout():
    rng = np.random.default_rng(3)
    G = rng.standard_normal((4, 4)) * 0.5
    setup = ObservationSetup(x0=rng.uniform(0, 1, 4), c=rng.uniform(0, 1, 4))
    plain = simulate_ct_sampled(G, setup, tau=0.3, K=8)
    networked = simulate_ct_networked(G, NodeDynamics.trivial(), setup, tau=0.3, K=8)
    assert np.max(np.abs(plain.values - networked.values)) < 1e-14 * np.max(
        np.abs(plain.values)
    )


def test_ct_scalar_rates_multiply():
    node = NodeDynamics(A=[[0.2]], beta=[1.0], gamma=[1.0])
    y = simulate_ct_networked(
        np.array([[-0.5]]), node, ObservationSetup(x0=[1.0], c=[1.0]), tau=0.5, K=4
    )
    expect = np.exp((-0.5 + 0.2) * 0.5 * np.arange(4))
    assert np.max(np.abs(y.values - expect)) < 1e-14


# =========================================================================
# Matrix exponential and sampled rollouts
# =========================================================================


def test_exponential_of_zero_is_identity():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_exponential_of_diagonal_is_elementwise():
    E = matrix_exponential(np.diag([1.0, 2.0]), 1.0)
    truth = np.diag([np.e, np.e**2])
    assert np.max(np.abs(E - truth)) < 1e-12 * np.e**2


def test_exponential_of_rotation_generator_is_a_rotation():
    E = matrix_exponential(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.pi / 2)
    assert np.max(np.abs(E - np.array([[0.0, 1.0], [-1.0, 0.0]]))) < 1e-12


def test_ct_zero_matrix_holds_constant():
    y = simulate_ct_sampled(np.zeros((2, 2)), ObservationSetup(x0=[1, 2], c=[1, 1]), tau=0.7, K=5)
    assert np.array_equal(y.values, np.full(5, 3.0))
    assert y.mode == CT and y.tau == 0.7


def test_ct_rotation_samples_the_cosine():
    y = simulate_ct_sampled(
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        ObservationSetup(x0=[1, 0], c=[1, 0]),
        tau=np.pi / 2,
        K=4,
    )
    assert np.max(np.abs(y.values - [1.0, 0.0, -1.0, 0.0])) < 1e-12


def test_ct_scalar_decay():
    y = simulate_ct_sampled(np.array([[-1.0]]), ObservationSetup(x0=[1.0], c=[1.0]), tau=1.0, K=3)
    assert np.max(np.abs(y.values - np.exp(-np.arange(3)))) < 1e-14


def test_ct_sampling_equals_dt_on_the_exponential():
    # same code path: one exponential, then the discrete rollout
    rng = np.random.default_rng(5)
    G = rng.standard_normal((4, 4)) * 0.4
    setup = ObservationSetup(x0=rng.uniform(0, 1, 4), c=rng.uniform(0, 1, 4))
    ct = simulate_ct_sampled(G, setup, tau=0.7, K=9)
    dt = simulate_dt(matrix_exponential(G, 0.7), setup, K=9)
    assert np.array_equal(ct.values, dt.values)


# =========================================================================
# Overflow reporting
# =========================================================================


# y[k] = 1e3^k (discrete) or e^(7k) (sampled at tau = 1) leaves the double
# range at k = 103 or 102; the networked ct case grows in the node, not the graph
OVERFLOWING = {
    "dt": (lambda setup, K: simulate_dt([[1e3]], setup, K), 103),
    "dt-networked": (
        lambda setup, K: simulate_dt_networked([[1e3]], NodeDynamics.trivial(), setup, K), 103
    ),
    "ct": (lambda setup, K: simulate_ct_sampled([[7.0]], setup, 1.0, K), 102),
    "ct-networked": (
        lambda setup, K: simulate_ct_networked(
            [[0.0]], NodeDynamics(A=[[7.0]], beta=[1.0], gamma=[1.0]), setup, 1.0, K
        ),
        102,
    ),
}


@pytest.mark.parametrize("mode", list(OVERFLOWING))
def test_overflow_reports_index_and_partial_prefix(mode):
    simulate, index = OVERFLOWING[mode]
    setup = ObservationSetup(x0=[1.0], c=[1.0])
    with pytest.raises(SimulationOverflowError, match=f"^state overflowed the floating range at step {index}$") as info:
        simulate(setup, 200)
    err = info.value
    assert err.index == index and err.partial.size == index
    assert np.all(np.isfinite(err.partial))
    assert np.array_equal(err.partial, simulate(setup, index).values)


# Reference loops that test each step's state and output for overflow before
# taking the next step. The simulators test a block's outputs once, after its
# loop, and nu_sequence is the node's own simulate_dt or simulate_ct_sampled
# rollout; both must give these loops' results bit for bit, overflow reports
# included.


def _per_step_rollout(state, step, output, K, tau):
    ys = np.empty(K)
    for k in range(K):
        ys[k] = float(output(state))
        if not (np.all(np.isfinite(state)) and np.isfinite(ys[k])):
            raise SimulationOverflowError(
                f"state overflowed the floating range at step {k}", index=k, partial=ys[:k]
            )
        if k + 1 < K:
            state = step(state)
    return OutputSequence(ys, tau=tau)


def _per_step_simulation(kind, G, setup, K, node, tau):
    A, x0 = np.asarray(G, dtype=float), setup.x0
    c = setup.c.astype(np.longdouble)
    n = len(c)
    gl = node.gamma.astype(np.longdouble)
    if kind in ("dt", "ct"):
        P = (A if kind == "dt" else matrix_exponential(A, tau)).astype(np.longdouble)
        state, step, output = x0.astype(np.longdouble), lambda x: P @ x, lambda x: c @ x
    elif kind == "dt-networked":
        Al, AnT = A.astype(np.longdouble), node.A.T.astype(np.longdouble)
        state = np.outer(x0, node.beta).astype(np.longdouble)
        step, output = lambda X: X @ AnT + Al @ X, lambda X: c @ (X @ gl)
    else:
        P = matrix_exponential(A, tau).astype(np.longdouble)
        Q = matrix_exponential(node.A, tau).astype(np.longdouble)
        state = np.concatenate((x0, node.beta)).astype(np.longdouble)
        step = lambda w: np.concatenate((P @ w[:n], Q @ w[n:]))
        output = lambda w: (c @ w[:n]) * (gl @ w[n:])
    tau = None if kind.startswith("dt") else float(tau)
    return _per_step_rollout(state, step, output, K, tau)


def _per_step_nu(node, K, tau):
    P = node.A if tau is None else matrix_exponential(node.A, tau)
    v = node.beta.astype(np.longdouble)
    Pl = P.astype(np.longdouble)
    gl = node.gamma.astype(np.longdouble)
    out = np.empty(K)
    for k in range(K):
        out[k] = w = float(gl @ v)
        if not math.isfinite(w):
            raise OverflowError(f"node weight nu[{k}] lies beyond the double range")
        if k + 1 < K:
            v = Pl @ v
    return out


SIMULATORS = {
    "dt": lambda G, setup, K, node, tau: simulate_dt(G, setup, K),
    "dt-networked": lambda G, setup, K, node, tau: simulate_dt_networked(G, node, setup, K),
    "ct": lambda G, setup, K, node, tau: simulate_ct_sampled(G, setup, tau, K),
    "ct-networked": lambda G, setup, K, node, tau: simulate_ct_networked(G, node, setup, tau, K),
}


def _outcome(run):
    """What a call returned or raised, with every float as its bytes."""
    try:
        result = run()
    except SimulationOverflowError as exc:
        return "overflow", exc.index, str(exc), exc.partial.dtype, exc.partial.tobytes()
    except OverflowError as exc:
        return "overflow-error", str(exc)
    if isinstance(result, OutputSequence):
        return "ok", result.values.tobytes(), result.mode, result.tau
    return "ok", result.dtype, result.tobytes()


def _assert_same_as_per_step(G, setup, K, node, tau):
    for kind, simulate in SIMULATORS.items():
        with np.errstate(all="ignore"):
            expected = _outcome(lambda: _per_step_simulation(kind, G, setup, K, node, tau))
        assert _outcome(lambda: simulate(G, setup, K, node, tau)) == expected, kind
    for sampling in (None, tau):
        with np.errstate(all="ignore"):
            expected = _outcome(lambda: _per_step_nu(node, K, sampling))
        assert _outcome(lambda: nu_sequence(node, K, sampling)) == expected, sampling


# scales from decaying to overflowing within a few steps, in either time mode
SCALES = st.sampled_from([1e-3, 0.5, 1.0, 3.0, 30.0, 100.0, 300.0, 1e3, 1e40, 1e160, 1e250])
UNIT = st.floats(-1.0, 1.0)


@st.composite
def systems(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    G = draw(arrays(float, (n, n), elements=UNIT)) * draw(SCALES)
    x0 = draw(arrays(float, n, elements=UNIT))
    c = draw(arrays(float, n, elements=st.just(0.0) | UNIT))  # zero taps hide nodes
    node = NodeDynamics(
        A=draw(arrays(float, (d, d), elements=UNIT)) * draw(SCALES),
        beta=draw(arrays(float, d, elements=UNIT)),
        gamma=draw(arrays(float, d, elements=st.just(0.0) | UNIT)),
    )
    # K past 64 reaches the block-wise overflow check of long rollouts
    K, tau = draw(st.integers(1, 40) | st.integers(60, 140)), draw(st.sampled_from([0.25, 1.0]))
    return G, ObservationSetup(x0=x0, c=c), K, node, tau


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(systems())
@settings(max_examples=150, deadline=None)
def test_rollouts_and_node_weights_match_the_per_step_loops_bitwise(system):
    _assert_same_as_per_step(*system)


ENTRIES = st.floats(-1e307, 1e307)


@st.composite
def finite_systems(draw):
    """Any finite system of n <= 4 nodes and an agent of d <= 3 states, K <= 24
    samples and a tau from 1e-300 to 1e300."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    setup = ObservationSetup(x0=draw(arrays(float, n, elements=ENTRIES)), c=draw(arrays(float, n, elements=ENTRIES)))
    node = NodeDynamics(A=draw(arrays(float, (d, d), elements=ENTRIES)),
                        beta=draw(arrays(float, d, elements=ENTRIES)), gamma=draw(arrays(float, d, elements=ENTRIES)))
    return (draw(arrays(float, (n, n), elements=ENTRIES)), setup, draw(st.integers(1, 24)), node,
            draw(st.floats(1e-300, 1e300)))


@pytest.mark.filterwarnings("error")
@given(finite_systems())
@settings(max_examples=100, deadline=None)
def test_every_finite_system_gets_a_rollout_or_a_typed_refusal(system):
    G, setup, K, node, tau = system
    runs = [lambda simulate=simulate: simulate(G, setup, K, node, tau) for simulate in SIMULATORS.values()]
    for run in (*runs, lambda: nu_sequence(node, K), lambda: nu_sequence(node, K, tau)):
        try:
            run()
        except Exception as exc:  # no stray numpy or scipy error, nor a warning turned into one
            assert type(exc) in (ValueError, OverflowError, SimulationOverflowError), repr(exc)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "G, c, K, index",
    [
        # node 0 leaves even the long double range (at step 17 where long
        # double is x87's), but its tap is zero: 0 * inf is NaN in the output
        (np.diag([1e300, 0.5]), [0.0, 1.0], 20, 17 if np.finfo(np.longdouble).maxexp > 1024 else 2),
        # one sample: nothing is ever stepped
        (np.diag([1e200, 0.5]), [1.0, 1.0], 1, None),
        # a long double state holds 1e400, but the output leaves the double
        # range, at the last sample
        ([[1e200]], [1.0], 3, 2),
    ],
    ids=["hidden-node", "K-1", "long-double-state"],
)
def test_rollouts_report_the_per_step_overflow_index(G, c, K, index):
    setup = ObservationSetup(x0=np.ones(len(c)), c=c)
    node = NodeDynamics(A=np.asarray(G, dtype=float)[:1, :1], beta=[1.0], gamma=[1.0])
    _assert_same_as_per_step(G, setup, K, node, 1.0)
    expected = ("ok",) if index is None else ("overflow", index)
    for simulate in (SIMULATORS["dt"], SIMULATORS["dt-networked"]):
        outcome = _outcome(lambda: simulate(G, setup, K, NodeDynamics.trivial(), None))
        assert outcome[: len(expected)] == expected
    weights = _outcome(lambda: nu_sequence(node, K))
    assert weights[0] == ("overflow-error" if index is not None else "ok")


def test_a_rollout_block_holds_at_most_block_steps_and_block_bytes():
    longdouble = np.dtype(np.longdouble).itemsize
    assert dynamics._block_length(10 * 3 * longdouble) == dynamics._BLOCK
    # a networked state at n = d = 2048 (64 MB of x86 long doubles) stands alone
    assert dynamics._block_length(2048 * 2048 * longdouble) == 1
    for nbytes in (0, 1, 2**16, 2**16 + 1, 2**20, dynamics._BLOCK_BYTES, 2**40):
        length = dynamics._block_length(nbytes)
        assert 1 <= length <= dynamics._BLOCK
        assert length == 1 or length * nbytes <= dynamics._BLOCK_BYTES


@pytest.mark.parametrize("kind", list(SIMULATORS))
def test_one_state_blocks_give_the_same_outputs_and_overflow_reports(monkeypatch, kind):
    # the path a state too large to stack takes, on a small system
    G = np.array([[3.0, 40.0], [-3.0, 4.0]])
    node = NodeDynamics(A=[[0.5, -2.0], [1.0, 0.25]], beta=[1.0, 0.5], gamma=[1.0, -1.0])
    setup = ObservationSetup(x0=[1.0, -0.5], c=[1.0, 0.0])
    runs = [lambda K=K: SIMULATORS[kind](G, setup, K, node, 1.0) for K in (1, 7, 150, 400)]
    with np.errstate(all="ignore"):
        blocked = [_outcome(run) for run in runs]
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", 1)
        assert [_outcome(run) for run in runs] == blocked
    assert [outcome[0] for outcome in blocked] == ["ok", "ok", "ok", "overflow"]


# The estimator's extended-precision refinement and root polish: the one
# long-double arithmetic in src/ outside dynamics.py.
ESTIMATOR_LONG_DOUBLE = ("solve_coefficients", "roots_with_multiplicity", "_polish_roots")


def named(tree: ast.AST, names: set[str]) -> list[int]:
    """Lines of ``tree`` that name one of ``names``: as a name, an attribute, an import or a definition."""
    lines = []
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in names:
            lines.append(node.lineno)
    return lines


def rollout_arithmetic(path: Path, source: str) -> list[int]:
    """Lines of a ``src/`` module, other than dynamics.py, that take over the
    rollouts' arithmetic: ``matrix_exponential`` anywhere, and in
    estimator.py long doubles outside ``ESTIMATOR_LONG_DOUBLE``."""
    tree = ast.parse(source)
    lines = named(tree, {"matrix_exponential"})
    if path.name == "estimator.py":
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name in ESTIMATOR_LONG_DOUBLE):
                lines += named(node, {"longdouble", "clongdouble"})
    return sorted(lines)


def test_dynamics_alone_owns_the_rollout_arithmetic():
    src = Path(dynamics.__file__).resolve().parent
    # the package root only re-exports names
    modules = [p for p in sorted(src.glob("*.py")) if p.name not in ("dynamics.py", "__init__.py")]
    found = {p.name: rollout_arithmetic(p, p.read_text()) for p in modules}
    assert "estimator.py" in found and all(not lines for lines in found.values()), found
    # and the guard sees what it is there to catch
    estimator_py = src / "estimator.py"
    planted = {
        "from .dynamics import matrix_exponential": [1],
        "P = dynamics.matrix_exponential(A, tau)": [1],
        "def _impulse_weights(node):\n    return node.A.astype(np.longdouble)": [2],
        "V = np.empty(3, dtype=np.clongdouble)": [1],
        "from numpy import longdouble": [1],
        "def solve_coefficients(h):\n    return np.longdouble(1)": [],
    }
    for source, lines in planted.items():
        assert rollout_arithmetic(estimator_py, source) == lines, source
    assert rollout_arithmetic(src / "oracle.py", "x = np.longdouble(1)") == []


# =========================================================================
# Setup drawing and file formats
# =========================================================================


def test_random_setup_places_observation_weights():
    s = random_setup(6, seed=3, observed=[1, 4], observe_weights=[2.0, -1.0])
    assert np.array_equal(np.nonzero(s.c)[0], [1, 4])
    assert s.c[1] == 2.0 and s.c[4] == -1.0
    assert np.all((0 <= s.x0) & (s.x0 < 1))


def test_random_setup_is_deterministic():
    a = random_setup(5, seed=11)
    b = random_setup(5, seed=11)
    assert np.array_equal(a.x0, b.x0) and np.array_equal(a.c, b.c)


# a signed zero, the smallest subnormal and the largest double keep their bits too
EDGES = [-0.0, 5e-324, 1.7976931348623157e308]
NODES = st.integers(1, 3).flatmap(lambda d: st.tuples(
    arrays(float, (d, d), elements=FINITE_DOUBLES), *[arrays(float, d, elements=FINITE_DOUBLES)] * 2))


@given(values=st.lists(FINITE_DOUBLES, min_size=1, max_size=20),
       tau=st.none() | st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
       node=st.none() | NODES, seed=st.none() | st.integers(0, 2**64))
@example(values=EDGES, tau=None, node=None, seed=None)
@example(values=EDGES, tau=0.25, node=None, seed=42)
@example(values=EDGES, tau=5e-324, node=([[-0.0]], [5e-324], [1.7976931348623157e308]), seed=0)
@example(values=EDGES, tau=None, node=([EDGES] * 3, EDGES, EDGES), seed=None)
@settings(max_examples=100, deadline=None)
def test_a_sequence_record_roundtrips_its_values_tau_and_node_bit_for_bit(values, tau, node, seed):
    seq = OutputSequence(values, tau=tau, node=None if node is None else NodeDynamics(*node))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "y.json"
        write_sequence(seq, path, seed=seed)
        back = read_sequence(path)
        (line,) = path.read_text().splitlines()  # one compact line
    record = json.loads(line)
    assert (record["schema"], record["seed"], "node" in record) == (1, seed, node is not None)
    # tobytes, since array_equal takes -0.0 for 0.0
    assert back.values.tobytes() == seq.values.tobytes()
    assert back.tau == seq.tau and back.mode == seq.mode
    if node is None:
        assert back.node is None
    else:
        for got, want in ((back.node.A, seq.node.A), (back.node.beta, seq.node.beta),
                          (back.node.gamma, seq.node.gamma)):
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_record_is_one_file_whose_tau_alone_gives_the_mode(tmp_path):
    write_sequence(OutputSequence([1.0, 0.5], tau=0.25), tmp_path / "y.json")
    assert [p.name for p in tmp_path.iterdir()] == ["y.json"]  # no second file
    # keys a record does not know are ignored, such as an older sidecar's mode and n_hint
    (tmp_path / "y.json").write_text('{"values": [1, 0.5], "mode": "ct", "n_hint": 3, "tau": null}')
    back = read_sequence(tmp_path / "y.json")
    assert (back.mode, back.tau, back.values.tolist()) == (DT, None, [1.0, 0.5])
