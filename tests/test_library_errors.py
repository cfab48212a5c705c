"""The catalogue of library refusals: one row per input a public entry point refuses.

Each row holds a call, the exact type of the exception it raises and its
whole message. A row that reads files names their texts; the call runs in a
directory that holds only them. No call may warn on its way to its error: a
warning reaches the user before the refusal says what is wrong, so one is a
fault of the library, not of the row. A case that a CLI row of
``test_cli_errors.py`` pins through the same entry point and message has no
row here, such as every malformed estimate ``verify`` reads. A rule that
several entry points share, such as the tau and tolerance rules, is
fed every bad value at each of them. A wording change edits one row. A guard
keeps the two catalogues whole: every ``raise`` in ``src/``, and every stderr
line of ``cli.py``, is reached by a library row or a CLI row, in one traced
run of both. The assignment port's refusals are the exception: they mirror
scipy's, ``test_oracle.py`` pins them against it, and ``match_spectra`` hands
the port finite costs only.
"""

from __future__ import annotations

import ast
import json
import math
import sys
import warnings
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import spectral_scope
import test_cli_errors as cli_catalogue
from spectral_scope import (
    EstimationError,
    Graph,
    GraphMatrixKind,
    NodeDynamics,
    ObservationSetup,
    OutputSequence,
    SpectrumEstimate,
    assign_uniform_weights,
    build_matrix,
    deconvolve_sigma,
    detect_rank_online,
    estimate_spectrum,
    full_spectrum,
    generate_ring,
    match_spectra,
    nu_sequence,
    observable_partition,
    random_setup,
    read_sequence,
    run_scenario,
    simulate_ct_networked,
    simulate_ct_sampled,
    simulate_dt,
)

SRC = Path(spectral_scope.__file__).parent


class Row(NamedTuple):
    id: str
    call: Callable
    error: type
    message: str
    files: dict = {}


SWAP = [[0.0, 1.0], [1.0, 0.0]]
SETUP = ObservationSetup(x0=[1.0, 0.5], c=[1.0, 0.0])
CHAIN3 = [[0.5, 1.0, 0.0], [0.0, -0.4, 1.0], [0.3, 0.0, 0.2]]
# numpy gives this matrix an infinite eigenvalue
HUGE_SWAP = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.7976931348623157e308], [0.0, 1.7976931348623157e308, 0.0]]
TRIVIAL = NodeDynamics.trivial()
ORTHOGONAL = NodeDynamics(A=np.zeros((2, 2)), beta=[1.0, 0.0], gamma=[0.0, 1.0])  # nu_0 = 0
VANISHING = OutputSequence([1.0, 0.0, 0.0, 0.0], tau=1.0)  # its one discrete root is 0
ROOTS = [{"re": 1.0, "im": 0.0, "multiplicity": 1}, {"re": -1.0, "im": 0.0, "multiplicity": 1}]
SPECTRUM = {"schema": 1, "mode": "dt", "tau": None, "rank": 2, "residual": 0.0, "condition": 1.0,
            "rho": 1.0, "roots": ROOTS, "warnings": []}


def spectrum(*dropped, **edits) -> Callable:
    """``SpectrumEstimate.from_json_dict`` of ``SPECTRUM`` without the keys
    ``dropped`` and with ``edits`` made; ``root1={...}`` updates that root."""
    d = {key: value for key, value in SPECTRUM.items() if key not in dropped}
    d["roots"] = [dict(r) for r in ROOTS]
    for key, value in edits.items():
        if key[4:].isdigit():  # root0, root1
            d["roots"][int(key[4:])].update(value)
        else:
            d[key] = value
    return partial(SpectrumEstimate.from_json_dict, d)


def _nu_after_a_memo_at_one(tau):
    # True == 1.0 and hashes alike, so the memo must not answer before the rule
    nu_sequence(TRIVIAL, 4, 1.0)
    return nu_sequence(TRIVIAL, 4, tau)


BAD = {"None": None, "0": 0, "-1.0": -1.0, "nan": math.nan, "inf": math.inf, "True": True, "'1'": "1",
       "10**400": 10**400}
# a record or node weights without a tau are discrete time, so None is no bad tau there
TAU_ENTRY_POINTS = {
    "OutputSequence": (True, lambda tau: OutputSequence([1.0, 0.5], tau=tau)),
    "SpectrumEstimate": (True, lambda tau: SpectrumEstimate([], tau=tau)),
    "nu_sequence": (True, _nu_after_a_memo_at_one),
    "simulate_ct_sampled": (False, lambda tau: simulate_ct_sampled(SWAP, SETUP, tau, 4)),
    "simulate_ct_networked": (False, lambda tau: simulate_ct_networked(SWAP, TRIVIAL, SETUP, tau, 4)),
    "from_json_dict": (False, lambda tau: spectrum(mode="ct", tau=tau)()),
}
BAD_MODE = {"None": None, "'DT'": "DT", "'hourly'": "hourly", "1": 1, "True": True}
# each entry point with the name its message gives the tolerance; zero is a
# valid tolerance, an exact match, and None asks for the default rank cut
TOLERANCE_ENTRY_POINTS = {
    "detect_rank_online": ("rank tolerance", lambda tol: detect_rank_online([1.0, 0.5, 0.25], rank_tolerance=tol)),
    # before any sample is read: an empty stream once gave rank 0 for every value
    "detect_rank_online-empty": ("rank tolerance", lambda tol: detect_rank_online([], rank_tolerance=tol)),
    # before any other work: a one-sample record cannot be solved at rank 1
    "estimate_spectrum": ("rank tolerance", lambda tol: estimate_spectrum([1.0], rank_tolerance=tol)),
    "estimate_spectrum-cluster": ("cluster tolerance", lambda tol: estimate_spectrum([1.0], cluster_tol=tol)),
    "match_spectra": ("tolerance", lambda tol: match_spectra([0.5], [0.5], tol)),
}

ROWS = [
    # the rules that several entry points share
    *(Row(f"{entry}-tau-{bad}", partial(call, BAD[bad]), ValueError,
          f"tau must be a positive finite number, got {BAD[bad]!r}")
      for entry, (none_is_dt, call) in TAU_ENTRY_POINTS.items() for bad in BAD
      if not (none_is_dt and bad == "None")),
    # a record's tau comes from its file, where json writes nan, inf and 10**400 as NaN, Infinity and the integer
    *(Row(f"read_sequence-tau-{bad}", partial(read_sequence, "y.json"), ValueError,
          f"sequence y.json: tau must be a positive finite number, got {BAD[bad]!r}",
          {"y.json": json.dumps({"values": [1.0, 0.5], "tau": BAD[bad]})}) for bad in BAD if bad != "None"),
    *(Row(f"from_json_dict-mode-{bad}", spectrum(mode=mode), ValueError, f"mode must be 'dt' or 'ct', got {mode!r}")
      for bad, mode in BAD_MODE.items()),
    *(Row(f"{entry}-tolerance-{bad}", partial(call, BAD[bad]), ValueError,
          f"{name} must be a finite number >= 0, got {BAD[bad]!r}")
      for entry, (name, call) in TOLERANCE_ENTRY_POINTS.items() for bad in BAD
      if bad != "0" and not (name == "rank tolerance" and bad == "None")),
    *(Row(f"estimate_spectrum-{field}-before-{what}", partial(estimate_spectrum, y, **{field: math.nan}),
          ValueError, f"{name} must be a finite number >= 0, got nan")
      for field, name in (("rank_tolerance", "rank tolerance"), ("cluster_tol", "cluster tolerance"))
      for what, y in (("deconvolution", OutputSequence([1.0, 0.5], node=ORTHOGONAL)), ("log-map", VANISHING))),
    # graphs
    Row("Graph-no-nodes", partial(Graph, n=0, edges=()), ValueError, "need at least one node, got n=0"),
    Row("Graph-edge-out-of-range", partial(Graph, n=2, edges=((0, 2, 1.0),)), ValueError,
        "edge (0,2) out of range for n=2"),
    Row("Graph-nan-weight", partial(Graph, n=2, edges=((0, 1, math.nan),)), ValueError,
        "edge (0,1) weight is not finite: nan"),
    Row("Graph-second-edge-minus-inf", partial(Graph, n=2, edges=((0, 1, 1.0), (1, 0, -math.inf))), ValueError,
        "edge (1,0) weight is not finite: -inf"),
    # 1.7 once became node 1, and "1.5" and True were taken as weights
    *(Row(f"Graph-{id}", partial(Graph, n=3, edges=(edge,)), ValueError, message) for id, edge, message in (
        ("fractional-node", (0, 1.7, 1.0), "edge (0,1.7) node 1.7 is not an integer index"),
        ("bool-node", (True, 1, 1.0), "edge (True,1) node True is not an integer index"),
        ("string-node", (0, "1", 1.0), "edge (0,'1') node '1' is not an integer index"),
        ("string-weight", (0, 1, "1.5"), "edge (0,1) weight '1.5' is not a real number"),
        ("bool-weight", (0, 1, True), "edge (0,1) weight True is not a real number"),
        ("huge-weight", (0, 1, 10**400), f"edge (0,1) weight is not finite: {10**400}"))),
    # numpy would raise OverflowError for an infinite bound, and a TypeError for a string; True read as 1
    *(Row(f"assign_uniform_weights-{id}-bound", partial(assign_uniform_weights, generate_ring(3), lo, hi),
          ValueError, f"need lo < hi, both finite, got [{lo!r}, {hi!r})")
      for id, lo, hi in (("inf", 0.0, math.inf), ("string", "a", 1.0), ("bool", True, 2.0), ("huge", 0, 10**400))),
    Row("build_matrix-zero-degree", partial(build_matrix, Graph(n=3, edges=((0, 1, 1.0),)),
                                            GraphMatrixKind.ROW_STOCHASTIC),
        ValueError, "nodes [2] have zero weighted degree; row-stochastic is undefined"),
    # dynamics
    Row("random_setup-nan-weight", partial(random_setup, 3, observed=[0], observe_weights=[math.nan]), ValueError,
        "observe_weights[0] is not finite: nan"),
    Row("random_setup-short-weights", partial(random_setup, 3, observed=[0, 1], observe_weights=[1.0]), ValueError,
        "one weight per observed node required"),
    # each of these once picked a node silently: 1.5 and True gave node 1
    *(Row(f"random_setup-{id}-node", partial(random_setup, 3, seed=0, observed=observed), ValueError,
          f"observed node {bad} is not an integer index")
      for id, observed, bad in (("fractional", [1.5], 1.5), ("bool", [True], True),
                                ("bool-array", np.array([0, 1]) == 1, False))),
    Row("NodeDynamics-zero-dimension", partial(NodeDynamics.random_symmetric, 0), ValueError,
        "a node needs state dimension d >= 1, got 0"),  # it would only fail later, in the deconvolution
    Row("NodeDynamics-inf-gamma", partial(NodeDynamics, A=np.eye(2), beta=[1.0, 1.0], gamma=[1.0, math.inf]),
        ValueError, "gamma[1] is not finite: inf"),
    *(Row(f"OutputSequence-{id}", partial(OutputSequence, values), ValueError,
          "a non-empty 1-d sequence of outputs is required")
      for id, values in (("empty", []), ("2-d", np.ones((2, 2))))),
    Row("simulate_dt-long-setup", partial(simulate_dt, SWAP, ObservationSetup(x0=[1, 0, 0], c=[1, 0, 0]), 3),
        ValueError, "matrix is 2x2 but the setup has 3 components"),
    *(Row(f"simulate_dt-{id}", partial(simulate_dt, matrix, SETUP, 3), ValueError, message)
      for id, matrix, message in (
          ("non-square", np.zeros((2, 3)), "square matrix required, got shape (2, 3)"),
          ("inf-entry", [[0.0, math.inf], [1.0, 0.0]], "matrix[0, 1] is not finite: inf"),
          # numpy read True as 1 and "0.5" as 0.5, and None as nan
          ("bool-entry", [[True, False], [False, True]], "matrix holds True, which is not a number"),
          ("string-entry", [["0.5", 0.0], [0.0, 1.0]], "matrix holds '0.5', which is not a number"),
          ("none-entry", [[None, 0], [0, 1]], "matrix holds None, which is not a number"),
          ("bool-array", np.eye(2, dtype=bool), "matrix holds True, which is not a number"),
          ("huge-int-entry", [[10**400, 0], [0, 1]], "int too large to convert to float"))),
    # an array is checked by its entries, as a list is: numpy read these as 1 and 0, as
    # 1.5 and 2, and as 1 with a ComplexWarning
    *(Row(f"OutputSequence-{id}-array", partial(OutputSequence, values), ValueError,
          f"output y holds {first!r}, which is not a number")
      for id, values, first in (("bool", np.array([True, False]), True), ("string", np.array(["1.5", "2"]), "1.5"),
                                ("complex", np.array([1 + 2j, 0.5]), 1 + 2j))),
    Row("NodeDynamics-bool-array-A", partial(NodeDynamics, A=np.ones((1, 1), dtype=bool), beta=[1.0], gamma=[1.0]),
        ValueError, "A holds True, which is not a number"),
    # estimator: rank, coefficients and roots
    *(Row(f"detect_rank_online-n_hint-{id}", partial(detect_rank_online, [3.0] * 50, n_hint=bad), ValueError,
          f"n_hint must be a whole number{' >= 1' if id in ('0', '-2') else ''}, got {bad!r}")
      # 0, -2 and True once stopped the detection after two samples
      for id, bad in (("0", 0), ("-2", -2), ("True", True), ("1.5", 1.5), ("'3'", "3"), ("inf", math.inf))),
    # numpy's LinAlgError is a ValueError too, so the message is what tells them apart
    *(Row(f"{entry}-{bad}-output", partial(call, [1.0, 0.5, bad, 0.125]), ValueError,
          f"output y[2] is not finite: {bad}")
      for entry, call in (("estimate_spectrum", estimate_spectrum), ("detect_rank_online", detect_rank_online))
      for bad in (math.nan, math.inf, -math.inf)),
    # the message estimate_spectrum gives for the same list; float() once read True as 1.0
    # and '1' as 1.0, and let None through as a TypeError and 10**400 as an OverflowError
    *(Row(f"detect_rank_online-{id}-sample", partial(detect_rank_online, [1.0, 0.5, bad, 0.125]), ValueError,
          message)
      for id, bad, message in (("bool", True, "output y holds True, which is not a number"),
                               ("string", "1", "output y holds '1', which is not a number"),
                               ("none", None, "output y holds None, which is not a number"),
                               ("huge-int", 10**400, "int too large to convert to float"))),
    Row("estimate_spectrum-two-samples-per-mode", partial(estimate_spectrum, [1.0, 0.0, 1.0]),
        EstimationError, "need 4 samples to solve at rank 2, have 3"),
    # both once ended in numpy's LinAlgError "Array must not contain infs or NaNs"
    Row("estimate_spectrum-coefficient-overflow", partial(estimate_spectrum, [1e-320, -0.25]), OverflowError,
        "a characteristic polynomial coefficient lies beyond the double range"),
    Row("estimate_spectrum-root-overflow", partial(estimate_spectrum, OutputSequence(
        [1e-320, -1.711378127094104, -2.659208373654944e33], tau=0.5)), OverflowError,
        "a root lies beyond the double range"),
    # log(0.5) / tau was (-inf+nanj), which the estimate then refused
    Row("estimate_spectrum-log-map-overflow", partial(estimate_spectrum, OutputSequence(
        [1.0, 0.5, 0.25, 0.125], tau=1e-320)), OverflowError,
        "recovered discrete root (0.5+0j) maps beyond the double range at tau = 1e-320"),
    # estimator: the record and the spectrum file
    *(Row(f"SpectrumEstimate-{id}", partial(SpectrumEstimate, **fields), ValueError, message)
      for id, fields, message in [
          # an estimate that builds can always be written and read back
          ("zero-multiplicity", {"roots": [(0.5 + 0j, 0)]}, "root 0 has multiplicity 0, below 1"),
          ("nan-root", {"roots": [(complex(math.nan, 0.0), 1)]}, "root 0 is not finite: (nan+0j)"),
          ("zero-rho", {"roots": [(0.5 + 0j, 1)], "scale_rho": 0.0}, "rho must be a positive finite number, got 0.0"),
          # None and 0.5 once raised a TypeError, from complex() and from unpacking
          *((f"{id}-root", {"roots": [root]}, f"root 0 must be a pair of a number and a multiplicity, got {root!r}")
            for id, root in (("none-value", (None, 1)), ("no-pair", 0.5), ("string-value", ("1", 1)),
                             ("bool-value", (True, 1)), ("triple", (1.0, 1, 1)))),
      ]),
    *(Row(f"from_json_dict-{id}", call, ValueError, message) for id, call, message in [
        ("inf-root", spectrum(root1={"im": math.inf}), "root 1 is not finite: (-1+infj)"),
        ("negative-multiplicity", spectrum(root0={"multiplicity": -2}), "root 0 has multiplicity -2, below 1"),
        ("negative-rank", spectrum(rank=-3), "rank -3 is not the sum of the root multiplicities, 2"),
        ("fractional-rank", spectrum(rank=2.7), "rank must be a whole number, got 2.7"),
        ("dt-tau", spectrum(tau=1.0), "a 'dt' spectrum has no tau, got 1.0"),
        ("nan-rho", spectrum(rho=math.nan), "rho must be a positive finite number, got nan"),
        ("huge-rho", spectrum(rho=10**400), f"rho must be a positive finite number, got {10**400}"),
        ("string-warnings", spectrum(warnings="abc"), "warnings must be a list of strings, got 'abc'"),
        ("schema-99", spectrum(schema=99), "schema must be 1, got 99"),
        ("bool-schema", spectrum(schema=True), "schema must be 1, got True"),
        ("no-schema", spectrum("schema"), "schema must be 1, got None"),
        ("string-residual", spectrum(residual="1e-3"), "residual must be a number >= 0, got '1e-3'"),
        ("bool-residual", spectrum(residual=True), "residual must be a number >= 0, got True"),
        ("negative-residual", spectrum(residual=-1.0), "residual must be a number >= 0, got -1.0"),
        ("nan-residual", spectrum(residual=math.nan), "residual must be a number >= 0, got nan"),
        ("string-condition", spectrum(condition="7"), "condition must be null or a number >= 1, got '7'"),
        ("condition-below-1", spectrum(condition=0.5), "condition must be null or a number >= 1, got 0.5"),
        ("negative-condition", spectrum(condition=-1.0), "condition must be null or a number >= 1, got -1.0"),
        ("int-roots", spectrum(roots=5), "roots must be a list, got 5"),
        ("int-root", spectrum(roots=[5]), "root 0: must hold a JSON object"),
        ("string-re", spectrum(root0={"re": "a"}), "root 0: re and im must be numbers, got 'a' and 0.0"),
        ("bool-im", spectrum(root1={"im": True}), "root 1: re and im must be numbers, got -1.0 and True"),
    ]),
    # estimator: the node deconvolution
    Row("nu_sequence-no-steps", partial(nu_sequence, TRIVIAL, 0), ValueError, "need at least one step, got K=0"),
    Row("nu_sequence-overflow", partial(nu_sequence, NodeDynamics(A=[[1e200]], beta=[1.0], gamma=[1.0]), 4),
        OverflowError, "node weight nu[2] lies beyond the double range"),
    # the readout cancels while the state outgrows even long double
    Row("nu_sequence-cancelling-overflow", partial(nu_sequence, NodeDynamics(
        A=np.full((2, 2), 1e300), beta=[1.0, 1.0], gamma=[1.0, -1.0]), 40),
        OverflowError, "node weight nu[17] lies beyond the double range"),
    Row("deconvolve_sigma-no-node", partial(deconvolve_sigma, OutputSequence([1.0, 2.0, 3.0])), ValueError,
        "deconvolve_sigma takes a networked record: an OutputSequence with a node"),
    # discrete time needs nu_0 alone, sampled continuous time every weight
    *(Row(f"deconvolve_sigma-{id}", partial(deconvolve_sigma, OutputSequence(values, tau=tau, node=node)),
          EstimationError, f"node weight {weight} is numerically zero; "
          "the node dynamics cannot be deconvolved")
      for id, values, tau, node, weight in (
          # the node's input and readout are orthogonal, so its first weight is zero
          ("orthogonal-node", [1.0, 2.0, 3.0], None, ORTHOGONAL, "nu[0] = 0.000e+00"),
          # nu_k = e^(-30 k), and e^-30 is below 1e-12 of nu_0 = 1
          ("ct-vanishing-weight", [2.0, 4.0, 8.0], 1.0, NodeDynamics(A=[[-30.0]], beta=[1.0], gamma=[1.0]),
           "nu[1] = 9.358e-14"))),
    *(Row(f"deconvolve_sigma-{id}", partial(deconvolve_sigma, OutputSequence(values, tau=tau, node=node)),
          OverflowError, f"deconvolved sample sigma[{index}] lies beyond the double range")
      for id, values, tau, node, index in (
          # nu = 1e-10, 0, 0
          ("overflow", [1.0, 1e308, 1.0], None, NodeDynamics(A=[[0.0]], beta=[1.0], gamma=[1e-10]), 1),
          # nu_k = e^-k
          ("ct-overflow", [1.0, 1.0, 1e308], 1.0, NodeDynamics(A=[[-1.0]], beta=[1.0], gamma=[1.0]), 2))),
    # oracle
    Row("observable_partition-overflowing-projection", partial(observable_partition, CHAIN3, c=[1.0, 1.0, 1.0],
                                                               x0=[1e308, -1e308, 1e308]),
        OverflowError, "the modal weights (c^T u_i)(w_i^T x0) or |c| |x0| exceed the double range"),
    # both eigenvalues once looked unobservable beside modal weights of 5e307, after two numpy warnings
    Row("observable_partition-overflowing-shift", partial(observable_partition, [[1e308, 1e308], [0.0, -1e308]],
                                                          c=[1.0, 1.0], x0=[1.0, 1e308]),
        OverflowError, "M - lambda I exceeds the double range"),
    # numpy's eigenvalue inf once gave inf * 0 = nan in M - lambda I, and the SVD failed on it
    Row("observable_partition-infinite-eigenvalue", partial(observable_partition, HUGE_SWAP, c=[1.0] * 3, x0=[1.0] * 3),
        OverflowError, "an eigenvalue's modulus exceeds the double range"),
    # three finite eigenvalues of modulus max double: hypot overflowed, with a warning, in their
    # clustering, and they merged into one eigenvalue of multiplicity 3
    Row("observable_partition-eigenvalue-modulus-overflow", partial(
        observable_partition, np.roll(np.eye(3), 1, axis=1) * 1.7976931348623157e308, c=[1.0] * 3, x0=[1.0] * 3),
        OverflowError, "an eigenvalue's modulus exceeds the double range"),
    Row("observable_partition-short-c", partial(observable_partition, CHAIN3, c=[1.0, 0.0], x0=[1.0] * 3),
        ValueError, "x0 and c must be equal-length vectors, got (3,) and (2,)"),
    Row("observable_partition-short-setup", partial(observable_partition, CHAIN3, c=[1.0, 0.0], x0=[1.0] * 2),
        ValueError, "matrix is 3x3 but the setup has 2 components"),
    Row("observable_partition-nan-c", partial(observable_partition, np.eye(2), c=[math.nan, 1.0], x0=[1.0, 1.0]),
        ValueError, "c[0] is not finite: nan"),
    Row("full_spectrum-nan-entry", partial(full_spectrum, [[math.nan, 0.0], [0.0, 1.0]]), ValueError,
        "matrix[0, 0] is not finite: nan"),
    # numpy's own, unnamed "could not convert string to float: 'a'"
    Row("full_spectrum-string-entry", partial(full_spectrum, [["a"]]), ValueError,
        "matrix holds 'a', which is not a number"),
    # both once failed in the assignment, with its own words
    Row("match_spectra-nan-estimate", partial(match_spectra, [math.nan], [0.5], 1.0), ValueError,
        "estimated[0] is not finite: (nan+0j)"),
    Row("match_spectra-inf-estimate", partial(match_spectra, [0.5, math.inf], [0.5], 1.0), ValueError,
        "estimated[1] is not finite: (inf+0j)"),
    Row("match_spectra-nan-truth", partial(match_spectra, [0.5], [0.5, complex(1.0, math.nan)], 1.0), ValueError,
        "truth[1] is not finite: (1+nanj)"),
    # scenarios
    Row("run_scenario-unknown", partial(run_scenario, "fig4"), ValueError,
        "unknown scenario 'fig4'; pick one of ('fig1', 'fig2', 'fig3')"),
]


def refusal(row: Row, where: Path, monkeypatch) -> tuple[BaseException | None, list[str]]:
    """``row``'s call run in the directory ``where``: the exception it raised,
    if any, and each warning it gave first, as ``Category: message``."""
    for name, text in row.files.items():
        (where / name).write_text(text)
    monkeypatch.chdir(where)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            row.call()
        except Exception as exc:  # the row names the exact type
            error = exc
    return error, [f"{w.category.__name__}: {w.message}" for w in caught]


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_a_refused_call_raises_its_error_with_its_message_and_no_warning(tmp_path, monkeypatch, row):
    error, warned = refusal(row, tmp_path, monkeypatch)
    assert (type(error), str(error), warned) == (row.error, row.message, [])


# functions whose refusals another test pins: the assignment port's, against scipy's
PINNED_ELSEWHERE = {"_shortest_augmenting_path"}


def raise_sites(source: str) -> dict[int, range]:
    """The first line and the line span of each ``raise`` in ``source``, but
    for those under an ``if __name__ == "__main__":`` at its top level and
    those in a function named in ``PINNED_ELSEWHERE``."""
    tree = ast.parse(source)
    exempt = [top for top in tree.body if isinstance(top, ast.If)
              and ast.unparse(top.test) == "__name__ == '__main__'"]
    exempt += [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and node.name in PINNED_ELSEWHERE]
    skipped = {id(node) for top in exempt for node in ast.walk(top)}
    return {node.lineno: range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(tree) if isinstance(node, ast.Raise) and id(node) not in skipped}


def test_every_raise_and_stderr_line_in_src_is_reached_by_a_row(tmp_path, monkeypatch):
    sites = {path: raise_sites(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    sites[SRC / "cli.py"] |= cli_catalogue.stderr_sites((SRC / "cli.py").read_text())
    reached = set()

    def lines(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    previous = sys.gettrace()
    files = {str(path) for path in sites}
    sys.settrace(lambda frame, event, arg: lines if frame.f_code.co_filename in files else None)
    try:
        for i, row in enumerate([*ROWS, *cli_catalogue.ROWS]):
            (where := tmp_path / str(i)).mkdir()
            (refusal if isinstance(row, Row) else cli_catalogue.outcome)(row, where, monkeypatch)
    finally:
        sys.settrace(previous)
    assert [f"{path.name}:{line}" for path, found in sites.items() for line, span in found.items()
            if not any((str(path), n) in reached for n in span)] == []
    # and the finders see each kind of site, but the script's exit and the port's refusals
    planted = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError(x)\n"
        "    try:\n"
        "        g(lambda: h())\n"
        "    except KeyError:\n"
        "        raise\n"
        "    raise TypeError(\n"
        "        'y') from None\n"
        "\n"
        "if __name__ == '__main__':\n"
        "    raise SystemExit(f(1))\n"
        "\n"
        "def _shortest_augmenting_path(cost):\n"
        "    raise ValueError(cost)\n"
    )
    assert {line: list(span) for line, span in raise_sites(planted).items()} == {3: [3], 7: [7], 8: [8, 9]}
    planted = "_fail_usage('a')\nprint('b', file=sys.stderr)\nparser.error('c')\nprint('d')\nf('e')\n"
    assert sorted(cli_catalogue.stderr_sites(planted)) == [1, 2, 3]
