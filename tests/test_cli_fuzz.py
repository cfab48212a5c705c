"""Every CLI step that reads a JSON file ends with exit code 0, 1 or 2, whatever the file holds.

Each property writes one fuzzed file (sidecar, setup, estimate or node) next
to a valid chain and runs the steps that read it in process: an exception
escaping ``main`` is what a user would see as a traceback. The drawn values
mix arbitrary JSON with the keys each file is expected to hold, so the checks
past the first ``isinstance`` are reached. Settings come only from flags,
which argparse checks, so no fuzzed file sets one.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_scope.cli import main


def json_values():
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=10,
    )


ANY = json_values()
NUMBER = st.integers() | st.floats()
FINITE = st.floats(-2.0, 2.0)
VECTOR = st.lists(FINITE, min_size=3, max_size=3) | st.lists(NUMBER, min_size=3, max_size=3) | ANY
FUZZ = settings(max_examples=80, deadline=None)


def exit_code(argv) -> int:
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse's own usage errors
        return exc.code


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A valid 3-node chain: matrix, DT and CT sequences with sidecars, setup, estimate, node."""
    d = tmp_path_factory.mktemp("chain")
    (d / "m.csv").write_text("0.5,1,0\n0,-0.4,1\n0.3,0,0.2\n")
    (d / "node.json").write_text(json.dumps({"A": [[-0.5]], "beta": [1.0], "gamma": [1.0]}))
    steps = [
        ["simulate", "--matrix", d / "m.csv", "--seed", 1, "--K", 8, "--out", d / "dt.csv"],
        ["simulate", "--matrix", d / "m.csv", "--mode", "ct", "--tau", 0.5, "--seed", 1,
         "--K", 8, "--out", d / "ct.csv"],
        ["estimate", "--y", d / "dt.csv", "--out", d / "spectrum.json"],
    ]
    assert [exit_code(argv) for argv in steps] == [0, 0, 0]
    return d


def run_with(payload, name: str, steps) -> None:
    """Write ``payload`` as JSON to a fresh ``name`` and run each step that reads it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(payload))
        for step in steps(path, Path(tmp)):
            assert exit_code(step) in (0, 1, 2), step


@FUZZ
@given(
    meta=ANY | st.fixed_dictionaries(
        {"mode": st.sampled_from(["dt", "ct"]) | ANY},
        optional={"tau": st.sampled_from([0.5, 1.0]) | ANY, "n_hint": ANY, "seed": ANY},
    ),
    sequence=st.sampled_from(["dt.csv", "ct.csv"]),
    node=st.booleans(),
)
def test_any_sidecar_ends_estimate_with_an_exit_code(chain, meta, sequence, node):
    with_node = ("--node", chain / "node.json") if node else ()
    run_with(meta, "sidecar.json", lambda path, tmp: [
        ["estimate", "--y", chain / sequence, "--sidecar", path, *with_node, "--out", tmp / "s.json"],
    ])


@FUZZ
@given(
    setup=ANY | st.fixed_dictionaries(
        {"x0": VECTOR, "c": VECTOR}, optional={"tol": st.floats(0.0, 1.0) | NUMBER | ANY},
    ),
)
@example(setup={"x0": [10**400, 0, 0], "c": [1, 0, 0]})
@example(setup={"x0": [1, 0, 0], "c": [1, 0, 0], "tol": 10**400})
def test_any_setup_ends_verify_with_an_exit_code(chain, setup):
    run_with(setup, "setup.json", lambda path, tmp: [
        ["verify", "--matrix", chain / "m.csv", "--estimate", chain / "spectrum.json",
         "--setup", path, "--out", tmp / "v.json"],
    ])


ROOT = st.fixed_dictionaries(
    {"re": NUMBER | ANY, "im": NUMBER | ANY},
    optional={"multiplicity": st.integers(-1, 4) | ANY},
)


@FUZZ
@given(estimate=ANY | st.fixed_dictionaries({"roots": st.lists(ROOT, max_size=4) | ANY}))
@example(estimate={"roots": [{"re": 10**400, "im": 0}]})
@example(estimate={"roots": [{"re": 1, "im": 0, "multiplicity": float("inf")}]})
def test_any_estimate_ends_verify_with_an_exit_code(chain, estimate):
    run_with(estimate, "spectrum.json", lambda path, tmp: [
        ["verify", "--matrix", chain / "m.csv", "--estimate", path,
         "--setup", chain / "dt.setup.json", "--out", tmp / "v.json"],
    ])


def square_node(d: int):
    entry = FINITE | NUMBER
    vector = st.lists(entry, min_size=d, max_size=d)
    return st.fixed_dictionaries(
        {"A": st.lists(vector, min_size=d, max_size=d) | ANY, "beta": vector | ANY, "gamma": vector | ANY},
    )


@FUZZ
@given(node=ANY | st.integers(1, 3).flatmap(square_node), mode=st.sampled_from(["dt", "ct"]))
def test_any_node_ends_simulate_and_estimate_with_an_exit_code(chain, node, mode):
    run_with(node, "node.json", lambda path, tmp: [
        ["simulate", "--matrix", chain / "m.csv", "--mode", f"{mode}-networked", "--tau", 0.5,
         "--K", 6, "--seed", 2, "--node", path, "--out", tmp / "y.csv"],
        ["estimate", "--y", chain / f"{mode}.csv", "--node", path, "--out", tmp / "s.json"],
    ])
