"""Every CLI step that reads a file ends with exit code 0, 1 or 2, whatever the file holds.

Each property writes one fuzzed file (sequence, setup, estimate or node
JSON, or a matrix CSV) next to a valid chain and runs the steps that read it
in process; ``simulate`` reads a node file, ``estimate`` the node in a
sequence record. An exception escaping ``main`` is what a user would see as
a traceback. The drawn values mix arbitrary JSON or text with the keys and
numbers each file is expected to hold, so the checks past the first are reached.
Every property also fails on a warning, since a warning reaches the user's
stderr. Settings come only from flags, which argparse checks, so no fuzzed
file sets one.
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
NODE = {"A": [[-0.5]], "beta": [1.0], "gamma": [1.0]}


def exit_code(argv) -> int:
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse's own usage errors
        return exc.code


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A valid 3-node chain: matrix, DT and CT sequence records (plain, and
    networked ``dtn``/``ctn``, which carry ``NODE``), setup, estimate."""
    d = tmp_path_factory.mktemp("chain")
    (d / "m.csv").write_text("0.5,1,0\n0,-0.4,1\n0.3,0,0.2\n")
    (d / "node.json").write_text(json.dumps(NODE))
    steps = [
        ["simulate", "--matrix", d / "m.csv", "--seed", 1, "--K", 8, "--out", d / "dt.json"],
        ["simulate", "--matrix", d / "m.csv", "--mode", "ct", "--tau", 0.5, "--seed", 1,
         "--K", 8, "--out", d / "ct.json"],
        ["simulate", "--matrix", d / "m.csv", "--seed", 1, "--K", 8, "--node", d / "node.json",
         "--out", d / "dtn.json"],
        ["simulate", "--matrix", d / "m.csv", "--mode", "ct", "--tau", 0.5, "--seed", 1,
         "--K", 8, "--node", d / "node.json", "--out", d / "ctn.json"],
        ["estimate", "--y", d / "dt.json", "--out", d / "spectrum.json"],
    ]
    assert [exit_code(argv) for argv in steps] == [0, 0, 0, 0, 0]
    for name in ("dtn.json", "ctn.json"):
        assert json.loads((d / name).read_text())["node"] == {"schema": 1, **NODE}
    return d


def sequence_with_node(chain, mode: str, node, tmp: Path) -> Path:
    """A copy of the chain's ``mode`` sequence record with ``node`` as its node."""
    record = json.loads((chain / f"{mode}.json").read_text())
    (tmp / "with-node.json").write_text(json.dumps({**record, "node": node}))
    return tmp / "with-node.json"


def run_with(payload, name: str, steps) -> None:
    """Write ``payload`` as JSON to a fresh ``name`` and run each step that reads it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(payload))
        for step in steps(path, Path(tmp)):
            assert exit_code(step) in (0, 1, 2), step


def square_node(d: int):
    entry = FINITE | NUMBER
    vector = st.lists(entry, min_size=d, max_size=d)
    return st.fixed_dictionaries(
        {"A": st.lists(vector, min_size=d, max_size=d) | ANY, "beta": vector | ANY, "gamma": vector | ANY},
    )


# any double, as a JSON number, plus the values at the range's edges
SAMPLE = st.floats(-2.0, 2.0) | st.floats() | st.sampled_from([0.0, -0.0, 1e308, -1e308, 1e-320])


@pytest.mark.filterwarnings("error")
@FUZZ
@given(
    record=ANY | st.fixed_dictionaries(
        {"values": st.lists(SAMPLE, min_size=1, max_size=12) | ANY},
        optional={
            "tau": st.sampled_from([0.5, 1.0]) | ANY, "seed": ANY,
            "node": st.just(NODE) | st.integers(1, 3).flatmap(square_node) | ANY,
        },
    ),
)
@example(record={"values": [1e308, -1e308, 1e308, -1e308]})
@example(record={"values": [1e-320] * 3, "tau": 0.5})
@example(record={"values": [1e308, -1e308, 1e308, -1e308], "node": NODE})
def test_any_sequence_record_ends_estimate_with_an_exit_code(record):
    run_with(record, "y.json", lambda path, tmp: [
        ["estimate", "--y", path, "--out", tmp / "s.json"],
    ])


@pytest.mark.filterwarnings("error")
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


@pytest.mark.filterwarnings("error")
@FUZZ
@given(estimate=ANY | st.fixed_dictionaries({"roots": st.lists(ROOT, max_size=4) | ANY}))
@example(estimate={"roots": [{"re": 10**400, "im": 0}]})
@example(estimate={"roots": [{"re": 1, "im": 0, "multiplicity": float("inf")}]})
def test_any_estimate_ends_verify_with_an_exit_code(chain, estimate):
    run_with(estimate, "spectrum.json", lambda path, tmp: [
        ["verify", "--matrix", chain / "m.csv", "--estimate", path,
         "--setup", chain / "dt.setup.json", "--out", tmp / "v.json"],
    ])


@pytest.mark.filterwarnings("error")
@FUZZ
@given(node=ANY | st.integers(1, 3).flatmap(square_node), mode=st.sampled_from(["dt", "ct"]))
def test_any_node_ends_simulate_and_estimate_with_an_exit_code(chain, node, mode):
    # simulate reads the node from --node, estimate from the sequence record's "node"
    run_with(node, "node.json", lambda path, tmp: [
        ["simulate", "--matrix", chain / "m.csv", "--mode", mode, "--tau", 0.5,
         "--K", 6, "--seed", 2, "--node", path, "--out", tmp / "y.json"],
        ["estimate", "--y", sequence_with_node(chain, mode, node, tmp), "--out", tmp / "s.json"],
    ])


# =========================================================================
# Text inputs: matrix CSV
# =========================================================================

TEXT = st.text(max_size=40)
# any double, written as the writers write it, plus the values at the range's edges
NUMERAL = (
    st.floats(-2.0, 2.0).map(repr)
    | st.floats().map(repr)
    | st.sampled_from(["0", "-0.0", "1e308", "-1e308", "1e-320", "nan", "-inf"])
)
CELL = NUMERAL | st.sampled_from(["", " ", "1e999", "0x1p3", "1_0", "#", "a"]) | st.text(max_size=4)


def text_table(rows, cols, cell=CELL):
    row = st.lists(cell, min_size=cols[0], max_size=cols[1]).map(",".join)
    return st.lists(row, min_size=rows[0], max_size=rows[1]).map(lambda lines: "\n".join(lines) + "\n")


def run_on_text(text: str, name: str, steps) -> None:
    """Write ``text`` to a fresh ``name`` and run each step that reads it; no
    step may raise, and none may warn, since a warning reaches the user's stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        for step in steps(path, Path(tmp)):
            assert exit_code(step) in (0, 1, 2), step


# square tables of numbers reach the rollouts and, at n = 3, the verify oracle
SQUARE = st.sampled_from([1, 2, 3, 3]).flatmap(lambda n: text_table((n, n), (n, n), cell=NUMERAL))


@pytest.mark.filterwarnings("error")
@FUZZ
@given(matrix=TEXT | text_table((0, 4), (0, 4)) | SQUARE, mode=st.sampled_from(["dt", "ct"]))
@example(matrix="", mode="dt")
@example(matrix="# no data\n", mode="dt")
@example(matrix="1e308,1e308,1e308\n" * 3, mode="ct")
def test_any_matrix_csv_ends_simulate_and_verify_with_an_exit_code(chain, matrix, mode):
    run_on_text(matrix, "m.csv", lambda path, tmp: [
        ["simulate", "--matrix", path, "--mode", mode, "--tau", 0.5, "--K", 6, "--seed", 3,
         "--out", tmp / "y.json"],
        ["verify", "--matrix", path, "--estimate", chain / "spectrum.json",
         "--setup", chain / "dt.setup.json", "--out", tmp / "v.json"],
    ])


# finite doubles of every scale, with the largest ones drawn often
WIDE = st.floats(-2.0, 2.0) | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, 8e307, -1.6e308, 1.7976931348623157e308, -1.7976931348623157e308])
SYSTEM = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(WIDE, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(WIDE, min_size=n, max_size=n), st.lists(WIDE, min_size=n, max_size=n)))


@pytest.mark.filterwarnings("error")
@FUZZ
@given(system=SYSTEM, roots=st.lists(st.tuples(WIDE, WIDE), min_size=1, max_size=5))
# numpy finds the eigenvalues -2.82e307 +- inf j
@example(system=([[0.0, 1.6e308, 1.6e308], [-1.6e308, 0.0, 8e307], [-8e307, -8e307, -8e307]], [1.0] * 3, [1.0] * 3),
         roots=[(0.5, 0.0)])
# the unmatched true eigenvalue 1e308 lies 2e308 from the missing -1e308
@example(system=([[1e308, 0.0], [0.0, -1e308]], [1.0, 1.0], [1.0, 0.0]), roots=[(0.5, 0.0)])
def test_any_finite_system_near_the_double_range_ends_verify_with_an_exit_code(system, roots):
    M, x0, c = system
    estimate = {"schema": 1, "mode": "dt", "rank": len(roots), "residual": 0.0,
                "roots": [{"re": re, "im": im, "multiplicity": 1} for re, im in roots]}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "m.csv").write_text("".join(",".join(map(repr, row)) + "\n" for row in M))
        (d / "setup.json").write_text(json.dumps({"x0": x0, "c": c}))
        (d / "s.json").write_text(json.dumps(estimate))
        assert exit_code(["verify", "--matrix", d / "m.csv", "--estimate", d / "s.json",
                          "--setup", d / "setup.json", "--out", d / "v.json"]) in (0, 1, 2)
