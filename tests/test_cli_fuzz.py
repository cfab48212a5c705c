"""Every CLI step that reads a file ends with exit code 0, 1 or 2, whatever the file holds.

Each property writes one fuzzed file (sidecar, setup, estimate or node JSON,
or a matrix or sequence CSV) next to a valid chain and runs the steps that
read it in process; ``simulate`` reads a node file, ``estimate`` the node in
a sidecar, which is the ``.json`` file next to its sequence CSV. An
exception escaping ``main`` is what a user would see as a traceback. The
drawn values mix arbitrary JSON or text with the keys, headers and numbers
each file is expected to hold, so the checks past the first are reached.
Every property also fails on a warning, since a warning reaches the user's
stderr. Settings come only from flags, which argparse checks, so no fuzzed
file sets one. No CLI step reads a graph TSV, so ``read_graph_tsv`` is
fuzzed directly: it returns a graph or raises ``ValueError``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_scope.cli import main
from spectral_scope.graphs import read_graph_tsv


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
    """A valid 3-node chain: matrix, DT and CT sequences with sidecars (plain,
    and networked ``dtn``/``ctn`` whose sidecars carry ``NODE``), setup, estimate."""
    d = tmp_path_factory.mktemp("chain")
    (d / "m.csv").write_text("0.5,1,0\n0,-0.4,1\n0.3,0,0.2\n")
    (d / "node.json").write_text(json.dumps(NODE))
    steps = [
        ["simulate", "--matrix", d / "m.csv", "--seed", 1, "--K", 8, "--out", d / "dt.csv"],
        ["simulate", "--matrix", d / "m.csv", "--mode", "ct", "--tau", 0.5, "--seed", 1,
         "--K", 8, "--out", d / "ct.csv"],
        ["simulate", "--matrix", d / "m.csv", "--seed", 1, "--K", 8, "--node", d / "node.json",
         "--out", d / "dtn.csv"],
        ["simulate", "--matrix", d / "m.csv", "--mode", "ct", "--tau", 0.5, "--seed", 1,
         "--K", 8, "--node", d / "node.json", "--out", d / "ctn.csv"],
        ["estimate", "--y", d / "dt.csv", "--out", d / "spectrum.json"],
    ]
    assert [exit_code(argv) for argv in steps] == [0, 0, 0, 0, 0]
    for name in ("dtn.json", "ctn.json"):
        assert json.loads((d / name).read_text())["node"] == {"schema": 1, **NODE}
    return d


def beside(csv: Path, sidecar: Path, dest: Path) -> Path:
    """``dest``, holding the sequence ``csv``, with ``sidecar`` copied next to it."""
    dest.write_bytes(csv.read_bytes())
    dest.with_suffix(".json").write_bytes(sidecar.read_bytes())
    return dest


def sequence_with_node(chain, mode: str, node, tmp: Path) -> Path:
    """A copy of the chain's ``mode`` sequence whose sidecar has ``node`` as its node."""
    meta = json.loads((chain / f"{mode}.json").read_text())
    (tmp / "with-node.json").write_text(json.dumps({**meta, "node": node}))
    return beside(chain / f"{mode}.csv", tmp / "with-node.json", tmp / "with-node.csv")


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


@pytest.mark.filterwarnings("error")
@FUZZ
@given(
    meta=ANY | st.fixed_dictionaries(
        {"mode": st.sampled_from(["dt", "ct"]) | ANY},
        optional={  # n_hint: a key that older sidecars carry and no step reads
            "tau": st.sampled_from([0.5, 1.0]) | ANY, "n_hint": ANY, "seed": ANY,
            "node": st.just(NODE) | st.integers(1, 3).flatmap(square_node) | ANY,
        },
    ),
    sequence=st.sampled_from(["dt.csv", "ct.csv"]),
)
def test_any_sidecar_ends_estimate_with_an_exit_code(chain, meta, sequence):
    run_with(meta, "y.json", lambda path, tmp: [
        ["estimate", "--y", beside(chain / sequence, path, tmp / "y.csv"), "--out", tmp / "s.json"],
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
    # simulate reads the node from --node, estimate from the sidecar's "node"
    run_with(node, "node.json", lambda path, tmp: [
        ["simulate", "--matrix", chain / "m.csv", "--mode", mode, "--tau", 0.5,
         "--K", 6, "--seed", 2, "--node", path, "--out", tmp / "y.csv"],
        ["estimate", "--y", sequence_with_node(chain, mode, node, tmp), "--out", tmp / "s.json"],
    ])


# =========================================================================
# Text inputs: matrix CSV, sequence CSV and graph TSV
# =========================================================================

TEXT = st.text(max_size=40)
# any double, written as the writers write it, plus the values at the range's edges
SAMPLE = (
    st.floats(-2.0, 2.0).map(repr)
    | st.floats().map(repr)
    | st.sampled_from(["0", "-0.0", "1e308", "-1e308", "1e-320", "nan", "-inf"])
)
CELL = SAMPLE | st.sampled_from(["", " ", "1e999", "0x1p3", "1_0", "#", "a"]) | st.text(max_size=4)


def text_table(rows, cols, cell=CELL, sep=","):
    row = st.lists(cell, min_size=cols[0], max_size=cols[1]).map(sep.join)
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
SQUARE = st.sampled_from([1, 2, 3, 3]).flatmap(lambda n: text_table((n, n), (n, n), cell=SAMPLE))


@pytest.mark.filterwarnings("error")
@FUZZ
@given(matrix=TEXT | text_table((0, 4), (0, 4)) | SQUARE, mode=st.sampled_from(["dt", "ct"]))
@example(matrix="", mode="dt")
@example(matrix="# no data\n", mode="dt")
@example(matrix="1e308,1e308,1e308\n" * 3, mode="ct")
def test_any_matrix_csv_ends_simulate_and_verify_with_an_exit_code(chain, matrix, mode):
    run_on_text(matrix, "m.csv", lambda path, tmp: [
        ["simulate", "--matrix", path, "--mode", mode, "--tau", 0.5, "--K", 6, "--seed", 3,
         "--out", tmp / "y.csv"],
        ["verify", "--matrix", path, "--estimate", chain / "spectrum.json",
         "--setup", chain / "dt.setup.json", "--out", tmp / "v.json"],
    ])


INDEX = st.integers(-1, 8).map(str) | st.sampled_from(["0.0", "1e0", "2.5", "nan", ""])


@pytest.mark.filterwarnings("error")
@FUZZ
@given(
    header=st.sampled_from(["k,y", "t,y", " k , y", "y,k"]) | TEXT,
    rows=st.lists(st.tuples(INDEX, CELL).map(",".join) | TEXT, max_size=8),
    samples=st.lists(SAMPLE, min_size=1, max_size=12),
    formed=st.booleans(),
    sequence=st.sampled_from(["dt.csv", "ct.csv"]),
)
@example(header="k,y", rows=["0,1e308", "1,-1e308", "2,1e308", "3,-1e308"], samples=["0"],
         formed=False, sequence="dt.csv")
@example(header="t,y", rows=["0,1e-320", "0.5,1e-320", "1,1e-320"], samples=["0"],
         formed=False, sequence="ct.csv")
def test_any_sequence_csv_ends_estimate_with_an_exit_code(chain, header, rows, samples, formed, sequence):
    if formed:  # the header and index column the sidecar asks for, so the samples reach the estimator
        header, step = ("k,y", 1.0) if sequence == "dt.csv" else ("t,y", 0.5)
        rows = [f"{k * step!r},{y}" for k, y in enumerate(samples)]
    sidecar, networked = (chain / sequence.replace(".csv", suffix) for suffix in (".json", "n.json"))
    run_on_text("\n".join([header, *rows]) + "\n", "y.csv", lambda path, tmp: [
        ["estimate", "--y", beside(path, sidecar, path), "--out", tmp / "s.json"],
        ["estimate", "--y", beside(path, networked, tmp / "yn.csv"), "--out", tmp / "s.json"],
    ])


EDGE_CELL = st.integers(-2, 5).map(str) | CELL


@FUZZ
@given(
    header=st.sampled_from(["# n=4 directed=0", "# n=4 directed=1", "#n=0 directed=0", "# n=4"]) | TEXT,
    body=text_table((0, 5), (0, 4), cell=EDGE_CELL, sep="\t") | TEXT,
)
@example(header="# n=4 directed=0", body="0\t1\t0.5\n2\t3\t1e999\n")
@example(header="# n directed=0", body="")
def test_any_graph_tsv_reads_as_a_graph_or_a_value_error(header, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.tsv"
        path.write_text(f"{header}\n{body}")
        try:
            graph = read_graph_tsv(path)
        except ValueError:
            return
        assert graph.n >= 1 and all(0 <= u < graph.n and 0 <= v < graph.n for u, v, _ in graph.edges)
