"""Command-line pipeline: generate -> simulate -> estimate -> verify, demos, bench."""

from __future__ import annotations

import ast
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from spectral_scope import (
    NodeDynamics,
    ObservationSetup,
    cli,
    read_matrix_csv,
    read_sequence,
    scenarios,
    simulate_ct_networked,
    simulate_dt_networked,
)
from spectral_scope.cli import build_parser, main
from spectral_scope.dynamics import SimulationOverflowError
from spectral_scope.estimator import estimate_spectrum
from spectral_scope.oracle import observable_partition

README = Path(__file__).resolve().parents[1] / "README.md"
SWAP_CSV = "0,1\n1,0\n"
ROT_CSV = "0,1\n-1,0\n"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# =========================================================================
# generate
# =========================================================================


def test_generate_directed_weighted_ring(tmp_path, capsys):
    graph, matrix = tmp_path / "g.tsv", tmp_path / "m.csv"
    code, out, _ = run(
        capsys, "generate", "--model", "ring", "--n", 8, "--directed",
        "--weights", "0.5,1.5", "--seed", 3, "--graph-out", graph, "--matrix-out", matrix,
    )
    assert code == 0
    assert "n=8 edges=8 directed=1 kind=adjacency" in out
    M = read_matrix_csv(matrix)
    assert M.shape == (8, 8) and np.count_nonzero(M) == 8
    # one directed edge out of each node, onto its successor
    for i in range(8):
        assert M[i, (i + 1) % 8] != 0.0


def test_generate_preferential_attachment_edge_count(tmp_path, capsys):
    graph, matrix = tmp_path / "g.tsv", tmp_path / "m.csv"
    code, out, _ = run(
        capsys, "generate", "--model", "pa", "--n", 10, "--m", 2, "--seed", 0,
        "--graph-out", graph, "--matrix-out", matrix,
    )
    assert code == 0 and "edges=17" in out


def test_generate_writes_the_row_stochastic_matrix(tmp_path, capsys):
    graph, matrix = tmp_path / "g.tsv", tmp_path / "m.csv"
    argv = ["generate", "--model", "ring", "--n", 5, "--weights", "0.5,1.5", "--seed", 1,
            "--graph-out", graph, "--matrix-out", matrix]
    code, out, _ = run(capsys, *argv, "--kind", "row-stochastic")
    assert code == 0 and "kind=row-stochastic" in out
    assert np.allclose(read_matrix_csv(matrix).sum(axis=1), 1.0)


# =========================================================================
# simulate
# =========================================================================


def test_simulate_writes_the_swap_trace_verbatim(tmp_path, capsys):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    out_y = tmp_path / "y.json"
    code, _, _ = run(
        capsys, "simulate", "--matrix", matrix, "--x0", "1,0", "--observe", 0,
        "--K", 4, "--out", out_y,
    )
    assert code == 0
    assert out_y.read_text() == '{"schema": 1, "tau": null, "values": [1.0, 0.0, 1.0, 0.0], "seed": null}\n'
    setup = json.loads((tmp_path / "y.setup.json").read_text())
    assert setup == {"schema": 1, "x0": [1.0, 0.0], "c": [1.0, 0.0]}


def test_a_whole_float_observed_node_is_that_node(tmp_path, capsys):
    # --observe reads its entries as the other list flags do, and random_setup takes 1.0 as node 1
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    written = []
    for nodes in ("1.0,0", "1,0"):
        out_y = tmp_path / f"{nodes}.json"
        code, _, _ = run(capsys, "simulate", "--matrix", matrix, "--observe", nodes, "--observe-weights", "2,3",
                         "--seed", 3, "--out", out_y)
        assert code == 0
        written.append((out_y.read_bytes(), out_y.with_suffix(".setup.json").read_bytes()))
    assert written[0] == written[1]
    assert json.loads(written[0][1])["c"] == [3.0, 2.0]


def test_simulate_defaults_to_two_n_samples(tmp_path, capsys):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    out_y = tmp_path / "y.json"
    code, _, _ = run(capsys, "simulate", "--matrix", matrix, "--seed", 1, "--out", out_y)
    assert code == 0
    assert len(read_sequence(out_y)) == 4


@pytest.mark.parametrize("mode, simulator", [("dt", simulate_dt_networked), ("ct", simulate_ct_networked)])
def test_a_node_makes_simulate_networked(tmp_path, capsys, mode, simulator):
    matrix = tmp_path / "rot.csv"
    matrix.write_text(ROT_CSV)
    tau = ("--tau", 0.5) if mode == "ct" else ()
    base = ("simulate", "--matrix", matrix, "--mode", mode, *tau, "--seed", 4)
    assert run(capsys, *base, "--out", tmp_path / "plain.json")[0] == 0
    code, out, _ = run(capsys, *base, "--node-d", 3, "--node-seed", 5, "--out", tmp_path / "y.json")
    assert code == 0 and out.endswith(" (y.setup.json)\n")
    assert sorted(p.name for p in tmp_path.glob("y.*")) == ["y.json", "y.setup.json"]
    node = NodeDynamics.random_symmetric(3, seed=5)
    written = json.loads((tmp_path / "y.json").read_text())["node"]
    assert [written[k] for k in ("A", "beta", "gamma")] == [node.A.tolist(), node.beta.tolist(), node.gamma.tolist()]
    setup = json.loads((tmp_path / "y.setup.json").read_text())
    assert sorted(setup) == ["c", "schema", "x0"]  # the node is the sequence record's alone
    kwargs = {"tau": 0.5} if mode == "ct" else {}
    expected = simulator(read_matrix_csv(matrix), node, ObservationSetup(setup["x0"], setup["c"]), K=4, **kwargs)
    y = read_sequence(tmp_path / "y.json")
    assert y.values.tobytes() == expected.values.tobytes()
    assert y.values.tobytes() != read_sequence(tmp_path / "plain.json").values.tobytes()


@pytest.mark.parametrize("mode, simulator", [("dt", simulate_dt_networked), ("ct", simulate_ct_networked)])
def test_estimate_of_a_networked_simulate_gives_the_library_bytes(tmp_path, capsys, mode, simulator):
    # the node reaches estimate through the sequence record alone, and the verdict holds
    matrix, y_path, spectrum = tmp_path / "m.csv", tmp_path / "y.json", tmp_path / "spectrum.json"
    tau = ("--tau", 0.5) if mode == "ct" else ()
    steps = [
        ("generate", "--model", "ring", "--n", 6, "--directed", "--weights", "0.5,1.5", "--seed", 3,
         "--graph-out", tmp_path / "g.tsv", "--matrix-out", matrix),
        ("simulate", "--matrix", matrix, "--mode", mode, *tau, "--node-d", 3, "--node-seed", 5,
         "--seed", 11, "--out", y_path),
        ("estimate", "--y", y_path, "--rank-tolerance", 1e-14, "--out", spectrum),
        ("verify", "--matrix", matrix, "--estimate", spectrum, "--setup", tmp_path / "y.setup.json",
         "--tol", 1e-6, "--out", tmp_path / "v.json"),
    ]
    assert [run(capsys, *argv)[0] for argv in steps] == [0, 0, 0, 0]
    setup = json.loads((tmp_path / "y.setup.json").read_text())
    kwargs = {"tau": 0.5} if mode == "ct" else {}
    y = simulator(read_matrix_csv(matrix), NodeDynamics.random_symmetric(3, seed=5),
                  ObservationSetup(setup["x0"], setup["c"]), K=12, **kwargs)
    est = estimate_spectrum(y, rank_tolerance=1e-14)
    assert spectrum.read_text() == json.dumps(est.to_json_dict()) + "\n"


def test_simulate_samples_continuous_decay(tmp_path, capsys):
    matrix = tmp_path / "decay.csv"
    matrix.write_text("-1\n")
    out_y = tmp_path / "y.json"
    code, _, _ = run(
        capsys, "simulate", "--matrix", matrix, "--mode", "ct", "--tau", 1.0,
        "--x0", "1", "--observe", 0, "--K", 4, "--out", out_y,
    )
    assert code == 0
    seq = read_sequence(out_y)
    assert seq.mode == "ct" and seq.tau == 1.0
    assert np.max(np.abs(seq.values - np.exp(-np.arange(4)))) < 1e-15
    assert out_y.read_text().startswith('{"schema": 1, "tau": 1.0, "values": [1.0, 0.36787944117144233, ')


def test_simulate_reports_overflow_and_keeps_the_partial_trace(tmp_path, capsys):
    matrix = tmp_path / "hot.csv"
    matrix.write_text("1000\n")
    out_y = tmp_path / "y.json"
    code, _, err = run(
        capsys, "simulate", "--matrix", matrix, "--x0", "1", "--observe", 0,
        "--K", 200, "--out", out_y,
    )
    assert code == 1 and "overflow" in err
    partial = read_sequence(out_y)
    assert 0 < len(partial.values) < 200
    assert np.all(np.isfinite(partial.values))


def test_a_networked_partial_trace_keeps_its_node(tmp_path, capsys):
    matrix, node = tmp_path / "hot.csv", tmp_path / "node.json"
    matrix.write_text("1000\n")
    node.write_text(json.dumps({"A": [[0.5]], "beta": [1.0], "gamma": [2.0]}))
    out_y = tmp_path / "y.json"
    code, _, err = run(
        capsys, "simulate", "--matrix", matrix, "--node", node, "--x0", "1", "--observe", 0,
        "--K", 200, "--out", out_y,
    )
    assert code == 1 and "partial sequence written" in err
    partial = read_sequence(out_y)
    assert 0 < len(partial) < 200 and partial.node.gamma.tolist() == [2.0]


# =========================================================================
# estimate
# =========================================================================


def simulate_swap(tmp_path, capsys, x0="1,0"):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    out_y = tmp_path / "y.json"
    code, _, _ = run(
        capsys, "simulate", "--matrix", matrix, "--x0", x0, "--observe", 0,
        "--K", 4, "--out", out_y,
    )
    assert code == 0
    return matrix, out_y


def test_estimate_recovers_the_swap_roots(tmp_path, capsys):
    _, y_path = simulate_swap(tmp_path, capsys)
    code, out, _ = run(capsys, "estimate", "--y", y_path)
    assert code == 0
    payload = json.loads(out)
    roots = [(r["re"], r["im"], r["multiplicity"]) for r in payload["roots"]]
    assert roots == [(1.0, 0.0, 1), (-1.0, 0.0, 1)]
    assert payload["rank"] == 2 and payload["mode"] == "dt"


def test_estimate_of_a_dead_output_is_empty(tmp_path, capsys):
    _, y_path = simulate_swap(tmp_path, capsys, x0="0,0")
    code, out, _ = run(capsys, "estimate", "--y", y_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["roots"] == [] and payload["rank"] == 0


def test_estimate_surfaces_the_aliasing_warning(tmp_path, capsys):
    matrix = tmp_path / "rot.csv"
    matrix.write_text(ROT_CSV)
    y_path = tmp_path / "y.json"
    code, _, _ = run(
        capsys, "simulate", "--matrix", matrix, "--mode", "ct",
        "--tau", np.pi, "--x0", "1,0.3", "--observe", 0, "--K", 8, "--out", y_path,
    )
    assert code == 0
    code, out, _ = run(capsys, "estimate", "--y", y_path)
    assert code == 0
    payload = json.loads(out)
    assert any("aliasing" in w for w in payload["warnings"])


# One chain's setup files as they were written while the setup repeated the
# sequence's mode, tau, seed and node: OLD_MATRIX, then ``simulate --x0
# 1,0.5,0.25 --observe 0 --K 6 --seed 1``, plain in discrete time and, in
# continuous time at tau = 0.5, with the node OLD_NODE.
OLD_MATRIX = "0.5,1,0\n0,-0.4,1\n0.3,0,0.2\n"
OLD_NODE = {"schema": 1, "A": [[-0.5]], "beta": [1.0], "gamma": [1.0]}
OLD_SETUPS = {
    "dt": {"schema": 1, "mode": "dt", "tau": None, "seed": 1, "x0": [1.0, 0.5, 0.25], "c": [1.0, 0.0, 0.0],
           "node": None},
    "ct": {"schema": 1, "mode": "ct", "tau": 0.5, "seed": 1, "x0": [1.0, 0.5, 0.25], "c": [1.0, 0.0, 0.0],
           "node": OLD_NODE},
}


@pytest.mark.parametrize("mode", ["dt", "ct"])
def test_setups_of_the_older_schema_give_the_same_results(tmp_path, capsys, mode):
    setup = OLD_SETUPS[mode]
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        (d / "m.csv").write_text(OLD_MATRIX)
    (new / "node.json").write_text(json.dumps(OLD_NODE))
    flags = ("--mode", "ct", "--tau", 0.5, "--node", new / "node.json") if mode == "ct" else ()
    code, _, _ = run(capsys, "simulate", "--matrix", new / "m.csv", "--x0", "1,0.5,0.25", "--observe", 0,
                     "--K", 6, "--seed", 1, *flags, "--out", new / "y.json")
    assert code == 0
    assert json.loads((new / "y.setup.json").read_text()) == {k: setup[k] for k in ("schema", "x0", "c")}
    (old / "y.json").write_bytes((new / "y.json").read_bytes())
    (old / "y.setup.json").write_text(json.dumps(setup, indent=2) + "\n")
    results = []
    for d in (old, new):
        steps = [
            ("estimate", "--y", d / "y.json", "--out", d / "spectrum.json"),
            ("verify", "--matrix", d / "m.csv", "--estimate", d / "spectrum.json", "--setup", d / "y.setup.json",
             "--out", d / "match.json"),
        ]
        assert [run(capsys, *argv)[0] for argv in steps] == [0, 0]
        results.append([(d / name).read_bytes() for name in ("spectrum.json", "match.json")])
    assert results[0] == results[1]


# =========================================================================
# verify
# =========================================================================


def full_chain(tmp_path, capsys):
    graph, matrix = tmp_path / "g.tsv", tmp_path / "m.csv"
    run(
        capsys, "generate", "--model", "ring", "--n", 5, "--weights", "0.5,1.5",
        "--seed", 3, "--graph-out", graph, "--matrix-out", matrix,
    )
    y_path = tmp_path / "y.json"
    code, _, _ = run(capsys, "simulate", "--matrix", matrix, "--seed", 11, "--out", y_path)
    assert code == 0
    spectrum = tmp_path / "spectrum.json"
    code, _, _ = run(capsys, "estimate", "--y", y_path, "--out", spectrum)
    assert code == 0
    return matrix, spectrum, tmp_path / "y.setup.json"


def test_quick_start_chain_passes_verbatim(tmp_path, capsys):
    # the documented four-command pipeline: ct ring with a tight rank cutoff
    graph, matrix = tmp_path / "ring.tsv", tmp_path / "ring.csv"
    code, _, _ = run(
        capsys, "generate", "--model", "ring", "--n", 8, "--directed",
        "--weights", "0.5,1.5", "--seed", 3, "--graph-out", graph, "--matrix-out", matrix,
    )
    assert code == 0
    y_path = tmp_path / "y.json"
    code, _, _ = run(
        capsys, "simulate", "--matrix", matrix, "--mode", "ct", "--tau", 1.0,
        "--K", 16, "--seed", 11, "--out", y_path,
    )
    assert code == 0
    spectrum = tmp_path / "spectrum.json"
    code, _, _ = run(
        capsys, "estimate", "--y", y_path, "--rank-tolerance", 1e-14, "--out", spectrum,
    )
    assert code == 0
    assert json.loads(spectrum.read_text())["rank"] == 8
    code, out, _ = run(
        capsys, "verify", "--matrix", matrix, "--estimate", spectrum,
        "--setup", tmp_path / "y.setup.json", "--tol", 1e-3,
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["max_error"] <= 1e-3


@pytest.fixture
def oracle_calls(monkeypatch):
    """Every call ``verify`` makes to the observability oracle, in order."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return observable_partition(*args, **kwargs)

    monkeypatch.setattr(cli, "observable_partition", counting)
    return calls


def test_verify_passes_an_honest_chain(tmp_path, capsys, oracle_calls):
    matrix, spectrum, setup = full_chain(tmp_path, capsys)
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "--matrix", matrix, "--estimate", spectrum,
        "--setup", setup, "--out", report,
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["pass"] is True
    assert payload["max_error"] <= payload["tol"] == 1e-6
    # every true eigenvalue is matched, so no mode needs excusing
    assert payload["unmatched_true"] == [] and oracle_calls == []


def test_verify_fails_under_an_impossible_tolerance(tmp_path, capsys):
    matrix, spectrum, setup = full_chain(tmp_path, capsys)
    code, out, _ = run(
        capsys, "verify", "--matrix", matrix, "--estimate", spectrum,
        "--setup", setup, "--tol", 1e-18,
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_calls_out_a_dropped_mode(tmp_path, capsys, oracle_calls):
    matrix, spectrum, setup = full_chain(tmp_path, capsys)
    payload = json.loads(spectrum.read_text())
    payload["rank"] -= payload["roots"].pop(0)["multiplicity"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    code, out, _ = run(
        capsys, "verify", "--matrix", matrix, "--estimate", tampered, "--setup", setup,
    )
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False and report["unexplained_true"]
    assert len(oracle_calls) == 1


def test_verify_fails_an_estimate_with_a_spurious_root(tmp_path, capsys):
    matrix, spectrum, setup = full_chain(tmp_path, capsys)
    payload = json.loads(spectrum.read_text())
    payload["roots"].append({"re": 42, "im": 0, "multiplicity": 1})
    payload["rank"] += 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    code, out, _ = run(
        capsys, "verify", "--matrix", matrix, "--estimate", tampered, "--setup", setup,
    )
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["unmatched_estimated"] == [{"re": 42.0, "im": 0.0}]
    assert report["unmatched_true"] == [] and report["unexplained_true"] == []


@pytest.mark.filterwarnings("error")
def test_verify_takes_a_matrix_entry_at_the_oracles_limit(tmp_path, capsys):
    # entries of 1e308 give eigenvalues whose differences overflow, and such a
    # distance is an infinity, beyond every tol; the next double above this
    # limit is a usage error
    matrix, y_path = simulate_swap(tmp_path, capsys)
    spectrum = tmp_path / "spectrum.json"
    assert run(capsys, "estimate", "--y", y_path, "--out", spectrum)[0] == 0
    matrix.write_text(f"0,{float(np.finfo(float).max) / 16!r}\n1,0\n")
    code, _, err = run(capsys, "verify", "--matrix", matrix, "--estimate", spectrum, "--setup", tmp_path / "y.setup.json")
    assert (code, err) == (1, "")  # in range: the estimate just does not match


@pytest.mark.filterwarnings("error")
def test_verify_fails_a_root_whose_distance_to_every_eigenvalue_overflows(tmp_path, capsys):
    # |1.79e308 - (-4e307)| is beyond the doubles: numpy once warned, and the
    # root must be left unmatched, with no error
    matrix, estimate, setup = tmp_path / "m.csv", tmp_path / "s.json", tmp_path / "setup.json"
    matrix.write_text("-4e307\n")  # inside verify's entry limit for n = 1
    estimate.write_text(json.dumps({"schema": 1, "mode": "dt", "rank": 1, "residual": 0.0,
                                    "roots": [{"re": 1.79e308, "im": 0.0, "multiplicity": 1}]}))
    setup.write_text(json.dumps({"x0": [1.0], "c": [1.0]}))
    code, out, err = run(capsys, "verify", "--matrix", matrix, "--estimate", estimate, "--setup", setup,
                         "--tol", "1e-6")
    report = json.loads(out)
    assert (code, err, report["pass"], report["pairs"]) == (1, "", False, [])
    assert report["unmatched_estimated"] == [{"re": 1.79e308, "im": 0.0}]
    assert report["unexplained_true"] == report["unmatched_true"] == [{"re": -4e307, "im": 0.0}]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1.0, 1e154, 1e300])
def test_verify_weighs_a_setup_whose_norms_exceed_the_square_range(tmp_path, capsys, scale):
    # |x0| beyond about 1.3e154 overflowed x . x, and verify called a setup
    # with finite modal weights a usage error; it weighs it like the unscaled one
    matrix, estimate, setup = tmp_path / "m.csv", tmp_path / "s.json", tmp_path / "setup.json"
    matrix.write_text("0.5,1,0\n0,-0.4,1\n0.3,0,0.2\n")
    root = float(max(np.linalg.eigvals(read_matrix_csv(matrix)).real))
    estimate.write_text(json.dumps({"schema": 1, "mode": "dt", "rank": 1, "residual": 0.0,
                                    "roots": [{"re": root, "im": 0.0, "multiplicity": 1}]}))
    setup.write_text(json.dumps({"x0": [scale] * 3, "c": [1 / scale, 0.0, 0.0]}))
    code, out, err = run(capsys, "verify", "--matrix", matrix, "--estimate", estimate, "--setup", setup)
    assert code == 1 and err == "" and len(json.loads(out)["unexplained_true"]) == 2


# =========================================================================
# demos
# =========================================================================

ARTIFACTS = (
    "graph.tsv", "matrix.csv", "setup.json", "output.json",
    "spectrum.json", "match.json", "eigenvalues.csv",
)


# each preset's time mode, tau, and whether it has a node
PRESET_SETUPS = {"fig1": ("dt", None, False), "fig2": ("ct", 1.0, False), "fig3": ("dt", None, True)}


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_demo_presets_pass_and_write_artifacts(tmp_path, capsys, name):
    outdir = tmp_path / name
    code, out, _ = run(capsys, "demo", name, "--seed", 0, "--outdir", outdir)
    assert code == 0
    assert f"{name} seed 0: PASS" in out
    for fname in ARTIFACTS:
        assert (outdir / fname).is_file(), fname
    match = json.loads((outdir / "match.json").read_text())
    assert match["pass"] is True and match["overflow"] is False
    y = read_sequence(outdir / "output.json")
    assert (y.mode, y.tau, y.node is not None) == PRESET_SETUPS[name]


@pytest.mark.parametrize(
    "name, simulator, tol",
    [("fig1", "simulate_dt", 1e-6), ("fig2", "simulate_ct_sampled", 1e-3),
     ("fig3", "simulate_dt_networked", 1e-5)],
)
def test_demo_reports_a_simulation_overflow(tmp_path, capsys, monkeypatch, name, simulator, tol):
    def overflow(*args, **kwargs):
        raise SimulationOverflowError("state left the double range", 3, np.zeros(3))

    monkeypatch.setattr(scenarios, simulator, overflow)
    code, out, _ = run(capsys, "demo", name, "--seed", 0, "--outdir", tmp_path)
    assert code == 1
    assert out == f"{name} seed 0: FAIL (overflow truncated the run, tol {tol:.1e}) -> {tmp_path}/\n"
    match = json.loads((tmp_path / "match.json").read_text())
    assert (match["pass"], match["overflow"], match["tol"]) == (False, True, tol)
    written = sorted(f.name for f in tmp_path.iterdir())
    assert written == ["graph.tsv", "match.json", "matrix.csv", "setup.json"]


def test_a_demo_output_estimates_and_verifies_with_no_node_flag(tmp_path, capsys):
    # fig3 is networked: output.json carries its node to estimate
    outdir, spectrum = tmp_path / "fig3", tmp_path / "spectrum.json"
    steps = [
        ("demo", "fig3", "--seed", 0, "--outdir", outdir),
        ("estimate", "--y", outdir / "output.json", "--rank-tolerance", 1e-14, "--out", spectrum),
        ("verify", "--matrix", outdir / "matrix.csv", "--estimate", spectrum,
         "--setup", outdir / "setup.json", "--out", tmp_path / "v.json"),
    ]
    assert [run(capsys, *argv)[0] for argv in steps] == [0, 0, 0]
    assert "node" in json.loads((outdir / "output.json").read_text())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--model", "ring", "--n", 10**12], "--n must be <= 2048, got 1000000000000"),
        (["generate", "--model", "pa", "--n", 10**12], "--n must be <= 2048, got 1000000000000"),
        (["simulate", "--matrix", "swap.csv", "--mode", "dt", "--node-d", 100000],
         "--node-d must be <= 2048, got 100000"),
    ],
    ids=["ring", "pa", "simulate-node"],
)
def test_a_size_above_the_limit_is_a_usage_error_before_any_allocation(
    tmp_path, capsys, monkeypatch, argv, message
):
    # unchecked, a ring of 10**12 nodes hangs and the others run out of memory
    def allocate(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    for name in ("generate_ring", "generate_preferential_attachment", "read_sequence"):
        monkeypatch.setattr(cli, name, allocate)
    monkeypatch.setattr(cli.NodeDynamics, "random_symmetric", allocate)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "swap.csv").write_text(SWAP_CSV)
    code, out, err = run(capsys, *argv, "--out" if argv[0] != "generate" else "--graph-out", "out")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["swap.csv"]


def test_the_largest_sample_count_still_simulates(tmp_path, capsys):
    (tmp_path / "swap.csv").write_text(SWAP_CSV)
    out = tmp_path / "y.json"
    assert run(capsys, "simulate", "--matrix", tmp_path / "swap.csv", "--K", 4096, "--out", out)[0] == 0
    assert len(read_sequence(out)) == 4096


def test_demo_runs_are_byte_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "demo", "fig1", "--seed", 4, "--outdir", a)[0] == 0
    assert run(capsys, "demo", "fig1", "--seed", 4, "--outdir", b)[0] == 0
    for fname in ARTIFACTS:
        assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname


def test_fig3_builds_its_pinned_system_once_and_shares_it_read_only(tmp_path, capsys, monkeypatch):
    def demos(root, cold):
        for seed in range(5):
            if cold:
                scenarios._fig3_system.cache_clear()
            assert run(capsys, "demo", "fig3", "--seed", seed, "--outdir", root / str(seed))[0] == 0
        return {f.relative_to(root): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}

    cold = demos(tmp_path / "cold", cold=True)
    spectra = []
    monkeypatch.setattr(scenarios, "full_spectrum", lambda gm: spectra.append(gm))
    assert demos(tmp_path / "warm", cold=False) == cold and len(cold) == 5 * len(ARTIFACTS)
    assert spectra == []  # the warm seeds reuse the pinned true spectrum

    result = scenarios.run_scenario("fig3", 0, keep_artifacts=True)
    for shared in (result.artifacts.matrix, result.truth, result.artifacts.sequence.node.A):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0


def test_estimate_json_matches_the_library_call_exactly(tmp_path, capsys):
    _, spectrum, _ = full_chain(tmp_path, capsys)
    cli_payload = json.loads(spectrum.read_text())
    seq = read_sequence(tmp_path / "y.json")
    lib_payload = estimate_spectrum(seq).to_json_dict()
    assert cli_payload == lib_payload


# =========================================================================
# parser
# =========================================================================


def test_the_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._shared_parser.cache_clear()
    for seed in (1, 2, 3):
        code, _, _ = run(
            capsys, "generate", "--model", "ring", "--n", 4, "--seed", seed,
            "--graph-out", tmp_path / "g.tsv", "--matrix-out", tmp_path / "m.csv",
        )
        assert code == 0
    with pytest.raises(SystemExit) as info:
        run(capsys, "generate", "--model", "ring")
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "spectral-scope generate: error: the following arguments are required: --n")
    assert len(built) == 1


def readme_blocks() -> list[list[list[str]]]:
    """The arguments of every ``spectral-scope`` command in each of the README's code blocks."""
    return [
        [shlex.split(line, comments=True)[1:]
         for line in block.replace("\\\n", " ").splitlines() if line.startswith("spectral-scope ")]
        for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    ]


def readme_commands() -> list[list[str]]:
    return [argv for block in readme_blocks() for argv in block]


def test_the_readme_chains_run(tmp_path, capsys, monkeypatch):
    # the quick start and the networked chain, in README order in one
    # directory: a documented flag or file that no longer works fails here
    monkeypatch.chdir(tmp_path)
    pipeline = {"generate", "simulate", "estimate", "verify"}
    chains = [block for block in readme_blocks() if block and {argv[0] for argv in block} <= pipeline]
    assert len(chains) == 2
    for argv in (argv for block in chains for argv in block):
        code, _, err = run(capsys, *argv)
        assert code == 0, f"spectral-scope {shlex.join(argv)} exited {code}\n{err}"


def test_every_readme_command_parses(capsys):
    # parsed only, never run: a documented flag the parser lacks fails here
    parser, parsed = build_parser(), set()
    for argv in readme_commands():
        try:
            parsed.add(parser.parse_args(cli._fuse_negative_values(argv)).command)
        except SystemExit:
            pytest.fail(f"README command does not parse: spectral-scope {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")
    assert parsed == {"generate", "simulate", "estimate", "verify", "demo", "bench"}


def readme_file_row(name: str) -> str:
    """The format cell of the README file table's row for ``name``."""
    (row,) = re.findall(rf"^\| {name} \| (.*) \|$", README.read_text(), flags=re.M)
    return row


def readme_keys(row: str) -> list[str]:
    """The top-level keys of the first JSON object a file-table cell names, as
    in ``{schema, mode, node?}`` or ``{rank, roots: [{re, im}], rho}``."""
    body = re.search(r"`\{(.*?)\}`", row).group(1)
    return re.sub(r": \[.*?\]", "", body).split(", ")


def test_the_readme_file_table_names_the_keys_simulate_and_demo_write(tmp_path, capsys):
    sequence_keys = readme_keys(readme_file_row("sequence"))
    always = {k for k in sequence_keys if not k.endswith("?")}
    networked = always | {k.rstrip("?") for k in sequence_keys}
    setup_row = readme_file_row("setup")
    setup_keys = set(readme_keys(setup_row))
    demo_adds = set(re.findall(r"`(\w+)`", re.search(r"`demo` adds ((?:`\w+`(?:, | and )?)+)", setup_row).group(1)))

    matrix = tmp_path / "rot.csv"
    matrix.write_text(ROT_CSV)
    steps = [
        ("simulate", "--matrix", matrix, "--seed", 1, "--out", tmp_path / "y.json"),
        ("simulate", "--matrix", matrix, "--node-d", 2, "--seed", 1, "--out", tmp_path / "n.json"),
        ("demo", "fig3", "--outdir", tmp_path / "fig3"),
        ("estimate", "--y", tmp_path / "y.json", "--out", tmp_path / "spectrum.json"),
        ("verify", "--matrix", matrix, "--estimate", tmp_path / "spectrum.json",
         "--setup", tmp_path / "y.setup.json", "--out", tmp_path / "verify.json"),
    ]
    assert [run(capsys, *argv)[0] for argv in steps] == [0, 0, 0, 0, 0]

    def keys(name: str) -> set[str]:
        return set(json.loads((tmp_path / name).read_text()))

    assert keys("y.json") == always and keys("n.json") == keys("fig3/output.json") == networked
    assert keys("y.setup.json") == keys("n.setup.json") == setup_keys
    assert keys("fig3/setup.json") == setup_keys | demo_adds and demo_adds == {"scenario", "tol"}
    spectrum_row = readme_file_row("spectrum")
    assert keys("spectrum.json") == keys("fig3/spectrum.json") == set(readme_keys(spectrum_row))
    root_keys = re.search(r"roots: \[\{(.*?)\}\]", spectrum_row).group(1).split(", ")
    assert set(json.loads((tmp_path / "spectrum.json").read_text())["roots"][0]) == set(root_keys)
    assert keys("verify.json") == set(readme_keys(readme_file_row("verify report")))
    assert keys("fig3/match.json") == set(readme_keys(readme_file_row("demo match")))


# the pipeline's JSON files each run writes: a DT and a CT chain as in the
# README quick start, and demo fig3
JSON_RUNS = {
    "dt": (["--model", "pa", "--n", 10, "--m", 2], ["--mode", "dt"]),
    "ct": (["--model", "ring", "--n", 8, "--directed"], ["--mode", "ct", "--tau", 1.0, "--K", 16]),
}


@pytest.mark.parametrize("kind", ["dt", "ct", "demo"])
def test_every_pipeline_json_file_is_one_compact_line(tmp_path, capsys, kind):
    if kind == "demo":
        steps = [("demo", "fig3", "--seed", 0, "--outdir", tmp_path)]
        names = ["match.json", "output.json", "setup.json", "spectrum.json"]
    else:
        gen, sim = JSON_RUNS[kind]
        matrix, y_path, spectrum = tmp_path / "m.csv", tmp_path / "y.json", tmp_path / "spectrum.json"
        steps = [
            ("generate", *gen, "--weights", "-1,1", "--seed", 0, "--graph-out", tmp_path / "g.tsv",
             "--matrix-out", matrix),
            ("simulate", "--matrix", matrix, *sim, "--seed", 0, "--out", y_path),
            ("estimate", "--y", y_path, "--rank-tolerance", 1e-14, "--out", spectrum),
            ("verify", "--matrix", matrix, "--estimate", spectrum, "--setup", tmp_path / "y.setup.json",
             "--tol", 1e-3, "--out", tmp_path / "verify.json"),
        ]
        names = ["spectrum.json", "verify.json", "y.json", "y.setup.json"]
    assert [run(capsys, *argv)[0] for argv in steps] == [0] * len(steps)
    assert sorted(p.name for p in tmp_path.glob("*.json")) == names
    for name in names:
        text = (tmp_path / name).read_text()
        assert text == json.dumps(json.loads(text)) + "\n", name


# json writes int, float and None keys as strings; these it cannot write at all
@pytest.mark.parametrize("payload, kind", [
    (np.int64(1), "int64"), (np.bool_(True), "bool"), ([set()], "set"), ({"a": object()}, "object"),
    (np.array([1.0]), "ndarray"), (1j, "complex"), ({(1, 2): 3}, None),
])
def test_any_other_type_is_a_type_error(tmp_path, payload, kind):
    out = tmp_path / "out.json"
    message = (f"Object of type {kind} is not JSON serializable" if kind
               else "keys must be str, int, float, bool or None, not tuple")
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        cli._write_json({"schema": 1, "value": payload}, str(out))
    assert not out.exists()  # encoded before the file is opened: nothing half-written


def indented_json_dumps(source: str) -> list[str]:
    """The function (``<module>`` at the top level) around each ``dump`` or
    ``dumps`` call in ``source`` that passes an ``indent`` keyword."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) in ("dump", "dumps"):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_bench_json_writes_indented_json():
    src = Path(cli.__file__).resolve().parent
    found = {p.name: indented_json_dumps(p.read_text()) for p in sorted(src.rglob("*.py"))}
    assert "cli.py" in found
    assert {name: where for name, where in found.items() if where} == {"cli.py": ["cmd_bench"]}
    # and the guard sees the call it is there to catch
    assert indented_json_dumps("import json\ndef f(x, out):\n    json.dump(x, out, indent=2)\n") == ["f"]


# each subcommand without a required flag or argument, with an unknown flag
# (before and after the required ones, with and without a value), with a bad
# value, and with --help; the top level must reject the unknown flags
USAGE_ERRORS = [
    ["generate", "--model", "ring"],
    ["generate", "--model", "ring", "--n", "4", "--bogus"],
    ["generate", "--bogus", "1", "--model", "ring", "--n", "4"],
    ["generate", "--model", "tree", "--n", "4"],
    ["generate", "--model", "ring", "--n", "four"],
    ["simulate"],
    ["simulate", "--matrix", "m.csv", "--nope", "x", "y"],
    ["simulate", "--matrix", "m.csv", "stray"],
    ["estimate"],
    ["estimate", "--y", "y.json", "--frobnicate", "3"],
    ["estimate", "--y", "y.json", "--", "--out"],
    ["verify", "--matrix", "m.csv"],
    ["verify", "--matrix", "m.csv", "--estimate", "s.json", "--setup", "u.json", "--tl", "1"],
    ["demo"],
    ["demo", "fig9"],
    ["demo", "fig1", "extra", "--help=x"],
    ["bench"],
    ["bench", "all", "--jsn"],
    ["bench", "all", "--jso", "-h"],
    ["generate", "--help"],
    ["verify", "-h", "--matrix"],
]


def parse_outcome(capsys, parse, argv):
    """A parse's Namespace or exit code, with what it printed."""
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", readme_commands() + USAGE_ERRORS, ids=shlex.join)
def test_dispatch_on_the_command_parses_as_the_top_level_parser_does(capsys, argv):
    argv = cli._fuse_negative_values(argv)
    assert argv[0] in ("generate", "simulate", "estimate", "verify", "demo", "bench")
    direct = parse_outcome(capsys, cli._parse, argv)
    assert direct == parse_outcome(capsys, build_parser().parse_args, argv)
    if argv in USAGE_ERRORS:
        assert direct[0] in (0, 2)


# =========================================================================
# bench
# =========================================================================


def test_bench_emits_a_parseable_json_summary(tmp_path, capsys):
    out_json = tmp_path / "bench.json"
    code, _, _ = run(capsys, "bench", "fig1", "--seeds", 3, "--json", "--out", out_json)
    assert code == 0
    payload = json.loads(out_json.read_text())
    sweeps = payload["sweeps"]
    assert len(sweeps) == 1
    assert sweeps[0]["scenario"] == "fig1" and sweeps[0]["seeds"] == 3
    assert 0.0 <= sweeps[0]["pass_rate"] <= 1.0
    # the one indented JSON file, as the README's file table says
    assert out_json.read_text() == json.dumps(payload, indent=2) + "\n"
    row = readme_file_row("bench summary")
    assert set(payload) == set(readme_keys(row))
    assert set(sweeps[0]) == set(readme_keys(row[row.index("one sweep"):]))


def test_bench_prints_a_table(tmp_path, capsys, monkeypatch):
    code, out, _ = run(capsys, "bench", "fig3", "--seeds", 2)
    assert code == 0
    assert "scenario" in out and "fig3" in out

    def overflow(*args, **kwargs):
        raise SimulationOverflowError("state left the double range", 3, np.zeros(3))

    # a sweep whose seeds overflow lists them under its row
    monkeypatch.setattr(scenarios, "simulate_dt_networked", overflow)
    assert run(capsys, "bench", "fig3", "--seeds", 2, "--seed0", 7) == (0, (
        "scenario   seeds  passes    rate  max err (pass)  overflow\n"
        "fig3           2       0    0.00       0.000e+00         2\n"
        "  overflow seeds: [7, 8]\n"), "")
