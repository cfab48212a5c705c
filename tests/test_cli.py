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
    OutputSequence,
    cli,
    read_matrix_csv,
    read_sequence,
    scenarios,
    simulate_ct_networked,
    simulate_dt_networked,
    write_sequence,
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
    with pytest.raises(SystemExit) as info:
        run(capsys, *argv, "--kind", "normalized-laplacian")
    assert info.value.code == 2


def test_generate_without_n_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run(capsys, "generate", "--model", "pa")
    assert info.value.code == 2
    assert "the following arguments are required: --n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--model", "pa", "--n", 1), "m_attach=2 exceeds n=1"),
        (("--model", "pa", "--n", -3), "m_attach=2 exceeds n=-3"),
        (("--model", "pa", "--n", 5, "--m", 9), "m_attach=9 exceeds n=5"),
        (("--model", "pa", "--n", 5, "--m", 0), "m_attach must be positive"),
        (("--model", "pa", "--n", 5, "--weights", "1,1"), "need lo < hi"),
        (("--model", "ring", "--n", 0), "ring needs at least 2 nodes"),
        (("--model", "ring", "--n", 4, "--weights", "1"), "--weights expects LO,HI"),
    ],
    ids=["n-1", "n-negative", "m-above-n", "m-0", "empty-weight-range", "ring-n-0", "one-weight-bound"],
)
def test_a_graph_the_generators_reject_is_a_usage_error(tmp_path, capsys, argv, message):
    graph, matrix = tmp_path / "g.tsv", tmp_path / "m.csv"
    code, out, err = run(capsys, "generate", *argv, "--graph-out", graph, "--matrix-out", matrix)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not graph.exists() and not matrix.exists()


# =========================================================================
# simulate
# =========================================================================


def test_simulate_writes_the_swap_trace_verbatim(tmp_path, capsys):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    out_csv = tmp_path / "y.csv"
    code, _, _ = run(
        capsys, "simulate", "--matrix", matrix, "--x0", "1,0", "--observe", 0,
        "--K", 4, "--tau", 0.5, "--out", out_csv,
    )
    assert code == 0
    assert out_csv.read_text() == "k,y\n0,1\n1,0\n2,1\n3,0\n"
    sidecar = json.loads((tmp_path / "y.json").read_text())
    # a dt record has no sampling period, whatever --tau says
    assert sidecar == {"schema": 1, "mode": "dt", "tau": None, "seed": None}
    setup = json.loads((tmp_path / "y.setup.json").read_text())
    assert setup == {"schema": 1, "x0": [1.0, 0.0], "c": [1.0, 0.0]}


def test_simulate_defaults_to_two_n_samples(tmp_path, capsys):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    out_csv = tmp_path / "y.csv"
    code, _, _ = run(capsys, "simulate", "--matrix", matrix, "--seed", 1, "--out", out_csv)
    assert code == 0
    assert len(out_csv.read_text().splitlines()) == 1 + 4
    # an explicit --K 0 is not the default but a usage error, like any K < 1
    zero_csv = tmp_path / "zero.csv"
    code, out, err = run(capsys, "simulate", "--matrix", matrix, "--K", 0, "--out", zero_csv)
    assert code == 2 and out == ""
    assert err == "error: need at least one step, got K=0\n"
    assert not zero_csv.exists()


@pytest.mark.parametrize("mode, simulator", [("dt", simulate_dt_networked), ("ct", simulate_ct_networked)])
def test_a_node_makes_simulate_networked(tmp_path, capsys, mode, simulator):
    matrix = tmp_path / "rot.csv"
    matrix.write_text(ROT_CSV)
    base = ("simulate", "--matrix", matrix, "--mode", mode, "--tau", 0.5, "--seed", 4)
    assert run(capsys, *base, "--out", tmp_path / "plain.csv")[0] == 0
    code, out, _ = run(capsys, *base, "--node-d", 3, "--node-seed", 5, "--out", tmp_path / "y.csv")
    assert code == 0 and out.endswith("(+sidecar, y.setup.json)\n")
    assert sorted(p.name for p in tmp_path.glob("y.*")) == ["y.csv", "y.json", "y.setup.json"]
    node = NodeDynamics.random_symmetric(3, seed=5)
    written = json.loads((tmp_path / "y.json").read_text())["node"]
    assert [written[k] for k in ("A", "beta", "gamma")] == [node.A.tolist(), node.beta.tolist(), node.gamma.tolist()]
    setup = json.loads((tmp_path / "y.setup.json").read_text())
    assert sorted(setup) == ["c", "schema", "x0"]  # the node is the sidecar's alone
    kwargs = {"tau": 0.5} if mode == "ct" else {}
    expected = simulator(read_matrix_csv(matrix), node, ObservationSetup(setup["x0"], setup["c"]), K=4, **kwargs)
    y = read_sequence(tmp_path / "y.csv")
    assert y.values.tobytes() == expected.values.tobytes()
    assert y.values.tobytes() != read_sequence(tmp_path / "plain.csv").values.tobytes()


@pytest.mark.parametrize("mode", ["dt-networked", "ct-networked"])
def test_a_networked_mode_is_a_usage_error(tmp_path, capsys, mode):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    with pytest.raises(SystemExit) as info:
        run(capsys, "simulate", "--matrix", matrix, "--mode", mode, "--tau", 1,
            "--node-d", 2, "--out", tmp_path / "y.csv")
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument --mode: invalid choice: '{mode}'" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["swap.csv"]


@pytest.mark.parametrize("mode, simulator", [("dt", simulate_dt_networked), ("ct", simulate_ct_networked)])
def test_estimate_of_a_networked_simulate_gives_the_library_bytes(tmp_path, capsys, mode, simulator):
    # the node reaches estimate through the sidecar alone, and the verdict holds
    matrix, y_csv, spectrum = tmp_path / "m.csv", tmp_path / "y.csv", tmp_path / "spectrum.json"
    steps = [
        ("generate", "--model", "ring", "--n", 6, "--directed", "--weights", "0.5,1.5", "--seed", 3,
         "--graph-out", tmp_path / "g.tsv", "--matrix-out", matrix),
        ("simulate", "--matrix", matrix, "--mode", mode, "--tau", 0.5, "--node-d", 3, "--node-seed", 5,
         "--seed", 11, "--out", y_csv),
        ("estimate", "--y", y_csv, "--rank-tolerance", 1e-14, "--out", spectrum),
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


def test_simulate_takes_one_node_source(tmp_path, capsys):
    matrix, node = tmp_path / "swap.csv", tmp_path / "node.json"
    matrix.write_text(SWAP_CSV)
    node.write_text(json.dumps({"A": [[0.5]], "beta": [1], "gamma": [1]}))
    with pytest.raises(SystemExit) as info:
        run(capsys, "simulate", "--matrix", matrix, "--node", node, "--node-d", 3, "--out", tmp_path / "y.csv")
    assert info.value.code == 2
    assert "argument --node-d: not allowed with argument --node" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["node.json", "swap.csv"]


@pytest.mark.parametrize(
    "flags, message",
    [(("--node-seed", 5), "--node-seed needs --node-d"),
     (("--node-d", 0), "--node-d must be >= 1, got 0"),
     (("--node-d", -2, "--node-seed", 5), "--node-d must be >= 1, got -2")],
    ids=["seed-alone", "zero-d", "negative-d"],
)
def test_a_node_flag_that_gives_no_node_is_a_usage_error(tmp_path, capsys, flags, message):
    # each of these ran once as a plain simulation, its node flag dropped
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    code, out, err = run(capsys, "simulate", "--matrix", matrix, *flags, "--seed", 1, "--out", tmp_path / "y.csv")
    assert code == 2 and out == "" and err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["swap.csv"]


def test_simulate_samples_continuous_decay(tmp_path, capsys):
    matrix = tmp_path / "decay.csv"
    matrix.write_text("-1\n")
    out_csv = tmp_path / "y.csv"
    code, _, _ = run(
        capsys, "simulate", "--matrix", matrix, "--mode", "ct", "--tau", 1.0,
        "--x0", "1", "--observe", 0, "--K", 4, "--out", out_csv,
    )
    assert code == 0
    seq = read_sequence(out_csv)
    assert seq.mode == "ct" and seq.tau == 1.0
    assert np.max(np.abs(seq.values - np.exp(-np.arange(4)))) < 1e-15
    assert out_csv.read_text().startswith("t,y\n0,1\n1,0.36787944117144233\n")


def test_simulate_ct_without_tau_is_a_usage_error(tmp_path, capsys):
    matrix = tmp_path / "decay.csv"
    matrix.write_text("-1\n")
    code, _, err = run(capsys, "simulate", "--matrix", matrix, "--mode", "ct")
    assert code == 2 and err == "error: tau must be a positive finite number, got None\n"


def test_simulate_reports_overflow_and_keeps_the_partial_trace(tmp_path, capsys):
    matrix = tmp_path / "hot.csv"
    matrix.write_text("1000\n")
    out_csv = tmp_path / "y.csv"
    code, _, err = run(
        capsys, "simulate", "--matrix", matrix, "--x0", "1", "--observe", 0,
        "--K", 200, "--out", out_csv,
    )
    assert code == 1 and "overflow" in err
    partial = read_sequence(out_csv)
    assert 0 < len(partial.values) < 200
    assert np.all(np.isfinite(partial.values))


def test_a_networked_partial_trace_keeps_its_node(tmp_path, capsys):
    matrix, node = tmp_path / "hot.csv", tmp_path / "node.json"
    matrix.write_text("1000\n")
    node.write_text(json.dumps({"A": [[0.5]], "beta": [1.0], "gamma": [2.0]}))
    out_csv = tmp_path / "y.csv"
    code, _, err = run(
        capsys, "simulate", "--matrix", matrix, "--node", node, "--x0", "1", "--observe", 0,
        "--K", 200, "--out", out_csv,
    )
    assert code == 1 and "partial sequence written" in err
    partial = read_sequence(out_csv)
    assert 0 < len(partial) < 200 and partial.node.gamma.tolist() == [2.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # stderr holds one line
def test_simulate_reports_an_overflowing_matrix_exponential(tmp_path, capsys):
    matrix = tmp_path / "one.csv"
    matrix.write_text("1\n")
    out_csv = tmp_path / "y.csv"
    code, out, err = run(
        capsys, "simulate", "--matrix", matrix, "--mode", "ct", "--tau", 1000,
        "--x0", "1", "--observe", 0, "--out", out_csv,
    )
    assert code == 1 and out == ""
    assert err == "overflow: matrix exponential exceeded the floating range; nothing recorded\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.csv"]


@pytest.mark.parametrize("x0", [(), ("--x0", "1,0")], ids=["drawn-x0", "given-x0"])
@pytest.mark.parametrize("node", [5, -1])
def test_simulate_of_an_observed_node_out_of_range_is_a_usage_error(tmp_path, capsys, node, x0):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    out_csv = tmp_path / "y.csv"
    code, out, err = run(
        capsys, "simulate", "--matrix", matrix, *x0, "--observe", node, "--out", out_csv
    )
    assert code == 2 and out == ""
    assert err == f"error: observed nodes [{node}] out of range for n=2\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("observe", ["a", "1,,2"])
def test_simulate_of_an_observe_that_is_not_a_node_list_is_a_usage_error(tmp_path, capsys, observe):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    with pytest.raises(SystemExit) as info:
        run(capsys, "simulate", "--matrix", matrix, "--observe", observe, "--out", tmp_path / "y.csv")
    assert info.value.code == 2
    assert capsys.readouterr() == (
        "", f"error: --observe expects comma-separated node indices, got {observe!r}\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["swap.csv"]


def test_simulate_of_observe_weights_without_observed_nodes_is_a_usage_error(tmp_path, capsys):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    code, out, err = run(capsys, "simulate", "--matrix", matrix, "--observe-weights", 2,
                         "--out", tmp_path / "y.csv")
    assert (code, out, err) == (2, "", "error: observe_weights given without observed nodes\n")
    assert [p.name for p in tmp_path.iterdir()] == ["swap.csv"]


@pytest.mark.parametrize(
    "argv, text",
    [
        (("simulate", "--matrix", "swap.csv", "--x0", "nan,1", "--observe", 0), "nan,1"),
        (("simulate", "--matrix", "swap.csv", "--observe", 0, "--observe-weights", "inf"), "inf"),
        (("generate", "--model", "ring", "--n", 2, "--weights", "nan,1"), "nan,1"),
        (("simulate", "--matrix", "swap.csv", "--x0", "a,1", "--observe", 0), "a,1"),
    ],
    ids=["x0", "observe-weights", "weights", "x0-not-a-number"],
)
def test_a_non_finite_list_value_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "swap.csv").write_text(SWAP_CSV)
    with pytest.raises(SystemExit) as info:
        main([str(a) for a in argv])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: expected comma-separated finite numbers, got {text!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["swap.csv"]


def test_an_x0_of_the_wrong_length_is_a_usage_error(tmp_path, capsys):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    with pytest.raises(SystemExit) as info:
        run(capsys, "simulate", "--matrix", matrix, "--x0", "1,2,3", "--out", tmp_path / "y.csv")
    assert info.value.code == 2
    assert capsys.readouterr() == ("", "error: --x0 has 3 entries, matrix is 2x2\n")
    assert [p.name for p in tmp_path.iterdir()] == ["swap.csv"]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # stderr holds one line
def test_simulate_that_overflows_at_the_first_sample_records_nothing(tmp_path, capsys):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    code, out, err = run(
        capsys, "simulate", "--matrix", matrix, "--x0", "1e308,1e308", "--observe", "0,1",
        "--out", tmp_path / "y.csv",
    )
    assert (code, out, err) == (1, "", "overflow at sample 0; nothing recorded\n")
    assert [p.name for p in tmp_path.iterdir()] == ["swap.csv"]


# =========================================================================
# estimate
# =========================================================================


def simulate_swap(tmp_path, capsys, x0="1,0"):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    out_csv = tmp_path / "y.csv"
    code, _, _ = run(
        capsys, "simulate", "--matrix", matrix, "--x0", x0, "--observe", 0,
        "--K", 4, "--out", out_csv,
    )
    assert code == 0
    return matrix, out_csv


def test_estimate_recovers_the_swap_roots(tmp_path, capsys):
    _, y_csv = simulate_swap(tmp_path, capsys)
    code, out, _ = run(capsys, "estimate", "--y", y_csv)
    assert code == 0
    payload = json.loads(out)
    roots = [(r["re"], r["im"], r["multiplicity"]) for r in payload["roots"]]
    assert roots == [(1.0, 0.0, 1), (-1.0, 0.0, 1)]
    assert payload["rank"] == 2 and payload["mode"] == "dt"


def test_estimate_of_a_dead_output_is_empty(tmp_path, capsys):
    _, y_csv = simulate_swap(tmp_path, capsys, x0="0,0")
    code, out, _ = run(capsys, "estimate", "--y", y_csv)
    assert code == 0
    payload = json.loads(out)
    assert payload["roots"] == [] and payload["rank"] == 0


def test_estimate_without_input_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run(capsys, "estimate")
    assert info.value.code == 2
    assert "the following arguments are required: --y" in capsys.readouterr().err


def test_estimate_of_a_missing_sequence_names_the_csv(tmp_path, capsys):
    # the sidecar is missing too, but the CSV is the file the user named
    y_csv = tmp_path / "nope.csv"
    code, out, err = run(capsys, "estimate", "--y", y_csv)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read sequence: [Errno 2] No such file or directory: {str(y_csv)!r}\n"


def test_estimate_surfaces_the_aliasing_warning(tmp_path, capsys):
    matrix = tmp_path / "rot.csv"
    matrix.write_text(ROT_CSV)
    y_csv = tmp_path / "y.csv"
    code, _, _ = run(
        capsys, "simulate", "--matrix", matrix, "--mode", "ct",
        "--tau", np.pi, "--x0", "1,0.3", "--observe", 0, "--K", 8, "--out", y_csv,
    )
    assert code == 0
    code, out, _ = run(capsys, "estimate", "--y", y_csv)
    assert code == 0
    payload = json.loads(out)
    assert any("aliasing" in w for w in payload["warnings"])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_estimate_of_a_non_finite_sample_is_a_usage_error(tmp_path, capsys, bad):
    _, y_csv = simulate_swap(tmp_path, capsys)
    lines = y_csv.read_text().splitlines()
    k, _ = lines[2].split(",")
    lines[2] = f"{k},{bad}"
    y_csv.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "estimate", "--y", y_csv)
    assert code == 2 and out == ""
    assert err == f"error: cannot read sequence: {y_csv} line 3: y = {bad} is not finite\n"


@pytest.mark.parametrize(
    "mode, edit, message",
    [
        ("dt", lambda lines: ["t,y", *lines[1:]], "does not fit mode 'dt'"),
        ("ct", lambda lines: ["k,y", *lines[1:]], "does not fit mode 'ct'"),
        ("dt", lambda lines: [*lines[:2], "5,0", *lines[3:]], "line 3: k = 5.0, expected 1.0"),
        ("ct", lambda lines: [*lines[:2], "0.6,0", *lines[3:]], "line 3: t = 0.6, expected 0.5"),
        ("ct", lambda lines: [*lines[:2], "0.5", *lines[3:]], "line 3: expected 2 columns"),
    ],
    ids=["dt-header", "ct-header", "dt-k", "ct-t", "one-column"],
)
def test_estimate_of_a_sequence_file_that_contradicts_its_sidecar_is_a_usage_error(
    tmp_path, capsys, mode, edit, message
):
    y_csv = tmp_path / "y.csv"
    write_sequence(OutputSequence([1.0, 0.5, 0.25, 0.125], mode=mode, tau=0.5), y_csv)
    y_csv.write_text("\n".join(edit(y_csv.read_text().splitlines())) + "\n")
    code, out, err = run(capsys, "estimate", "--y", y_csv)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read sequence: ") and message in err


@pytest.mark.parametrize(
    "meta, message",
    [
        ([1], "must hold a JSON object with a 'mode'"),
        ({"tau": 1.0}, "must hold a JSON object with a 'mode'"),
        ({"mode": "ct", "tau": "x"}, "tau must be a positive finite number, got 'x'"),
        ({"mode": "ct", "tau": 10**400}, f"tau must be a positive finite number, got {10**400}"),
    ],
    ids=["list", "no-mode", "text-tau", "huge-tau"],
)
def test_estimate_with_a_malformed_sidecar_is_a_usage_error(tmp_path, capsys, meta, message):
    _, y_csv = simulate_swap(tmp_path, capsys)
    sidecar = tmp_path / "bad.json"
    sidecar.write_text(json.dumps(meta))
    code, out, err = run(capsys, "estimate", "--y", y_csv, "--sidecar", sidecar)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read sequence: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "flag, value",
    [("--rank-tolerance", "nan"), ("--rank-tolerance", "inf"), ("--rank-tolerance", "-1"),
     ("--cluster-tol", "nan"), ("--cluster-tol", "-1")],
)
def test_estimate_with_a_bad_tolerance_is_a_usage_error(tmp_path, capsys, flag, value):
    # unchecked, a NaN or infinite rank cut gives rank 0 and exit 0
    _, y_csv = simulate_swap(tmp_path, capsys)
    spectrum = tmp_path / "spectrum.json"
    code, out, err = run(capsys, "estimate", "--y", y_csv, flag, value, "--out", spectrum)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "tolerance must be a finite number >= 0" in err
    assert not spectrum.exists()


def test_estimate_reads_hand_written_sample_times(tmp_path, capsys):
    # 0.1 * 3 is 0.30000000000000004, not 0.3: a small relative slack is allowed
    y_csv = tmp_path / "y.csv"
    write_sequence(OutputSequence([1.0, 0.5, 0.25, 0.125], mode="ct", tau=0.1), y_csv)
    written = read_sequence(y_csv)
    y_csv.write_text("t, y\n0,1\n0.1,0.5\n0.2,0.25\n0.3,0.125\n")
    back = read_sequence(y_csv)
    assert np.array_equal(back.values, written.values) and back.tau == 0.1
    assert run(capsys, "estimate", "--y", y_csv)[0] == 0


def test_estimate_of_a_networked_dt_record_beyond_the_deconvolution_bound_is_a_usage_error(tmp_path, capsys):
    # a long networked record would spend minutes building the exact deconvolution
    y_csv = tmp_path / "y.csv"
    write_sequence(OutputSequence(np.ones(129), node=NodeDynamics(A=[[0.5]], beta=[1], gamma=[1])), y_csv)
    code, out, err = run(capsys, "estimate", "--y", y_csv)
    assert (code, out) == (2, "")
    assert err == "error: exact deconvolution takes at most 128 samples, got 129\n"


def test_estimate_fails_cleanly_on_an_orthogonal_node(tmp_path, capsys):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    node = tmp_path / "node.json"
    node.write_text(json.dumps({"A": [[0, 0], [0, 0]], "beta": [1, 0], "gamma": [0, 1]}))
    y_csv = tmp_path / "y.csv"
    code, _, _ = run(
        capsys, "simulate", "--matrix", matrix, "--mode", "dt", "--node", node,
        "--x0", "1,0.4", "--observe", 0, "--K", 8, "--out", y_csv,
    )
    assert code == 0
    # the sidecar carries the node; without it the swap roots would be recovered
    code, _, err = run(capsys, "estimate", "--y", y_csv)
    assert code == 1 and "estimation failed" in err


@pytest.mark.parametrize(
    "mode, values, node, message",
    [
        ("ct", [1.0, 0.5, 0.25, 0.125], {"A": [[1000]], "beta": [1], "gamma": [1]},
         "matrix exponential exceeded the floating range"),
        ("dt", [1e308, 1e308, 1.0], {"A": [[1]], "beta": [1e-10], "gamma": [1]},
         "deconvolved sample sigma[0] lies beyond the double range"),
        ("ct", [1.0, 1e308, 1.0, 1.0], {"A": [[-1]], "beta": [1e-10], "gamma": [1]},
         "deconvolved sample sigma[1] lies beyond the double range"),
        ("dt", [1.0, 0.5, 0.25, 0.125], {"A": [[1e200]], "beta": [1], "gamma": [1]},
         "node weight nu[2] lies beyond the double range"),
    ],
    ids=["node-expm", "deconvolution", "ct-deconvolution", "node-weights"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_estimate_reports_an_overflow_as_a_failure(tmp_path, capsys, mode, values, node, message):
    y_csv = tmp_path / "y.csv"
    tau = 1.0 if mode == "ct" else None
    write_sequence(OutputSequence(np.array(values), mode=mode, tau=tau, node=NodeDynamics(**node)), y_csv)
    code, out, err = run(capsys, "estimate", "--y", y_csv)
    assert code == 1 and out == ""
    assert err == f"estimation failed: {message}\n"


@pytest.mark.parametrize("command", ["estimate", "simulate"])
@pytest.mark.parametrize(
    "node, message",
    [
        ({"beta": [1], "gamma": [1]}, "has no 'A'"),
        ([[1]], "must hold a JSON object"),
        ({"A": [[1, 0]], "beta": [1], "gamma": [1]}, "A must be square, got (1, 2)"),
        ({"A": [[1]], "beta": [1, 2], "gamma": [1]}, "beta and gamma must match"),
        ({"A": [[float("nan")]], "beta": [1], "gamma": [1]}, "A[0, 0] is not finite: nan"),
        ({"A": {"a": 1}, "beta": [1], "gamma": [1]}, "float() argument must be"),
        ({"A": [[10**400]], "beta": [1], "gamma": [1]}, "int too large to convert to float"),
    ],
    ids=["no-A", "list", "non-square-A", "long-beta", "nan-A", "object-A", "huge-A"],
)
def test_a_malformed_node_file_is_a_usage_error(tmp_path, capsys, command, node, message):
    # simulate reads a node file; estimate reads the node in the sequence's sidecar
    matrix, y_csv = simulate_swap(tmp_path, capsys)
    out_file = tmp_path / "out.csv"
    if command == "simulate":
        source = tmp_path / "node.json"
        source.write_text(json.dumps(node))
        argv = ("simulate", "--matrix", matrix, "--mode", "dt", "--node", source)
        prefix = f"error: node {source}: "
    else:
        source = y_csv.with_suffix(".json")
        source.write_text(json.dumps({**json.loads(source.read_text()), "node": node}))
        argv = ("estimate", "--y", y_csv)
        prefix = f"error: cannot read sequence: sidecar {source}: node: "
    code, out, err = run(capsys, *argv, "--out", out_file)
    assert code == 2 and out == ""
    assert err.startswith(prefix + message) and err.count("\n") == 1
    assert not out_file.exists()


# One chain's files as they were written while the sidecar carried "n_hint"
# and the setup repeated the sidecar's mode, tau, seed and node: OLD_MATRIX,
# then ``simulate --x0 1,0.5,0.25 --observe 0 --K 6 --seed 1``, plain in
# discrete time and, in continuous time at tau = 0.5, with the node OLD_NODE.
OLD_MATRIX = "0.5,1,0\n0,-0.4,1\n0.3,0,0.2\n"
OLD_NODE = {"schema": 1, "A": [[-0.5]], "beta": [1.0], "gamma": [1.0]}
OLD_FILES = {
    "dt": (
        "k,y\n0,1\n1,1\n2,0.55000000000000004\n3,0.60499999999999998\n4,0.54049999999999998\n"
        "5,0.41404999999999997\n",
        {"schema": 1, "mode": "dt", "tau": None, "n_hint": 3, "seed": 1},
        {"schema": 1, "mode": "dt", "tau": None, "seed": 1, "x0": [1.0, 0.5, 0.25], "c": [1.0, 0.0, 0.0],
         "node": None},
    ),
    "ct": (
        "t,y\n0,1\n0.5,1.2327468613553405\n1,1.4571313491863391\n1.5,1.70363085114113\n"
        "2,1.9944888918012769\n2.5,2.3472706241444272\n",
        {"schema": 1, "mode": "ct", "tau": 0.5, "n_hint": 3, "seed": 1, "node": OLD_NODE},
        {"schema": 1, "mode": "ct", "tau": 0.5, "seed": 1, "x0": [1.0, 0.5, 0.25], "c": [1.0, 0.0, 0.0],
         "node": OLD_NODE},
    ),
}


@pytest.mark.parametrize("mode", ["dt", "ct"])
def test_files_of_the_older_schema_give_the_same_results(tmp_path, capsys, mode):
    csv, sidecar, setup = OLD_FILES[mode]
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        (d / "m.csv").write_text(OLD_MATRIX)
    (old / "y.csv").write_text(csv)
    (old / "y.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    (old / "y.setup.json").write_text(json.dumps(setup, indent=2) + "\n")
    (new / "node.json").write_text(json.dumps(OLD_NODE))
    flags = ("--mode", "ct", "--tau", 0.5, "--node", new / "node.json") if mode == "ct" else ()
    code, _, _ = run(capsys, "simulate", "--matrix", new / "m.csv", "--x0", "1,0.5,0.25", "--observe", 0,
                     "--K", 6, "--seed", 1, *flags, "--out", new / "y.csv")
    assert code == 0 and (new / "y.csv").read_text() == csv
    assert json.loads((new / "y.json").read_text()) == {k: v for k, v in sidecar.items() if k != "n_hint"}
    assert json.loads((new / "y.setup.json").read_text()) == {k: setup[k] for k in ("schema", "x0", "c")}
    results = []
    for d in (old, new):
        steps = [
            ("estimate", "--y", d / "y.csv", "--out", d / "spectrum.json"),
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
    y_csv = tmp_path / "y.csv"
    code, _, _ = run(capsys, "simulate", "--matrix", matrix, "--seed", 11, "--out", y_csv)
    assert code == 0
    spectrum = tmp_path / "spectrum.json"
    code, _, _ = run(capsys, "estimate", "--y", y_csv, "--out", spectrum)
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
    y_csv = tmp_path / "y.csv"
    code, _, _ = run(
        capsys, "simulate", "--matrix", matrix, "--mode", "ct", "--tau", 1.0,
        "--K", 16, "--seed", 11, "--out", y_csv,
    )
    assert code == 0
    spectrum = tmp_path / "spectrum.json"
    code, _, _ = run(
        capsys, "estimate", "--y", y_csv, "--rank-tolerance", 1e-14, "--out", spectrum,
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
    dropped = payload["roots"].pop(0)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    # the file still states the old rank, which its roots no longer sum to
    code, out, err = run(
        capsys, "verify", "--matrix", matrix, "--estimate", tampered, "--setup", setup,
    )
    rank = payload["rank"]
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read inputs: rank {rank} is not the sum of the root multiplicities, "
                   f"{rank - dropped['multiplicity']}\n")
    payload["rank"] -= dropped["multiplicity"]
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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s: {k: v for k, v in s.items() if k != "x0"}, "setup {setup} has no 'x0'"),
        (lambda s: {**s, "c": s["c"][:2]}, "x0 and c must be equal-length vectors, got (5,) and (2,)"),
        (lambda s: {**s, "x0": [float("nan")] + s["x0"][1:]}, "x0[0] is not finite: nan"),
        (lambda s: {**s, "x0": s["x0"][:4], "c": s["c"][:4]}, "matrix is 5x5 but the setup has 4 components"),
        (lambda s: {**s, "c": "probe"}, "could not convert string to float: 'probe'"),
        (lambda s: [s["x0"], s["c"]], "setup {setup} must hold a JSON object"),
    ],
    ids=["no-x0", "short-c", "nan-x0", "short-x0-and-c", "text-c", "list"],
)
def test_verify_of_a_malformed_setup_is_a_usage_error(tmp_path, capsys, edit, message):
    matrix, spectrum, setup = full_chain(tmp_path, capsys)
    setup.write_text(json.dumps(edit(json.loads(setup.read_text()))))
    report = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--matrix", matrix, "--estimate", spectrum,
        "--setup", setup, "--out", report,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read inputs: ") and err.count("\n") == 1
    assert message.format(setup=setup) in err
    assert not report.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("source", ["flag", "setup"])
def test_verify_with_a_bad_tolerance_is_a_usage_error(tmp_path, capsys, source, tol):
    # unchecked, a NaN tolerance matches nothing and ends as a verification failure
    matrix, spectrum, setup = full_chain(tmp_path, capsys)
    if source == "flag":
        argv = ("--tol", tol)
    else:
        setup.write_text(json.dumps({**json.loads(setup.read_text()), "tol": float(tol)}))
        argv = ()
    report = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--matrix", matrix, "--estimate", spectrum,
        "--setup", setup, "--out", report, *argv,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: tolerance must be a finite number >= 0") and err.count("\n") == 1
    assert not report.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda r: {**r, "re": 10**400}, "int too large to convert to float"),
        (lambda r: {**r, "multiplicity": 10**18}, "has multiplicity 1000000000000000000, not 1 to 5"),
        (lambda r: {**r, "multiplicity": float("inf")}, "cannot convert float infinity"),
        (lambda r: {**r, "multiplicity": 0}, "root 0 has multiplicity 0, below 1"),
        (lambda r: {"re": r["re"], "im": r["im"]}, "has no 'multiplicity'"),
        (lambda r: {**r, "multiplicity": 1.5}, "root 0 multiplicity must be a whole number, got 1.5"),
        (lambda r: {**r, "multiplicity": "2"}, "root 0 multiplicity must be a whole number, got '2'"),
        (lambda r: {**r, "multiplicity": True}, "root 0 multiplicity must be a whole number, got True"),
    ],
    ids=["huge-re", "huge-multiplicity", "inf-multiplicity", "zero-multiplicity", "no-multiplicity",
         "fractional-multiplicity", "string-multiplicity", "bool-multiplicity"],
)
def test_verify_of_an_unreadable_root_is_a_usage_error(tmp_path, capsys, edit, message):
    matrix, spectrum, setup = full_chain(tmp_path, capsys)
    payload = json.loads(spectrum.read_text())
    before = payload["roots"][0]["multiplicity"]
    payload["roots"][0] = edit(payload["roots"][0])
    after = payload["roots"][0].get("multiplicity")
    if type(after) is int:  # the rank follows, so that the root's own rule speaks
        payload["rank"] += after - before
    spectrum.write_text(json.dumps(payload))
    code, out, err = run(
        capsys, "verify", "--matrix", matrix, "--estimate", spectrum, "--setup", setup,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read inputs: ") and err.count("\n") == 1
    assert message in err


def test_verify_of_a_nan_root_is_a_usage_error(tmp_path, capsys):
    matrix, spectrum, setup = full_chain(tmp_path, capsys)
    payload = json.loads(spectrum.read_text())
    payload["roots"][0]["re"] = float("nan")
    spectrum.write_text(json.dumps(payload))
    report = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--matrix", matrix, "--estimate", spectrum,
        "--setup", setup, "--out", report,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "root 0" in err
    assert not report.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_a_non_finite_matrix_entry_is_a_usage_error(tmp_path, capsys, command):
    matrix, y_csv = simulate_swap(tmp_path, capsys)
    spectrum = tmp_path / "spectrum.json"
    assert run(capsys, "estimate", "--y", y_csv, "--out", spectrum)[0] == 0
    matrix.write_text("0,1\n1,nan\n")
    before = sorted(tmp_path.iterdir())
    out_file = tmp_path / "out.csv"
    inputs = {
        "simulate": (),
        "verify": ("--estimate", spectrum, "--setup", tmp_path / "y.setup.json"),
    }[command]
    code, out, err = run(capsys, command, "--matrix", matrix, *inputs, "--out", out_file)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"matrix entry (1, 1) in {matrix} is not finite: nan" in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_a_non_square_matrix_is_a_usage_error(tmp_path, capsys, command):
    matrix, y_csv = simulate_swap(tmp_path, capsys)
    spectrum = tmp_path / "spectrum.json"
    assert run(capsys, "estimate", "--y", y_csv, "--out", spectrum)[0] == 0
    matrix.write_text("0,1,0\n1,0,0\n")
    inputs = {
        "simulate": (),
        "verify": ("--estimate", spectrum, "--setup", tmp_path / "y.setup.json"),
    }[command]
    code, out, err = run(capsys, command, "--matrix", matrix, *inputs)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"matrix in {matrix} is 2x3, not square" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("text", ["", "\n\n", "# a comment and no entries\n"])
def test_a_matrix_file_without_entries_is_a_usage_error_without_a_warning(tmp_path, capsys, command, text):
    # numpy's loadtxt used to print "UserWarning: loadtxt: input contained no data" first
    matrix, y_csv = simulate_swap(tmp_path, capsys)
    spectrum = tmp_path / "spectrum.json"
    assert run(capsys, "estimate", "--y", y_csv, "--out", spectrum)[0] == 0
    matrix.write_text(text)
    inputs = {
        "simulate": (),
        "verify": ("--estimate", spectrum, "--setup", tmp_path / "y.setup.json"),
    }[command]
    code, out, err = run(capsys, command, "--matrix", matrix, *inputs, "--out", tmp_path / "out")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"matrix in {matrix} has no entries" in err


@pytest.mark.filterwarnings("error")
def test_verify_of_a_matrix_beyond_the_oracles_range_is_a_usage_error(tmp_path, capsys):
    # entries of 1e308 give eigenvalues whose differences overflow, and the
    # assignment behind match_spectra raised "cost matrix is infeasible"
    matrix, y_csv = simulate_swap(tmp_path, capsys)
    spectrum = tmp_path / "spectrum.json"
    assert run(capsys, "estimate", "--y", y_csv, "--out", spectrum)[0] == 0
    verify = ("verify", "--matrix", matrix, "--estimate", spectrum, "--setup", tmp_path / "y.setup.json")
    limit = float(np.finfo(float).max) / 16
    matrix.write_text(f"0,{limit!r}\n1,0\n")
    assert run(capsys, *verify)[0] == 1  # in range: the estimate just does not match
    matrix.write_text(f"0,{float(np.nextafter(limit, np.inf))!r}\n1,0\n")
    code, out, err = run(capsys, *verify)
    assert code == 2 and out == ""
    assert err == f"error: cannot read inputs: matrix in {matrix} has an entry above {limit:.3g}, the most verify takes at n = 2\n"


@pytest.mark.filterwarnings("error")
def test_verify_of_a_setup_whose_modal_weights_overflow_is_a_usage_error(tmp_path, capsys):
    # x0 and c near 1e300 made the weights (c^T u_i)(w_i^T x0) and the data
    # scale infinite, so every mode looked unobservable and a one-root
    # estimate passed with two true eigenvalues unmatched
    matrix, estimate, setup = tmp_path / "m.csv", tmp_path / "s.json", tmp_path / "setup.json"
    matrix.write_text("0.5,1,0\n0,-0.4,1\n0.3,0,0.2\n")
    root = float(max(np.linalg.eigvals(read_matrix_csv(matrix)).real))
    estimate.write_text(json.dumps({"schema": 1, "mode": "dt", "rank": 1, "residual": 0.0,
                                    "roots": [{"re": root, "im": 0.0, "multiplicity": 1}]}))
    verify = ("verify", "--matrix", matrix, "--estimate", estimate, "--setup", setup)
    setup.write_text(json.dumps({"x0": [1.0] * 3, "c": [1.0, 0.0, 0.0]}))
    code, out, _ = run(capsys, *verify)
    assert code == 1 and len(json.loads(out)["unexplained_true"]) == 2
    setup.write_text(json.dumps({"x0": [1e300] * 3, "c": [1e300, 0.0, 0.0]}))
    code, out, err = run(capsys, *verify)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot check observability with setup {setup}: ")
    assert err.count("\n") == 1 and "double range" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e154, 1e300])
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
    "graph.tsv", "matrix.csv", "setup.json", "output.csv",
    "output.json", "spectrum.json", "match.json", "eigenvalues.csv",
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
    sidecar = json.loads((outdir / "output.json").read_text())
    assert (sidecar["mode"], sidecar["tau"], "node" in sidecar) == PRESET_SETUPS[name]


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
        ("estimate", "--y", outdir / "output.csv", "--rank-tolerance", 1e-14, "--out", spectrum),
        ("verify", "--matrix", outdir / "matrix.csv", "--estimate", spectrum,
         "--setup", outdir / "setup.json", "--out", tmp_path / "v.json"),
    ]
    assert [run(capsys, *argv)[0] for argv in steps] == [0, 0, 0]
    assert "node" in json.loads((outdir / "output.json").read_text())


def test_an_unknown_scenario_is_named():
    with pytest.raises(ValueError, match=r"^unknown scenario 'fig4'; pick one of \('fig1', 'fig2', 'fig3'\)$"):
        scenarios.run_scenario("fig4")


def test_demo_into_an_existing_file_is_a_usage_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    code, out, err = run(capsys, "demo", "fig1", "--outdir", afile)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot create --outdir") and err.count("\n") == 1
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("step", ["generate", "simulate", "estimate", "verify", "bench"])
def test_an_output_path_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, step):
    matrix, spectrum, setup = full_chain(tmp_path, capsys)
    missing = tmp_path / "no-such-dir" / "out.csv"
    argv = {
        "generate": ["generate", "--model", "ring", "--n", 3, "--graph-out", missing],
        "simulate": ["simulate", "--matrix", matrix, "--out", missing],
        "estimate": ["estimate", "--y", tmp_path / "y.csv", "--out", missing],
        "verify": ["verify", "--matrix", matrix, "--estimate", spectrum, "--setup", setup,
                   "--out", missing],
        "bench": ["bench", "fig1", "--seeds", 1, "--json", "--out", missing],
    }[step]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["demo", "fig1", "--seed", -1], "--seed must be >= 0, got -1"),
        (["bench", "fig1", "--seed0", -5], "--seed0 must be >= 0, got -5"),
        (["bench", "fig1", "--seeds", 0], "--seeds must be >= 1, got 0"),
        (["bench", "fig1", "--seeds", -2], "--seeds must be >= 1, got -2"),
        # a ring without --weights never draws from its seed
        (["generate", "--model", "ring", "--n", 6, "--seed", -1], "--seed must be >= 0, got -1"),
        (["generate", "--model", "pa", "--n", 6, "--seed", -1], "--seed must be >= 0, got -1"),
        (["simulate", "--matrix", "swap.csv", "--seed", -1], "--seed must be >= 0, got -1"),
        (["simulate", "--matrix", "swap.csv", "--mode", "dt", "--node-d", 2,
          "--node-seed", -4], "--node-seed must be >= 0, got -4"),
    ],
    ids=["demo-seed", "bench-seed0", "bench-no-seeds", "bench-negative-seeds",
         "generate-ring-seed", "generate-pa-seed", "simulate-seed", "simulate-node-seed"],
)
def test_a_negative_seed_or_an_empty_sweep_is_a_usage_error(
    tmp_path, capsys, monkeypatch, argv, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "swap.csv").write_text(SWAP_CSV)
    outdir = tmp_path / "out"
    extra = {
        "demo": ["--outdir", outdir],
        "bench": ["--json", "--out", outdir],
        "generate": ["--graph-out", outdir, "--matrix-out", outdir],
        "simulate": ["--out", outdir],
    }[argv[0]]
    code, out, err = run(capsys, *argv, *extra)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["swap.csv"]


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


@pytest.mark.parametrize("K", [4097, 10**18])
def test_a_sample_count_above_twice_the_size_limit_is_a_usage_error_before_any_read(
    tmp_path, capsys, monkeypatch, K
):
    # unchecked, 10**18 samples end in numpy's _ArrayMemoryError and 10**9 run for hours
    def read(*args, **kwargs):
        raise AssertionError("read the matrix before the --K check")

    monkeypatch.setattr(cli, "read_matrix_csv", read)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "simulate", "--matrix", "swap.csv", "--K", K, "--out", "y.csv")
    assert code == 2 and out == ""
    assert err == f"error: --K must be <= 4096, got {K}\n"
    assert list(tmp_path.iterdir()) == []


def test_the_largest_sample_count_still_simulates(tmp_path, capsys):
    (tmp_path / "swap.csv").write_text(SWAP_CSV)
    out = tmp_path / "y.csv"
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
    seq = read_sequence(tmp_path / "y.csv")
    lib_payload = estimate_spectrum(seq).to_json_dict()
    assert cli_payload == lib_payload


# =========================================================================
# parser
# =========================================================================


@pytest.mark.parametrize("flag", [["--conf", "{}"], ["--confi", "{}"], ["--conf={}"], ["-c", "{}"]])
def test_an_abbreviated_config_flag_is_a_usage_error(tmp_path, capsys, flag):
    # settings come from flags only: neither --config nor an abbreviation of it
    # reads the file, and the error names the flag, not the file after it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"weights": "0.5,1.5"}))
    matrix = tmp_path / "m.csv"
    argv = ["generate", "--model", "ring", "--n", 5, "--graph-out", tmp_path / "g.tsv",
            "--matrix-out", matrix]
    for tokens in ([tok.format(config) for tok in flag], ["--config", config]):
        with pytest.raises(SystemExit) as excinfo:
            run(capsys, *tokens, *argv)
        assert excinfo.value.code == 2 and not matrix.exists()
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {tokens[0]}\n")


def test_no_arguments_at_all_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "the following arguments are required: command" in captured.err


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
    assert info.value.code == 2 and "--n" in capsys.readouterr().err
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
    sidecar_keys = readme_keys(readme_file_row("sequence sidecar"))
    always = {k for k in sidecar_keys if not k.endswith("?")}
    networked = always | {k.rstrip("?") for k in sidecar_keys}
    setup_row = readme_file_row("setup")
    setup_keys = set(readme_keys(setup_row))
    demo_adds = set(re.findall(r"`(\w+)`", re.search(r"`demo` adds ((?:`\w+`(?:, | and )?)+)", setup_row).group(1)))

    matrix = tmp_path / "rot.csv"
    matrix.write_text(ROT_CSV)
    steps = [
        ("simulate", "--matrix", matrix, "--seed", 1, "--out", tmp_path / "y.csv"),
        ("simulate", "--matrix", matrix, "--node-d", 2, "--seed", 1, "--out", tmp_path / "n.csv"),
        ("demo", "fig3", "--outdir", tmp_path / "fig3"),
        ("estimate", "--y", tmp_path / "y.csv", "--out", tmp_path / "spectrum.json"),
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
        matrix, y_csv, spectrum = tmp_path / "m.csv", tmp_path / "y.csv", tmp_path / "spectrum.json"
        steps = [
            ("generate", *gen, "--weights", "-1,1", "--seed", 0, "--graph-out", tmp_path / "g.tsv",
             "--matrix-out", matrix),
            ("simulate", "--matrix", matrix, *sim, "--seed", 0, "--out", y_csv),
            ("estimate", "--y", y_csv, "--rank-tolerance", 1e-14, "--out", spectrum),
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
@pytest.mark.parametrize("payload", [
    np.int64(1), np.bool_(True), {(1, 2): 3}, [set()], {"a": object()}, np.array([1.0]), 1j,
])
def test_any_other_type_is_a_type_error(tmp_path, payload):
    out = tmp_path / "out.json"
    with pytest.raises(TypeError):
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
    ["estimate", "--y", "y.csv", "--frobnicate", "3"],
    ["estimate", "--y", "y.csv", "--", "--out"],
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


def test_bench_prints_a_table(tmp_path, capsys):
    code, out, _ = run(capsys, "bench", "fig3", "--seeds", 2)
    assert code == 0
    assert "scenario" in out and "fig3" in out
