"""Command-line pipeline: generate -> simulate -> estimate -> verify, demos, bench."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from spectral_scope import OutputSequence, cli, read_matrix_csv, read_sequence, scenarios, write_sequence
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
    ],
    ids=["n-1", "n-negative", "m-above-n", "m-0", "empty-weight-range", "ring-n-0"],
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
        "--K", 4, "--out", out_csv,
    )
    assert code == 0
    assert out_csv.read_text() == "k,y\n0,1\n1,0\n2,1\n3,0\n"
    sidecar = json.loads((tmp_path / "y.json").read_text())
    assert sidecar["mode"] == "dt" and sidecar["n_hint"] == 2
    setup = json.loads((tmp_path / "y.setup.json").read_text())
    assert setup["x0"] == [1.0, 0.0] and setup["c"] == [1.0, 0.0]


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
    assert code == 2 and "--tau" in err


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


@pytest.mark.parametrize(
    "argv, text",
    [
        (("simulate", "--matrix", "swap.csv", "--x0", "nan,1", "--observe", 0), "nan,1"),
        (("simulate", "--matrix", "swap.csv", "--observe", 0, "--observe-weights", "inf"), "inf"),
        (("generate", "--model", "ring", "--n", 2, "--weights", "nan,1"), "nan,1"),
    ],
    ids=["x0", "observe-weights", "weights"],
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
        ({"mode": "ct", "tau": "x"}, "'>' not supported"),
        ({"mode": "ct", "tau": 10**400}, "int too large to convert to float"),
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


def test_estimate_fails_cleanly_on_an_orthogonal_node(tmp_path, capsys):
    matrix = tmp_path / "swap.csv"
    matrix.write_text(SWAP_CSV)
    node = tmp_path / "node.json"
    node.write_text(json.dumps({"A": [[0, 0], [0, 0]], "beta": [1, 0], "gamma": [0, 1]}))
    y_csv = tmp_path / "y.csv"
    code, _, _ = run(
        capsys, "simulate", "--matrix", matrix, "--mode", "dt-networked", "--node", node,
        "--x0", "1,0.4", "--observe", 0, "--K", 8, "--out", y_csv,
    )
    assert code == 0
    code, _, err = run(capsys, "estimate", "--y", y_csv, "--node", node)
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
    write_sequence(OutputSequence(np.array(values), mode=mode, tau=1.0 if mode == "ct" else None),
                   y_csv)
    node_json = tmp_path / "node.json"
    node_json.write_text(json.dumps(node))
    code, out, err = run(capsys, "estimate", "--y", y_csv, "--node", node_json)
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
        ({"A": [[float("nan")]], "beta": [1], "gamma": [1]}, "A, beta and gamma must be finite"),
    ],
    ids=["no-A", "list", "non-square-A", "long-beta", "nan-A"],
)
def test_a_malformed_node_file_is_a_usage_error(tmp_path, capsys, command, node, message):
    matrix, y_csv = simulate_swap(tmp_path, capsys)
    node_json = tmp_path / "node.json"
    node_json.write_text(json.dumps(node))
    out_file = tmp_path / "out.csv"
    argv = {
        "estimate": ("estimate", "--y", y_csv),
        "simulate": ("simulate", "--matrix", matrix, "--mode", "dt-networked"),
    }[command]
    code, out, err = run(capsys, *argv, "--node", node_json, "--out", out_file)
    assert code == 2 and out == ""
    assert err.startswith(f"error: node {node_json}: {message}") and err.count("\n") == 1
    assert not out_file.exists()


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
    payload["roots"] = payload["roots"][1:]
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
        (lambda s: {**s, "c": s["c"][:2]}, "'c' in {setup} must be 5 finite numbers"),
        (lambda s: {**s, "x0": [float("nan")] + s["x0"][1:]}, "'x0' in {setup} must be 5 finite"),
        (lambda s: {**s, "c": "probe"}, "could not convert string to float: 'probe'"),
        (lambda s: {**s, "tol": None}, "float() argument must be"),
        (lambda s: [s["x0"], s["c"]], "setup {setup} must hold a JSON object"),
    ],
    ids=["no-x0", "short-c", "nan-x0", "text-c", "null-tol", "list"],
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
    ],
    ids=["huge-re", "huge-multiplicity", "inf-multiplicity", "zero-multiplicity", "no-multiplicity"],
)
def test_verify_of_an_unreadable_root_is_a_usage_error(tmp_path, capsys, edit, message):
    matrix, spectrum, setup = full_chain(tmp_path, capsys)
    payload = json.loads(spectrum.read_text())
    payload["roots"][0] = edit(payload["roots"][0])
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
    setup = json.loads((outdir / "setup.json").read_text())
    assert (setup["mode"], setup["tau"], setup["node"] is not None) == PRESET_SETUPS[name]


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


def test_demo_into_an_existing_file_is_a_usage_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    code, out, err = run(capsys, "demo", "fig1", "--outdir", afile)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot create --outdir") and err.count("\n") == 1
    assert afile.read_text() == "kept\n"


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
        (["simulate", "--matrix", "swap.csv", "--mode", "dt-networked", "--node-d", 2,
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
        (["simulate", "--matrix", "swap.csv", "--mode", "dt-networked", "--node-d", 100000],
         "--node-d must be <= 2048, got 100000"),
        (["estimate", "--y", "y.csv", "--node-d", 2049], "--node-d must be <= 2048, got 2049"),
    ],
    ids=["ring", "pa", "simulate-node", "estimate-node"],
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
    for shared in (result.artifacts.matrix, result.truth, result.artifacts.node.A):
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


def test_every_readme_command_parses(capsys):
    # parsed only, never run: a documented flag the parser lacks fails here
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("spectral-scope "):
                commands.append(shlex.split(line, comments=True)[1:])
    parser, parsed = build_parser(), set()
    for argv in commands:
        try:
            parsed.add(parser.parse_args(cli._fuse_negative_values(argv)).command)
        except SystemExit:
            pytest.fail(f"README command does not parse: spectral-scope {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")
    assert parsed == {"generate", "simulate", "estimate", "verify", "demo", "bench"}


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


def test_bench_prints_a_table(tmp_path, capsys):
    code, out, _ = run(capsys, "bench", "fig3", "--seeds", 2)
    assert code == 0
    assert "scenario" in out and "fig3" in out
