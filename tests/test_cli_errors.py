"""The catalogue of CLI error lines: one row per input that a step refuses.

Each row holds the argv, the texts of the input files, the exit code (1 for
an estimation or simulation failure, 2 for a usage error) and the exact last
line on stderr. A row runs through ``cli.main`` in a directory that holds
only its input files; argparse's ``SystemExit`` is exit 2. Every line but
argparse's (which prints its usage first) is all of stderr, and a warning
counts as a line there, since a user sees it. No step writes a file when it
fails, unless the row names what it writes; its inputs stay as they were.
A wording change edits one row. Two guards keep the table whole: every
stderr line ``cli.py`` can print is reached by a row (checked, with every
``raise`` in ``src/``, in ``test_library_errors.py``), and every ``error: …``
line the README quotes is a row's.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import re
import shlex
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from spectral_scope import cli
from spectral_scope.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


class Row(NamedTuple):
    id: str
    argv: str
    files: dict
    line: str
    code: int = 2
    writes: tuple = ()


def sequence(values, tau=None, node=None) -> dict:
    """``y.json``, the sequence record of ``values``."""
    return {"y.json": json.dumps({"schema": 1, "tau": tau, "values": values, **({"node": node} if node else {})})}


def spectrum(root, rank=1) -> str:
    return json.dumps({"schema": 1, "mode": "dt", "rank": rank, "residual": 0.0, "roots": [root]})


SWAP = {"swap.csv": "0,1\n1,0\n"}
SWAP_Y = sequence([1.0, 0.0, 1.0, 0.0])
ROOT = {"re": 1.0, "im": 0.0, "multiplicity": 1}
SETUP = {"x0": [1.0, 1.0, 1.0], "c": [1.0, 0.0, 0.0]}
CHAIN = {"m.csv": "0.5,1,0\n0,-0.4,1\n0.3,0,0.2\n", "s.json": spectrum(ROOT), "setup.json": json.dumps(SETUP)}
ONE = {"m.csv": "0.5\n", "s.json": spectrum({**ROOT, "re": 0.5})}
VERIFY = "verify --matrix m.csv --estimate s.json --setup setup.json"
NODE = {"A": [[1]], "beta": [1], "gamma": [1]}
# numpy gives this finite matrix the eigenvalues -2.82e307 +- inf j; snapped onto
# the real axis, they were once reported as three real ones
BEYOND_THE_DOUBLES = "0,1.6e308,1.6e308\n-1.6e308,0,8e307\n-8e307,-8e307,-8e307\n"
EXPECTING = "Expecting value: line 1 column 1 (char 0)"

ROWS = [
    # generate
    Row("generate-no-n", "generate --model pa", {},
        "spectral-scope generate: error: the following arguments are required: --n"),
    *(Row(f"generate-{id}", f"generate {argv} --graph-out g.tsv --matrix-out m.csv", {}, f"error: {line}")
      for id, argv, line in [
          ("n-1", "--model pa --n 1", "m_attach=2 exceeds n=1"),
          ("n-negative", "--model pa --n -3", "m_attach=2 exceeds n=-3"),
          ("m-above-n", "--model pa --n 5 --m 9", "m_attach=9 exceeds n=5"),
          ("m-0", "--model pa --n 5 --m 0", "m_attach must be a whole number >= 1, got 0"),
          ("empty-weight-range", "--model pa --n 5 --weights 1,1", "need lo < hi, both finite, got [1.0, 1.0)"),
          ("ring-n-0", "--model ring --n 0", "n must be a whole number >= 2, got 0"),
          ("one-weight-bound", "--model ring --n 4 --weights 1", "--weights expects LO,HI"),
          ("nan-weights", "--model ring --n 2 --weights nan,1",
           "expected comma-separated finite numbers, got 'nan,1'"),
          # each of these once read as LO,HI = -1,1
          *((f"weights-{id}", f"--model ring --n 2 --weights {bad}",
             f"expected comma-separated finite numbers, got {bad!r}")
            for id, bad in (("trailing-comma", "-1,1,"), ("empty-field", "-1,,1"), ("comment", "-1,1#2"))),
          # numpy's reader ends the line at the \r, though each field reads alone: this was a traceback
          ("weights-carriage-return", "--model ring --n 2 --weights '0\r,1'",
           "expected comma-separated finite numbers, got '0\\r,1'"),
      ]),
    Row("generate-unknown-kind", "generate --model ring --n 5 --kind normalized-laplacian", {},
        "spectral-scope generate: error: argument --kind: invalid choice: 'normalized-laplacian' "
        "(choose from 'adjacency', 'degree', 'laplacian', 'row-stochastic')"),
    # simulate
    *(Row(f"simulate-{id}", f"simulate --matrix swap.csv {argv} --out y.json", SWAP, f"error: {line}")
      for id, argv, line in [
          ("dt-tau", "--mode dt --tau 0.5", "--tau needs --mode ct"),
          ("default-mode-tau", "--tau 0.5", "--tau needs --mode ct"),
          ("K-0", "--K 0", "K must be a whole number >= 1, got 0"),
          ("ct-without-tau", "--mode ct", "tau must be a positive finite number, got None"),
          ("node-seed-alone", "--node-seed 5 --seed 1", "--node-seed needs --node-d"),
          ("zero-node-d", "--node-d 0 --seed 1", "--node-d must be >= 1, got 0"),
          ("negative-node-d", "--node-d -2 --node-seed 5 --seed 1", "--node-d must be >= 1, got -2"),
          *((f"observed-{node}-{x0}-x0", f"--observe {node}" + (" --x0 1,0" if x0 == "given" else ""),
             f"observed nodes [{node}] out of range for n=2")
            for node in (5, -1, 10**20) for x0 in ("drawn", "given")),  # 10**20 is beyond int64
          # argparse once took -1,0 for an option name, as it would for any list flag
          ("observed-negative-list", "--observe -1,0", "observed nodes [-1, 0] out of range for n=2"),
          ("repeated-observed-node", "--observe 0,0",
           "observed node 0 is repeated; observed nodes must be distinct"),
          ("observe-a", "--observe a", "expected comma-separated finite numbers, got 'a'"),
          ("observe-empty-entry", "--observe 1,,2", "expected comma-separated finite numbers, got '1,,2'"),
          # Python's int() reads 1_0 as 10
          ("observe-underscore", "--observe 1_0", "expected comma-separated finite numbers, got '1_0'"),
          ("observe-fraction", "--observe 0,1.5", "observed node must be a whole number, got 1.5"),
          ("observe-weights-alone", "--observe-weights 2", "observe_weights given without observed nodes"),
          ("nan-x0", "--x0 nan,1 --observe 0", "expected comma-separated finite numbers, got 'nan,1'"),
          ("inf-observe-weights", "--observe 0 --observe-weights inf",
           "expected comma-separated finite numbers, got 'inf'"),
          ("text-x0", "--x0 a,1 --observe 0", "expected comma-separated finite numbers, got 'a,1'"),
          # the empty field was once dropped, and float() reads 1_0 as 10
          ("x0-empty-field", "--x0 1,,2 --observe 0", "expected comma-separated finite numbers, got '1,,2'"),
          ("x0-underscore", "--x0 1_0,1 --observe 0", "expected comma-separated finite numbers, got '1_0,1'"),
          ("x0-carriage-return", "--x0 '0\r,0' --observe 0", "expected comma-separated finite numbers, got '0\\r,0'"),
          ("observe-weights-underscore", "--observe 0 --observe-weights 2_0",
           "expected comma-separated finite numbers, got '2_0'"),
          ("long-x0", "--x0 1,2,3", "--x0 has 3 entries, matrix is 2x2"),
          ("seed", "--seed -1", "--seed must be >= 0, got -1"),
          ("node-seed", "--mode dt --node-d 2 --node-seed -4", "--node-seed must be >= 0, got -4"),
      ]),
    Row("simulate-cannot-write", "simulate --matrix swap.csv --out no-such-dir/y.json", SWAP,
        "error: cannot write output: [Errno 2] No such file or directory: 'no-such-dir/y.json'"),
    *(Row(f"simulate-{mode}-mode", f"simulate --matrix swap.csv --mode {mode} --tau 1 --node-d 2 --out y.json", SWAP,
          f"spectral-scope simulate: error: argument --mode: invalid choice: '{mode}' (choose from 'dt', 'ct')")
      for mode in ("dt-networked", "ct-networked")),
    Row("simulate-two-node-sources", "simulate --matrix swap.csv --node node.json --node-d 3 --out y.json",
        {**SWAP, "node.json": json.dumps({"A": [[0.5]], "beta": [1], "gamma": [1]})},
        "spectral-scope simulate: error: argument --node-d: not allowed with argument --node"),
    *(Row(f"simulate-K-{K}", f"simulate --matrix swap.csv --K {K} --out y.json", {},  # before the matrix is read
          f"error: --K must be <= 4096, got {K}") for K in (4097, 10**18)),
    Row("simulate-overflow-at-the-first-sample",
        "simulate --matrix swap.csv --x0 1e308,1e308 --observe 0,1 --out y.json", SWAP,
        "overflow at sample 0; nothing recorded", code=1),
    # the agents' initial states, x0 beta^T, overflow before the rollout: numpy once warned first
    Row("simulate-node-overflow-at-the-first-sample",
        "simulate --matrix half.csv --node node.json --x0 1e300 --observe 0 --out y.json",
        {"half.csv": "0.5\n", "node.json": json.dumps({"A": [[0.5]], "beta": [1e10], "gamma": [1.0]})},
        "overflow at sample 0; nothing recorded", code=1),
    Row("simulate-overflowing-matrix-exponential", "simulate --matrix one.csv --mode ct --tau 1000 --x0 1 --observe 0",
        {"one.csv": "1\n"}, "overflow: matrix exponential exceeded the floating range; nothing recorded", code=1),
    Row("simulate-partial-trace", "simulate --matrix hot.csv --x0 1 --observe 0 --K 200 --out y.json",
        {"hot.csv": "1000\n"}, "overflow at sample 103; partial sequence written", code=1, writes=("y.json",)),
    # estimate
    Row("estimate-no-y", "estimate", {}, "spectral-scope estimate: error: the following arguments are required: --y"),
    Row("estimate-missing-sequence", "estimate --y nope.json", {},
        "error: cannot read sequence: [Errno 2] No such file or directory: 'nope.json'"),
    *(Row(f"estimate-{id}-sample", "estimate --y y.json", sequence([1.0, bad, 1.0, 0.0]),
          f"error: cannot read sequence: sequence y.json: output y[1] is not finite: {bad}")
      for id, bad in (("nan", np.nan), ("inf", np.inf), ("minus-inf", -np.inf))),
    *(Row(f"estimate-{id}", "estimate --y y.json", {"y.json": text},
          f"error: cannot read sequence: sequence y.json: {line}")
      for id, text, line in [
          ("text-sample", '{"values": [1, "x", 0.25]}', "output y holds 'x', which is not a number"),
          ("no-samples", '{"values": []}', "a non-empty 1-d sequence of outputs is required"),
          ("nested-samples", '{"values": [[1, 0.5], [0.25, 0.125]]}',
           "a non-empty 1-d sequence of outputs is required"),
          ("record-list", "[1]", "must hold a JSON object"),
          ("record-no-values", '{"tau": 1.0}', "has no 'values'"),
          ("record-text-tau", '{"values": [1, 0], "tau": "x"}', "tau must be a positive finite number, got 'x'"),
          ("record-huge-tau", f'{{"values": [1, 0], "tau": {10**400}}}',
           f"tau must be a positive finite number, got {10**400}"),
          ("record-not-json", "values: 1, 0", EXPECTING),
          ("null-sample", '{"values": [1, null, 0.25]}', "output y holds None, which is not a number"),
          ("bool-sample", '{"values": [1, true, 0.25]}', "output y holds True, which is not a number"),
          # json reads a literal beyond the doubles as inf, and a long integer exactly
          ("overlong-sample", '{"values": [1, 1e400, 0.25]}', "output y[1] is not finite: inf"),
          ("huge-sample", f'{{"values": [1, {10**400}, 0.25]}}', "int too large to convert to float"),
          ("record-null-values", '{"values": null}', "output y is None, which is not a number"),
          ("record-text-values", '{"values": "1, 0.5"}', "output y is '1, 0.5', which is not a number"),
          ("record-object-values", '{"values": {"0": 1}}', "output y is {'0': 1}, which is not a number"),
          # the sidecar an older simulate wrote beside its CSV holds no samples
          ("older-sidecar", '{"schema": 1, "mode": "dt", "tau": null, "seed": 42}', "has no 'values'"),
      ]),
    # a sequence file is one JSON record; the CSV an older simulate wrote is no JSON
    Row("estimate-older-sequence-csv", "estimate --y y.csv", {"y.csv": "k,y\n0,1\n1,0.5\n"},
        f"error: cannot read sequence: sequence y.csv: {EXPECTING}"),
    *(Row(f"estimate-{flag}-{value}", f"estimate --y y.json --{flag} {value} --out s.json", SWAP_Y,
          f"error: {name} must be a finite number >= 0, got {float(value)!r}")
      for flag, name, values in (("rank-tolerance", "rank tolerance", ("nan", "inf", "-1")),
                                 ("cluster-tol", "cluster tolerance", ("nan", "-1")))
      for value in values),
    Row("estimate-long-networked-record", "estimate --y y.json",  # the exact deconvolution would take minutes
        sequence([1.0] * 129, node={"A": [[0.5]], "beta": [1], "gamma": [1]}),
        "error: exact deconvolution takes at most 128 samples, got 129"),
    Row("estimate-too-short-for-its-rank", "estimate --y y.json", sequence([1.0, 0.0, 1.0]),
        "estimation failed: need 4 samples to solve at rank 2, have 3", code=1),
    Row("estimate-orthogonal-node", "estimate --y y.json",
        sequence([0.0] * 8, node={"A": [[0, 0], [0, 0]], "beta": [1, 0], "gamma": [0, 1]}),
        "estimation failed: node weight nu[0] = 0.000e+00 is numerically zero; "
        "the node dynamics cannot be deconvolved", code=1),
    *(Row(f"estimate-{id}-overflow", "estimate --y y.json", sequence(values, tau=tau, node=node),
          f"estimation failed: {line}", code=1)
      for id, values, tau, node, line in [
          ("node-expm", [1.0, 0.5, 0.25, 0.125], 1.0, {**NODE, "A": [[1000]]},
           "matrix exponential exceeded the floating range"),
          ("deconvolution", [1e308, 1e308, 1.0], None, {**NODE, "beta": [1e-10]},
           "deconvolved sample sigma[0] lies beyond the double range"),
          ("ct-deconvolution", [1.0, 1e308, 1.0, 1.0], 1.0, {"A": [[-1]], "beta": [1e-10], "gamma": [1]},
           "deconvolved sample sigma[1] lies beyond the double range"),
          ("node-weights", [1.0, 0.5, 0.25, 0.125], None, {**NODE, "A": [[1e200]]},
           "node weight nu[2] lies beyond the double range"),
      ]),
    Row("estimate-no-warning-before-the-failure", "estimate --y y.json --rank-tolerance 0",
        sequence([-1.5869749083707733e-18] * 13, tau=1.0),
        "estimation failed: recovered discrete root (6.024656351716352e-51+0j) is numerically zero; "
        "no finite continuous eigenvalue maps to it", code=1),
    # a positive finite tau, but log(0.5) / tau is beyond the doubles
    Row("estimate-log-map-overflow", "estimate --y y.json", sequence([1.0, 0.5, 0.25, 0.125], tau=1e-320),
        "estimation failed: recovered discrete root (0.5+0j) maps beyond the double range at tau = 1e-320",
        code=1),
    Row("estimate-cannot-write", "estimate --y y.json --out no-such-dir/s.json", SWAP_Y,
        "error: cannot write output: [Errno 2] No such file or directory: 'no-such-dir/s.json'"),
    # a node: simulate reads a node file, estimate the node in a sequence record
    *(row for id, node, message in [
        ("no-A", {"beta": [1], "gamma": [1]}, "has no 'A'"),
        ("list", [[1]], "must hold a JSON object"),
        ("non-square-A", {**NODE, "A": [[1, 0]]}, "A must be square, got (1, 2)"),
        ("long-beta", {**NODE, "beta": [1, 2]}, "beta and gamma must match the state dimension of A"),
        ("nan-A", {**NODE, "A": [[np.nan]]}, "A[0, 0] is not finite: nan"),
        ("object-A", {**NODE, "A": {"a": 1}}, "A is {'a': 1}, which is not a number"),
        # numpy read each of these strings as a number
        ("string-gamma", {**NODE, "gamma": "2"}, "gamma is '2', which is not a number"),
        ("string-in-A", {**NODE, "A": [["1_0"]]}, "A holds '1_0', which is not a number"),
        ("null-beta", {**NODE, "beta": [None]}, "beta holds None, which is not a number"),
        ("huge-A", {**NODE, "A": [[10**400]]}, "int too large to convert to float"),
        ("bool-A", {**NODE, "A": [[True]]}, "A holds True, which is not a number"),
        ("bool-gamma", {**NODE, "gamma": [False]}, "gamma holds False, which is not a number"),
        ("bare-bool-A", {"A": True, "beta": True, "gamma": 1}, "A is True, which is not a number"),
    ] for row in (
        Row(f"simulate-node-{id}", "simulate --matrix swap.csv --mode dt --node node.json --K 4 --out y.json",
            {**SWAP, "node.json": json.dumps(node)}, f"error: node node.json: {message}"),
        Row(f"estimate-node-{id}", "estimate --y y.json --out s.json", {"y.json": json.dumps(
            {"values": [1.0, 0.0], "node": node})}, f"error: cannot read sequence: sequence y.json: {message}"),
    )),
    # verify
    Row("verify-no-estimate", "verify --matrix m.csv", {},
        "spectral-scope verify: error: the following arguments are required: --estimate, --setup"),
    *(Row(f"verify-setup-{id}", f"{VERIFY} --out v.json", {**files, "setup.json": json.dumps(setup)},
          f"error: cannot read inputs: setup setup.json: {message}")
      for id, files, setup, message in [
          ("no-x0", CHAIN, {"c": SETUP["c"]}, "has no 'x0'"),
          ("short-c", CHAIN, {**SETUP, "c": [1.0, 0.0]},
           "x0 and c must be equal-length vectors, got (3,) and (2,)"),
          ("nan-x0", CHAIN, {**SETUP, "x0": [np.nan, 1.0, 1.0]}, "x0[0] is not finite: nan"),
          ("short-x0-and-c", CHAIN, {"x0": [1.0, 1.0], "c": [1.0, 0.0]},
           "matrix is 3x3 but the setup has 2 components"),
          ("text-c", CHAIN, {**SETUP, "c": "probe"}, "c is 'probe', which is not a number"),
          # verify once read this x0 as [1, 20]
          ("string-x0", CHAIN, {"x0": ["1", "2_0"], "c": ["1", "0"]}, "x0 holds '1', which is not a number"),
          ("list", CHAIN, [SETUP["x0"], SETUP["c"]], "must hold a JSON object"),
          ("bool-x0", CHAIN, {**SETUP, "x0": [True, 1.0, 1.0]}, "x0 holds True, which is not a number"),
          ("bool-c", CHAIN, {**SETUP, "c": [[0.0, False], 0.0, 0.0]}, "c holds False, which is not a number"),
          ("bare-bools", ONE, {"x0": True, "c": True}, "x0 is True, which is not a number"),
          ("object-x0", ONE, {"x0": [{"a": 1}], "c": [1]}, "x0 holds {'a': 1}, which is not a number"),
          ("huge-x0", ONE, {"x0": [10**400], "c": [1]}, "int too large to convert to float"),
      ]),
    *(Row(f"verify-{source}-tol-{tol}", f"{VERIFY} --out v.json" + (f" --tol {tol}" if source == "flag" else ""),
          {**CHAIN, "setup.json": json.dumps({**SETUP, "tol": float(tol)})} if source == "setup" else CHAIN,
          f"error: tolerance must be a finite number >= 0, got {float(tol)!r}")
      for source in ("flag", "setup") for tol in ("nan", "inf", "-1")),
    *(Row(f"verify-setup-tol-{id}", f"{VERIFY} --out v.json",
          {**CHAIN, "setup.json": json.dumps({**SETUP, "tol": tol})},
          f"error: tolerance must be a finite number >= 0, got {tol!r}")
      for id, tol in (("null", None), ("true", True), ("text", "1"), ("huge", 10**400))),
    *(Row(f"verify-root-{id}", f"{VERIFY} --out v.json", {**CHAIN, "s.json": text},
          f"error: cannot read inputs: estimate s.json: {message}")
      for id, text, message in [
          ("huge-re", spectrum({**ROOT, "re": 10**400}), "root 0: int too large to convert to float"),
          ("huge-multiplicity", spectrum({**ROOT, "multiplicity": 10**18}, rank=10**18),
           "root 0 has multiplicity 1000000000000000000, not 1 to 3"),
          ("inf-multiplicity", spectrum({**ROOT, "multiplicity": np.inf}),
           "root 0 multiplicity must be a whole number, got inf"),
          ("nan-multiplicity", spectrum({**ROOT, "multiplicity": np.nan}),
           "root 0 multiplicity must be a whole number, got nan"),
          ("zero-multiplicity", spectrum({**ROOT, "multiplicity": 0}, rank=0), "root 0 has multiplicity 0, below 1"),
          ("no-multiplicity", spectrum({"re": 1.0, "im": 0.0}), "root 0: has no 'multiplicity'"),
          ("fractional-multiplicity", spectrum({**ROOT, "multiplicity": 1.5}),
           "root 0 multiplicity must be a whole number, got 1.5"),
          ("string-multiplicity", spectrum({**ROOT, "multiplicity": "2"}),
           "root 0 multiplicity must be a whole number, got '2'"),
          ("bool-multiplicity", spectrum({**ROOT, "multiplicity": True}),
           "root 0 multiplicity must be a whole number, got True"),
          ("half-multiplicity", spectrum({**ROOT, "multiplicity": 0.5}),
           "root 0 multiplicity must be a whole number, got 0.5"),
          ("nan-re", spectrum({**ROOT, "re": np.nan}), "root 0 is not finite: (nan+0j)"),
          ("dropped", spectrum(ROOT, rank=2), "rank 2 is not the sum of the root multiplicities, 1"),
          ("list", "[]", "must hold a JSON object"),
          ("no-roots", json.dumps({"schema": 1, "mode": "dt", "rank": 0, "residual": 0.0}), "has no 'roots'"),
          ("not-json", "spectrum", EXPECTING),
      ]),
    Row("verify-overflowing-modal-weights", VERIFY,
        {**CHAIN, "setup.json": json.dumps({"x0": [1e300] * 3, "c": [1e300, 0.0, 0.0]})},
        "error: cannot check observability with setup setup.json: "
        "the modal weights (c^T u_i)(w_i^T x0) or |c| |x0| exceed the double range"),
    Row("verify-eigenvalue-beyond-the-doubles", VERIFY, {**CHAIN, "m.csv": BEYOND_THE_DOUBLES},
        "error: cannot find the spectrum of matrix m.csv: an eigenvalue's modulus exceeds the double range"),
    # numpy's LinAlgError once escaped as a traceback
    Row("verify-eigenvalues-do-not-converge", VERIFY,
        {"m.csv": "1.3931276166532869e+122,1.7555597020139802e+305,-8.777798510069901e+304\n"
                  "-1.7555597020139802e+305,-0.0,-9.765625e+303\n0.0,-1.625338373943029e+100,0.0\n",
         "s.json": spectrum({**ROOT, "re": 0.5}),
         "setup.json": json.dumps({"schema": 1, "x0": [0.98, 0.55, -0.18], "c": [0.56, -0.45, 0.48]})},
        "error: cannot find the spectrum of matrix m.csv: the QR iteration for the eigenvalues did not converge"),
    Row("verify-unknown-flag", f"{VERIFY} --tl 1", CHAIN, "spectral-scope: error: unrecognized arguments: --tl 1"),
    Row("verify-cannot-write", f"{VERIFY} --out no-such-dir/v.json", CHAIN,
        "error: cannot write output: [Errno 2] No such file or directory: 'no-such-dir/v.json'"),
    # a matrix file, which simulate and verify read
    *(row for id, text, message in [
        ("nan-entry", "0,1\n1,nan\n", "line 2, column 2: 'nan' is not a finite number"),
        ("non-square", "0,1,0\n1,0,0\n", "square matrix required, got shape (2, 3)"),
        ("text-entry", "0,1\n1,x\n", "line 2, column 2: 'x' is not a finite number"),
        ("underscore-entry", "# a 2 x 2 matrix\n0,1\n1_0,0\n", "line 3, column 1: '1_0' is not a finite number"),
        ("empty-field", "0,1\n1,\n", "line 2, column 2: '' is not a finite number"),
        ("ragged-row", "0,1\n\n# the second row\n1\n", "line 4: expected 2 columns, got 1"),
        ("empty", "", "has no entries"),
        ("blank-lines", "\n\n", "has no entries"),  # loadtxt once warned first that it read no data
        ("comment-only", "# a comment and no entries\n", "has no entries"),
    ] for row in (
        Row(f"simulate-matrix-{id}", "simulate --matrix m.csv --out y.json", {"m.csv": text},
            f"error: matrix m.csv: {message}"),
        Row(f"verify-matrix-{id}", f"{VERIFY} --out v.json", {**CHAIN, "m.csv": text},
            f"error: cannot read inputs: matrix m.csv: {message}"),
    )),
    # demo, bench and the top level
    Row("demo-into-a-file", "demo fig1 --outdir afile", {"afile": "kept\n"},
        "error: cannot create --outdir: [Errno 17] File exists: 'afile'"),
    Row("demo-seed", "demo fig1 --seed -1 --outdir out", {}, "error: --seed must be >= 0, got -1"),
    *(Row(f"bench-{id}", f"bench fig1 {argv} --json --out out", {}, f"error: {line}") for id, argv, line in [
        ("seed0", "--seed0 -5", "--seed0 must be >= 0, got -5"),
        ("no-seeds", "--seeds 0", "--seeds must be >= 1, got 0"),
        ("negative-seeds", "--seeds -2", "--seeds must be >= 1, got -2"),
    ]),
    Row("bench-cannot-write", "bench fig1 --seeds 1 --json --out no-such-dir/b.json", {},
        "error: cannot write output: [Errno 2] No such file or directory: 'no-such-dir/b.json'"),
    *(Row(f"generate-{model}-seed", f"generate --model {model} --n 6 --seed -1 --graph-out g --matrix-out m", {},
          "error: --seed must be >= 0, got -1") for model in ("ring", "pa")),  # a ring never draws from it
    Row("generate-cannot-write", "generate --model ring --n 3 --graph-out no-such-dir/g.tsv", {},
        "error: cannot write output: [Errno 2] No such file or directory: 'no-such-dir/g.tsv'"),
    Row("no-arguments", "", {}, "spectral-scope: error: the following arguments are required: command"),
    # settings come from flags only: neither --config nor an abbreviation of it reads the file
    *(Row(f"config-flag-{id}", f"{flag} generate --model ring --n 5", {"config.json": '{"weights": "0.5,1.5"}'},
          f"spectral-scope: error: unrecognized arguments: {flag.split()[0]}")
      for id, flag in (("conf", "--conf config.json"), ("confi", "--confi config.json"), ("conf-equals",
                       "--conf=config.json"), ("c", "-c config.json"), ("config", "--config config.json"))),
]


def outcome(row: Row, where: Path, monkeypatch) -> tuple[int, str, list[str]]:
    """``row`` run in the directory ``where``: its exit code, its stdout, and
    its stderr lines, each warning first as ``Category: message``."""
    for name, text in row.files.items():
        (where / name).write_text(text)
    monkeypatch.chdir(where)
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            code = main(shlex.split(row.argv))
        except SystemExit as exc:  # argparse, and the list flags' checks
            code = exc.code
    lines = [f"{w.category.__name__}: {w.message}" for w in caught] + err.getvalue().splitlines()
    return code, out.getvalue(), lines


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_a_refused_input_gives_its_exit_code_and_one_line(tmp_path, monkeypatch, row):
    code, out, lines = outcome(row, tmp_path, monkeypatch)
    assert (code, out) == (row.code, "")
    # argparse prints its usage line first
    assert (lines[-1:] if row.line.startswith("spectral-scope") else lines) == [row.line]
    assert {p.name: p.read_text() for p in tmp_path.iterdir() if p.name not in row.writes} == row.files
    assert all((tmp_path / name).is_file() for name in row.writes)


def stderr_sites(source: str) -> dict[int, range]:
    """The first line and the line span of each call in ``source`` that
    writes to stderr: ``_fail_usage(…)``, ``print(…, file=sys.stderr)`` and
    ``parser.error(…)``."""
    return {
        node.lineno: range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and (
            (call := ast.unparse(node.func)) in ("_fail_usage", "parser.error")
            or call == "print" and any(ast.unparse(k) == "file=sys.stderr" for k in node.keywords))
    }


def test_every_error_line_the_readme_quotes_is_a_row():
    # an ellipsis in a quote stands for a path
    quoted = [" ".join(q.split()) for q in re.findall(r"`(error: [^`]*)`", README.read_text())]
    patterns = [re.escape(q).replace("…", r"\S+") for q in quoted]
    assert len(quoted) >= 10
    assert [q for q, p in zip(quoted, patterns) if not any(re.fullmatch(p, row.line) for row in ROWS)] == []
