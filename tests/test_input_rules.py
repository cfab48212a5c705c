"""Each input rule has one owner, and every entry point applies the owner's rule.

A sampling period ``tau`` must be a positive finite real and a tolerance a
finite real >= 0, neither a bool; ``graphs._positive`` and
``graphs._tolerance`` own these rules and their one message. A record's time
mode is no input: it is ``CT`` when the record has a tau and ``DT`` when not,
which ``dynamics._mode_of`` owns. Only a spectrum file names a mode, which
must be ``DT`` or ``CT``, with a tau for ``CT`` alone;
``SpectrumEstimate.from_json_dict`` owns that rule (a sequence record has a
tau or none). What a number is in text is the rule of numpy's C reader,
which ``graphs._csv_table`` alone applies: the matrix reader and the list
flags read a token alike or refuse it alike. The catalogues of library refusals
and CLI error lines feed each bad value to every entry point that takes such
an input; here, ``ast`` guards keep the range tests, the mode test and the
choice between ``DT`` and ``CT`` from being written anywhere else in
``src/``. Every record is a frozen dataclass, which an ``ast`` guard keeps
so; an ``OutputSequence`` also keeps a read-only copy of its samples, and an
``ObservationSetup`` of its ``x0`` and ``c``, so neither a field nor an entry
of them can be changed past its rules. A JSON record must be an object holding its keys,
which ``graphs._json_object`` owns, and a reader's message names its file
through ``graphs._reading``; ``ast`` guards keep both rules in their helpers.
The estimator checks its inputs once, at its doors: ``estimate_spectrum``
checks both tolerances and builds the record, ``detect_rank_online`` checks
its own tolerance and builds the record of the samples it has read, and an
``ast`` guard keeps the stages behind them from checking again.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_scope import (
    CT,
    DT,
    NodeDynamics,
    ObservationSetup,
    OutputSequence,
    SpectrumEstimate,
    nu_sequence,
    read_sequence,
    simulate_dt,
    write_sequence,
)
from spectral_scope import cli
from spectral_scope.cli import main
from spectral_scope.graphs import _csv_table, read_matrix_csv

SRC = Path(__file__).resolve().parents[1] / "src" / "spectral_scope"
RULE_HELPERS = ("_positive", "_tolerance")
MODE_HELPER = ("from_json_dict",)
MODE_CHOICE_HELPER = ("_mode_of",)
# the estimator's doors: each checks the tolerances it takes and builds the
# record; the stages behind them take both as given
ESTIMATOR_DOORS = ("estimate_spectrum", "detect_rank_online")


def test_no_tau_is_discrete_time():
    # None is no bad tau for a record or node weights: without one, even after
    # a memo of the weights at tau = 1, they are the discrete-time weights
    assert OutputSequence([1.0, 0.5]).mode == DT and SpectrumEstimate([]).mode == DT
    nu_sequence(NodeDynamics.trivial(), 4, 1.0)
    assert nu_sequence(NodeDynamics.trivial(), 4).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_a_sequence_cannot_be_changed_after_its_rules_run():
    seq = OutputSequence([1.0, 0.5, 0.25, 0.125], tau=1.0)
    # an infinite tau assigned here would give a root at -0 with no error
    for name, value in (("tau", math.inf), ("mode", "hourly"), ("values", [math.nan]), ("node", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(seq, name, value)
    assert (seq.mode, seq.tau) == (CT, 1.0)


def test_a_sequence_keeps_a_read_only_copy_of_its_samples(tmp_path):
    y = np.array([1.0, 0.5, 0.25, 0.125])
    seq = OutputSequence(y)
    write_sequence(seq, tmp_path / "before.json")
    # without the copy this NaN would reach the file, which read_sequence refuses
    y[1] = math.nan
    assert seq.values.tolist() == [1.0, 0.5, 0.25, 0.125]
    write_sequence(seq, tmp_path / "after.json")
    assert (tmp_path / "after.json").read_text() == (tmp_path / "before.json").read_text()
    assert read_sequence(tmp_path / "after.json").values.tolist() == seq.values.tolist()
    with pytest.raises(ValueError, match="read-only"):
        seq.values[1] = math.nan


def test_a_setup_keeps_read_only_copies_of_x0_and_c():
    x0, c = np.array([1.0, 0.5]), np.array([1.0, 1.0])
    setup = ObservationSetup(x0=x0, c=c)
    x0[0] = c[0] = math.nan
    assert (setup.x0.tolist(), setup.c.tolist()) == ([1.0, 0.5], [1.0, 1.0])
    # a NaN written here once reached simulate_dt, which called it an overflow at step 0
    for vector in (setup.x0, setup.c):
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = math.nan
    assert simulate_dt(np.eye(2), setup, 3).values.tolist() == [1.5] * 3


def _verify(tmp_path, capsys, tol, source: str) -> tuple[int, str]:
    """Exit code and stderr of ``verify`` on a 1 x 1 system whose one root the
    estimate holds, with ``tol`` given by the flag or by the setup."""
    matrix, spectrum, setup = tmp_path / "m.csv", tmp_path / "s.json", tmp_path / "setup.json"
    matrix.write_text("0.5\n")
    spectrum.write_text(json.dumps(SpectrumEstimate([(0.5 + 0j, 1)]).to_json_dict()))
    payload = {"schema": 1, "x0": [1.0], "c": [1.0]}
    flag = ("--tol", str(tol)) if source == "flag" else ()
    if source == "setup":
        payload["tol"] = tol
    setup.write_text(json.dumps(payload))
    code = main(["verify", "--matrix", str(matrix), "--estimate", str(spectrum), "--setup", str(setup), *flag])
    return code, capsys.readouterr().err


def test_a_valid_tolerance_verifies(tmp_path, capsys):
    assert _verify(tmp_path, capsys, 0, "setup") == (0, "")
    assert _verify(tmp_path, capsys, 0.0, "flag") == (0, "")


# each of these was a number to some readers and no number to others
NUMBERS = {"1": 1.0, " 2 ": 2.0, "-0": -0.0, "+1e5": 1e5, ".5": 0.5, "5.": 5.0, "1e-400": 0.0,
           "4.9406564584124654e-324": 5e-324}
NOT_NUMBERS = ["1_0", "", " ", "0x10", "\u0661", "1d5", "1.5j", '"1"', "+-1", "nan(1)", "1 2"]


def read_by_every_text_reader(tmp_path, token: str) -> list:
    """``token`` as the matrix reader and a list flag read it: the float of
    each, or the error each raises."""
    (tmp_path / "m.csv").write_text(f"{token},1\n1,1\n")
    out = []
    for read in (lambda: read_matrix_csv(tmp_path / "m.csv")[0, 0], lambda: cli._parse_floats(f"{token},1")[0]):
        try:
            out.append(float(read()))
        except (ValueError, SystemExit) as exc:
            out.append(exc)
    return out


@pytest.mark.parametrize("token", NUMBERS)
def test_every_text_reader_reads_a_number_alike(tmp_path, token):
    got = read_by_every_text_reader(tmp_path, token)
    assert [np.float64(v).tobytes() for v in got] == [np.float64(NUMBERS[token]).tobytes()] * 2  # -0.0 too


@pytest.mark.parametrize("token", NOT_NUMBERS)
def test_every_text_reader_refuses_what_is_no_number(tmp_path, token, capsys):
    matrix, flag = read_by_every_text_reader(tmp_path, token)
    assert str(matrix) == f"matrix {tmp_path / 'm.csv'}: line 1, column 1: {token.strip()!r} is not a finite number"
    assert isinstance(flag, SystemExit) and flag.code == 2
    assert capsys.readouterr().err == f"error: expected comma-separated finite numbers, got {token + ',1'!r}\n"


TABLE_TEXT = st.lists(st.lists(st.sampled_from(
    list("0123456789.,-+eE #_\t\r\x0b\x00") + ["nan", "inf", "1e400", "x", "\u0661"]), max_size=12).map("".join),
    max_size=4)


@given(TABLE_TEXT)
@settings(max_examples=300, deadline=None)
@example(["0\r,0"])  # numpy ends the line at the \r, though each field reads alone
def test_the_table_reader_reads_every_data_line_or_names_its_fault(lines):
    data = [(i, d) for i, line in enumerate(lines, 1) if (d := line.partition("#")[0].strip())]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's reader warns of a table with no data
        try:
            table = _csv_table(lines)
        except ValueError as exc:
            # a fault's line is a data line, counted from 1
            assert (m := re.fullmatch(r"has no entries|line (\d+): expected \d+ columns, got \d+"
                                      r"|line (\d+), column \d+: '.*' is not a finite number", str(exc), re.S)), exc
            assert (m[1] or m[2]) is None or int(m[1] or m[2]) in [i for i, _ in data]
            return
    assert table.shape == (len(data), data[0][1].count(",") + 1) and np.isfinite(table).all()


# =========================================================================
# The guards: a range or mode rule is written only in its helper
# =========================================================================


def _is_range_check(node: ast.AST) -> bool:
    """``0 < x < inf`` or ``0 <= x < inf``, with ``inf`` as ``math.inf`` or ``np.inf``."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Constant) and node.left.value == 0
        and len(node.ops) == 2 and isinstance(node.ops[0], (ast.Lt, ast.LtE)) and isinstance(node.ops[1], ast.Lt)
        and isinstance(node.comparators[1], ast.Attribute) and node.comparators[1].attr == "inf"
    )


def _mode_label(node: ast.AST) -> str:
    """``"DT"`` or ``"CT"`` for the name or the string of a mode, upper-cased."""
    return str(node.id if isinstance(node, ast.Name) else getattr(node, "value", None)).upper()


def _is_mode_check(node: ast.AST) -> bool:
    """A membership test (``in`` or ``not in``) against a literal holding
    ``DT`` and ``CT``, by name or as the strings ``"dt"`` and ``"ct"``."""
    return (
        isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        and any(
            isinstance(c, (ast.Tuple, ast.List, ast.Set))
            and {_mode_label(e) for e in c.elts} == {"DT", "CT"}
            for c in node.comparators
        )
    )


def _is_mode_choice(node: ast.AST) -> bool:
    """A conditional that gives ``DT`` one way and ``CT`` the other: an ``x if
    c else y`` expression, or an ``if``/``else`` of one return or assignment
    each."""
    if isinstance(node, ast.IfExp):
        branches = [node.body, node.orelse]
    elif isinstance(node, ast.If) and len(node.body) == len(node.orelse) == 1:
        branches = [getattr(b[0], "value", None) for b in (node.body, node.orelse)]
    else:
        return False
    return {_mode_label(b) for b in branches} == {"DT", "CT"}


def rule_checks(source: str, allowed=RULE_HELPERS, is_check=_is_range_check) -> list[int]:
    """Lines of ``source`` holding a check (by default a range check) outside
    the functions named in ``allowed``."""
    found = []

    def visit(node: ast.AST, inside: bool) -> None:
        if is_check(node) and not inside:
            found.append(node.lineno)
        inside = inside or isinstance(node, ast.FunctionDef) and node.name in allowed
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


def test_each_range_rule_is_written_once():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert {name: rule_checks(text) for name, text in sources.items() if rule_checks(text)} == {}
    # the two helpers hold one check each, so the guard is not looking at nothing
    assert len(rule_checks(sources["graphs.py"], allowed=())) == 2
    # and it flags a copy planted outside them
    planted = "import math\n\ndef check(tol):\n    if not 0 <= tol < math.inf:\n        raise ValueError(tol)\n"
    assert rule_checks(planted) == [4]


def _is_estimator_input_check(node: ast.AST) -> bool:
    """A call of the tolerance rule, or a construction of the output record."""
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_tolerance", "OutputSequence")


def test_each_estimator_input_is_checked_once_at_its_door():
    source = (SRC / "estimator.py").read_text()
    assert rule_checks(source, ESTIMATOR_DOORS, _is_estimator_input_check) == []
    # two tolerances and the record at estimate_spectrum, one tolerance and the record at detect_rank_online
    assert len(rule_checks(source, (), _is_estimator_input_check)) == 5
    # and it flags a stage that checks again
    planted = "def build_hankel(y, tol):\n    return OutputSequence(y).values, _tolerance(tol, 'rank tolerance')\n"
    assert rule_checks(planted, ESTIMATOR_DOORS, _is_estimator_input_check) == [2, 2]


def mode_checks(source: str, allowed=MODE_HELPER, choice_allowed=MODE_CHOICE_HELPER) -> list[int]:
    """Lines of ``source`` holding a mode check outside the functions named in
    ``allowed``, or a choice between ``DT`` and ``CT`` outside those named in
    ``choice_allowed``."""
    return sorted(rule_checks(source, allowed, _is_mode_check)
                  + rule_checks(source, choice_allowed, _is_mode_choice))


def test_the_mode_rule_is_written_once():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert {name: mode_checks(text) for name, text in sources.items() if mode_checks(text)} == {}
    # the helpers hold the one check and the one choice, so the guard is not
    # looking at nothing
    assert len(rule_checks(sources["estimator.py"], (), _is_mode_check)) == 1
    assert len(rule_checks(sources["dynamics.py"], (), _is_mode_choice)) == 1
    # and it flags copies planted outside them, by name or by the strings
    planted = (
        "def check(mode):\n"
        "    if mode not in (DT, CT):\n"
        "        raise ValueError(mode)\n"
        "    return mode in ['ct', 'dt']\n"
        "\n"
        "def mode_of(tau):\n"
        "    return 'dt' if tau is None else CT\n"
        "\n"
        "def mode_again(tau):\n"
        "    if tau is not None:\n"
        "        mode = CT\n"
        "    else:\n"
        "        mode = 'dt'\n"
        "    return mode\n"
    )
    assert mode_checks(planted) == [2, 4, 7, 10]


def _dataclasses(source: str) -> dict[int, bool]:
    """For each class of ``source`` declared ``@dataclass`` (bare, called or
    as ``dataclasses.dataclass``), its line and whether it is ``frozen=True``."""
    found = {}
    classes = (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef))
    for node in classes:
        for d in node.decorator_list:
            target = d.func if isinstance(d, ast.Call) else d
            if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                found[node.lineno] = isinstance(d, ast.Call) and any(
                    k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
                    for k in d.keywords
                )
    return found


def test_every_record_is_frozen():
    # a record is built once from checked values, so no field may be set past its rules
    records = {path.name: _dataclasses(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: [line for line, frozen in found.items() if not frozen]
            for name, found in records.items() if not all(found.values())} == {}
    # the guard sees every record of the package, so it is not looking at nothing
    assert sum(map(len, records.values())) == 12
    # and it flags a copy planted without frozen=True, in each spelling
    planted = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass(eq=False)\n"
        "class Loose:\n"
        "    x: int\n"
        "\n"
        "@dataclasses.dataclass\n"
        "class Bare:\n"
        "    y: int\n"
        "\n"
        "@dataclass(frozen=False)\n"
        "class Thawed:\n"
        "    z: int\n"
        "\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class Record:\n"
        "    w: int\n"
    )
    assert _dataclasses(planted) == {5: False, 9: False, 13: False, 17: True}


def _is_dict_check(node: ast.AST) -> bool:
    """``isinstance(x, dict)``, with ``dict`` alone or in a tuple of types."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2):
        return False
    types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(getattr(t, "id", None) == "dict" for t in types)


# a reader's path, and the CLI flags that name an input file
FILE_NAMES = ("path",)
FILE_FLAGS = ("matrix", "estimate", "setup", "node", "y")


def _names_a_file(node: ast.AST) -> bool:
    """A ``raise`` whose expression formats a reader's ``path``, or an input
    file flag of ``args``, into an f-string."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    formatted = [n for f in ast.walk(node.exc) if isinstance(f, ast.FormattedValue) for n in ast.walk(f.value)]
    return any(
        isinstance(n, ast.Name) and n.id in FILE_NAMES
        or isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "args" and n.attr in FILE_FLAGS
        for n in formatted
    )


def file_rule_checks(source: str) -> list[int]:
    """Lines of ``source`` holding a JSON object check outside ``_json_object``
    or a raise that names a file outside ``_reading``."""
    return sorted(rule_checks(source, ("_json_object",), _is_dict_check)
                  + rule_checks(source, ("_reading",), _names_a_file))


def test_the_file_rules_are_written_once():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert {name: file_rule_checks(text) for name, text in sources.items() if file_rule_checks(text)} == {}
    # each helper holds its one check, so the guard is not looking at nothing
    assert len(rule_checks(sources["graphs.py"], (), _is_dict_check)) == 1
    assert len(rule_checks(sources["graphs.py"], (), _names_a_file)) == 1
    # and it flags copies planted outside them, as the readers wrote them before
    planted = (
        "def read(path, args):\n"
        "    if not isinstance(meta, dict) or 'mode' not in meta:\n"
        "        raise ValueError(f'sidecar {path} must hold a JSON object')\n"
        "    raise ValueError(f'{path} line {i}: weight {w!r} is not finite')\n"
        "    raise ValueError(f'root {k} in {args.estimate} has multiplicity {m}')\n"
        "    raise ValueError(f'matrix in {str(path)} has no entries') from None\n"
        "    if isinstance(r, (list, dict)):\n"
        "        raise ValueError(f'--observe expects node indices, got {args.observe!r}')\n"
    )
    assert file_rule_checks(planted) == [2, 3, 4, 5, 6, 7]
