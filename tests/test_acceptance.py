"""End-to-end acceptance gates.

One test per headline guarantee; each prints a single human-readable verdict
line (visible with ``pytest -s`` or in the captured-output section) before
asserting, so a red run still reports the measured numbers.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import pkgutil
import re
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np

import spectral_scope
from helpers import exact_observable_count, hidden_mode_system, make_jordan_case
from spectral_scope import (
    NodeDynamics,
    ObservationSetup,
    detect_rank_online,
    estimate_spectrum,
    match_spectra,
    observable_partition,
    read_matrix_csv,
    run_scenario,
    simulate_ct_networked,
    simulate_dt,
    simulate_dt_networked,
    sweep,
    summarize,
)
from spectral_scope.cli import main
from spectral_scope.dynamics import matrix_exponential
from spectral_scope.estimator import CharacteristicPoly, build_hankel, roots_with_multiplicity

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = Path(__file__).resolve().parents[1] / "README.md"
BENCH_REFERENCE = PERFBENCH / "reference" / "bench_all_300.json"
CLI_REFERENCE = PERFBENCH / "reference" / "cli_roundtrip.json"


def announce(capsys, text: str) -> None:
    with capsys.disabled():
        print(f"\n{text}")


def timed_sweep(name: str):
    start = time.perf_counter()
    summary = summarize(sweep(name, seeds=100))
    return summary, time.perf_counter() - start


# =========================================================================
# Criteria 1-3: the three preset experiments, 100 seeds each
# =========================================================================


def test_criterion_1_random_weighted_graph_sweep(capsys):
    summary, elapsed = timed_sweep("fig1")
    ok = summary["passes"] >= 95 and elapsed < 1.0
    announce(
        capsys,
        f"[criterion 1] dt random-weight sweep: {summary['passes']}/100 seeds "
        f"(need >=95), max matched error {summary['max_error_passing']:.3e}, "
        f"{elapsed:.2f}s < 1s -> {'PASS' if ok else 'FAIL'}",
    )
    assert summary["passes"] >= 95
    assert elapsed < 1.0


def test_criterion_2_continuous_ring_sweep(capsys):
    summary, elapsed = timed_sweep("fig2")
    ok = summary["passes"] >= 90 and elapsed < 2.0
    announce(
        capsys,
        f"[criterion 2] ct ring sweep: {summary['passes']}/100 seeds (need >=90), "
        f"max matched error {summary['max_error_passing']:.3e}, "
        f"overflow seeds {summary['overflow_seeds']}, "
        f"{elapsed:.2f}s < 2s -> {'PASS' if ok else 'FAIL'}",
    )
    assert summary["passes"] >= 90
    assert elapsed < 2.0


def test_criterion_3_networked_graph_sweep(capsys):
    summary, elapsed = timed_sweep("fig3")
    ok = summary["passes"] >= 95 and elapsed < 2.0
    announce(
        capsys,
        f"[criterion 3] dt networked sweep: {summary['passes']}/100 seeds "
        f"(need >=95), max matched error {summary['max_error_passing']:.3e}, "
        f"{elapsed:.2f}s < 2s -> {'PASS' if ok else 'FAIL'}",
    )
    assert summary["passes"] >= 95
    assert elapsed < 2.0


# =========================================================================
# Criterion 4: Hankel rank equals the total excited chain depth
# =========================================================================

JORDAN_POOL = [
    ([(0.5, 2)], []),
    ([(0.5, 2)], [(0.5, 1)]),
    ([(0.5, 3)], []),
    ([(0.5, 3)], [(0.5, 2)]),
    ([(0.5, 3)], [(0.5, 1), (0.5, 2)]),
    ([(0.9, 2), (0.4, 1)], []),
    ([(0.9, 2), (0.4, 1)], [(0.9, 1)]),
    ([(0.9, 2), (0.4, 1)], [(0.4, 0)]),
    ([(1.0, 2), (-0.5, 2)], [(1.0, 1), (-0.5, 1)]),
    ([(0.8, 3), (0.3, 2)], []),
    ([(0.8, 3), (0.3, 2)], [(0.8, 2)]),
    ([(0.8, 3), (0.3, 2)], [(0.8, 1), (0.8, 2), (0.3, 1)]),
    ([(0.6 + 0.4j, 2), (0.6 - 0.4j, 2)], []),
    ([(0.5 + 0.5j, 1), (0.5 - 0.5j, 1), (0.7, 2)], [(0.7, 1)]),
    ([(0.9, 1), (0.2, 1), (-0.7, 1)], [(0.2, 0)]),
]


def test_criterion_4_rank_counts_excited_jordan_structure(capsys):
    total = hits = 0
    for si, (blocks, zeros) in enumerate(JORDAN_POOL):
        for seed in range(4):
            case = make_jordan_case(blocks, zero_weights=zeros, seed=100 * si + seed)
            y = simulate_dt(case.G, case.setup, K=2 * case.n)
            total += 1
            hits += build_hankel(y.values).rank == case.expected_rank
    ok = total >= 50 and hits == total
    announce(
        capsys,
        f"[criterion 4] jordan rank law: {hits}/{total} cases with detected rank "
        f"== sum of excited chain depths (need 100% of >=50) -> "
        f"{'PASS' if ok else 'FAIL'}",
    )
    assert total >= 50
    assert hits == total


# =========================================================================
# Criterion 5: repeated eigenvalues come back with their multiplicity
# =========================================================================


def test_criterion_5_defective_blocks_recovered_with_multiplicity(capsys):
    worst = 0.0
    hits = 0
    for i in range(20):
        m = 2 if i < 10 else 3
        rng = np.random.default_rng(1000 + i)
        lam = float(rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0]))
        case = make_jordan_case([(lam, m)], seed=2000 + i)
        y = simulate_dt(case.G, case.setup, K=2 * case.n)
        est = estimate_spectrum(y, cluster_tol=1e-3)
        if len(est.roots) == 1 and est.roots[0][1] == m:
            err = abs(est.roots[0][0] - lam)
            worst = max(worst, err)
            hits += err <= 1e-3
    ok = hits == 20
    announce(
        capsys,
        f"[criterion 5] repeated-root recovery: {hits}/20 single-block cases "
        f"(m=2,3) within 1e-3, worst |error| {worst:.3e} -> "
        f"{'PASS' if ok else 'FAIL'}",
    )
    assert hits == 20


# =========================================================================
# Criterion 6: the recovered set is exactly the observable partition
# =========================================================================


def test_criterion_6_observable_partition_matches_pbh(capsys):
    hits = 0
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(5000 + i)
        n = 4 + i % 5
        G, setup, D, hidden = hidden_mode_system(n, rng, hidden_count=1 + i % 2)
        part = observable_partition(G, setup.c, setup.x0)
        est = estimate_spectrum(simulate_dt(G, setup, K=2 * n))
        report = match_spectra(est.roots, part.observable, tol=1e-6)
        missing = {round(v.real, 9) for v in part.missing}
        pbh_ok = missing == {round(D[j], 9) for j in hidden} and all(
            bool(flag) == (m == 0)
            for flag, m in zip(part.pbh_deficient, part.m_tilde)
        )
        if report.matched_all and pbh_ok:
            hits += 1
            worst = max(worst, report.max_error)
    ok = hits == 50
    announce(
        capsys,
        f"[criterion 6] observability partition: {hits}/50 systems recovered "
        f"exactly the PBH-observable modes, worst matched error {worst:.3e} -> "
        f"{'PASS' if ok else 'FAIL'}",
    )
    assert hits == 50


# =========================================================================
# Criterion 7: the online detector stops early and loses nothing
# =========================================================================


def test_criterion_7_online_detection_within_the_sample_budget(capsys):
    n = 10
    consumed = []
    hits = 0
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(7000 + i)
        G, setup, _, _ = hidden_mode_system(n, rng)
        y = simulate_dt(G, setup, K=2 * n)
        det = detect_rank_online(iter(y.values), n_hint=n)
        consumed.append(len(det.values))
        online = estimate_spectrum(det.values)
        batch = estimate_spectrum(y)
        report = match_spectra(online.roots, batch.roots, tol=1e-10)
        if len(det.values) <= 2 * n and report.matched_all:
            hits += 1
            worst = max(worst, report.max_error)
    ok = hits == 100
    announce(
        capsys,
        f"[criterion 7] online rank detection: {hits}/100 runs stopped within "
        f"2n=20 samples and matched the batch estimate to 1e-10, mean samples "
        f"consumed {np.mean(consumed):.2f}, worst online/batch gap {worst:.3e} "
        f"-> {'PASS' if ok else 'FAIL'}",
    )
    assert hits == 100


# =========================================================================
# Criterion 8: numerical kernels against independent constructions
# =========================================================================


def test_criterion_8_kernels_match_reference_constructions(capsys):
    worst = 0.0
    for i in range(5):
        rng = np.random.default_rng(8000 + i)
        S = rng.standard_normal((6, 6))
        sym = (S + S.T) / 2
        w, V = np.linalg.eigh(sym)
        reference = V @ np.diag(np.exp(0.7 * w)) @ V.T
        got = matrix_exponential(sym, 0.7)
        worst = max(worst, np.linalg.norm(got - reference) / np.linalg.norm(reference))
    for i in range(5):
        rng = np.random.default_rng(8100 + i)
        S = rng.standard_normal((6, 6))
        skew = (S - S.T) / 2
        w, V = np.linalg.eig(skew)
        reference = (V @ np.diag(np.exp(0.7 * w)) @ V.conj().T).real
        got = matrix_exponential(skew, 0.7)
        worst = max(worst, np.linalg.norm(got - reference) / np.linalg.norm(reference))

    poly = CharacteristicPoly(np.array([0.25, -1.0]), 0.0, 1.0)
    roots = roots_with_multiplicity(poly)
    companion_ok = len(roots) == 1 and roots[0][1] == 2 and abs(roots[0][0] - 0.5) <= 1e-6

    ok = worst <= 1e-10 and companion_ok
    announce(
        capsys,
        f"[criterion 8] kernel cross-checks: matrix exponential within "
        f"{worst:.3e} of eigendecomposition references (need <=1e-10); "
        f"companion roots of (x-1/2)^2 -> {roots} (need 0.5 x2 within 1e-6) -> "
        f"{'PASS' if ok else 'FAIL'}",
    )
    assert worst <= 1e-10
    assert companion_ok


# =========================================================================
# No drift: the preset results stay the same bit for bit
# =========================================================================


def test_preset_sweeps_match_the_benchmark_reference_byte_for_byte(tmp_path, capsys):
    # the reference is a verbatim `bench all --seeds 300 --json`; this test only reads it
    out = tmp_path / "bench.json"
    start = time.perf_counter()
    code = main(["bench", "all", "--seeds", "300", "--json", "--out", str(out)])
    elapsed = time.perf_counter() - start
    same = out.read_bytes() == BENCH_REFERENCE.read_bytes()
    announce(
        capsys,
        f"[no drift] bench all --seeds 300 --json "
        f"{'is byte-identical to' if same else 'differs from'} "
        f"perfbench/reference/bench_all_300.json ({elapsed:.2f}s) -> {'PASS' if same else 'FAIL'}",
    )
    assert code == 0
    assert same


def benchmark_program(monkeypatch):
    """``perfbench/program.py``, imported read-only."""
    spec = importlib.util.spec_from_file_location("perfbench_program", PERFBENCH / "program.py")
    program = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, program)  # its dataclasses look it up
    spec.loader.exec_module(program)
    return program


def test_the_benchmark_finds_every_function_it_wraps(tmp_path, monkeypatch):
    # perfbench/program.py times layers by wrapping functions by name in the
    # namespaces the program calls them through, and raises on a missing name.
    # A stage that went around its wrapped name would read zero instead, so
    # each workload must reach every layer perfbench/README.md gives it.
    program = benchmark_program(monkeypatch)
    estimate = {"estimator.hankel", "estimator.solve", "estimator.roots", "oracle.match"}
    preset = estimate | {"graphs", "dynamics", "oracle.spectrum"}
    reaches = {
        "fig1-sweep": preset,
        "fig2-sweep": preset,
        # fig3's graph and true spectrum are pinned, built once per process
        "fig3-sweep": estimate | {"dynamics", "estimator.deconvolve"},
        "cli-roundtrip": preset | {"oracle.partition", "cli.generate", "cli.simulate",
                                   "cli.estimate", "cli.verify"},
    }
    missing = {}
    for workload, layers in reaches.items():
        t = program.Tracer()
        with program.traced(t), open(tmp_path / "chains.log", "w") as sink:
            if workload == "cli-roundtrip":
                for kind in program.CHAIN_KINDS:  # seed 3's dt chain excuses an unseen mode
                    program.clear_chain_files(tmp_path)
                    assert program.run_chain(kind, 3, tmp_path, sink, t) == (0, 0, 0, 0)
            else:
                program.run_scenario(workload.split("-")[0], 0)
        missing[workload] = sorted(layers - t.self_times()[1].keys())
    assert missing == dict.fromkeys(reaches, [])
    # a networked estimate is timed alike in both time modes: a CT one once
    # divided its node out in no span
    node, setup = NodeDynamics(A=[[0.3]], beta=[1.0], gamma=[1.0]), ObservationSetup(x0=[1.0], c=[1.0])
    spans = []
    for y in (simulate_dt_networked([[0.7]], node, setup, 6), simulate_ct_networked([[-0.7]], node, setup, 0.5, 6)):
        t = program.Tracer()
        with program.traced(t):
            estimate_spectrum(y)
        spans.append(t.self_times()[1].get("estimator.deconvolve", 0))
    assert spans[0] == spans[1] > 0, spans


def test_every_exported_name_resolves():
    modules = [spectral_scope] + [
        importlib.import_module(f"spectral_scope.{m.name}")
        for m in pkgutil.iter_modules(spectral_scope.__path__)
    ]
    stale = [f"{mod.__name__}.{name}" for mod in modules
             for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert stale == []


CORE_MODULES = ("dynamics", "estimator", "graphs", "oracle", "scenarios")


def names_declared_twice(modules) -> list[str]:
    """Names that more than one of ``modules`` lists in its ``__all__``, or
    that one lists twice: a star re-export would silently keep one object."""
    seen: set[str] = set()
    twice = []
    for mod in modules:
        for name in mod.__all__:
            if name in seen:
                twice.append(name)
            seen.add(name)
    return twice


def test_each_public_name_is_declared_once():
    core = [importlib.import_module(f"spectral_scope.{m}") for m in CORE_MODULES]
    assert names_declared_twice(core) == []
    assert len(spectral_scope.__all__) == len(set(spectral_scope.__all__))
    # the package exports exactly its core modules' names, as their own objects
    owner = {name: mod for mod in core for name in mod.__all__}
    assert sorted(spectral_scope.__all__) == sorted(owner)
    assert all(getattr(spectral_scope, name) is getattr(mod, name) for name, mod in owner.items())
    # and the guard sees the collision it is there to catch
    planted = types.SimpleNamespace(__all__=["estimate_spectrum"])
    assert names_declared_twice([*core, planted]) == ["estimate_spectrum"]


# internal to the estimator, the oracle and the simulators, yet kept as module
# attributes under their names: perfbench times the three stages by name
INTERNAL = {"estimator": ("build_hankel", "solve_coefficients", "roots_with_multiplicity", "HankelAnalysis",
                          "CharacteristicPoly"),
            "clustering": ("cluster_complex", "enforce_conjugate_pairs"), "dynamics": ("matrix_exponential",)}


def test_the_stages_and_helpers_stay_out_of_the_public_api():
    modules = {mod: importlib.import_module(f"spectral_scope.{mod}") for mod in INTERNAL}
    assert [name for names in INTERNAL.values() for name in names if name in spectral_scope.__all__] == []
    assert [f"{mod}.{name}" for mod, names in INTERNAL.items() for name in names
            if not hasattr(modules[mod], name)] == []
    assert not hasattr(spectral_scope.graphs, "SingularDegreeError")


def test_the_readme_library_block_runs_on_public_names_alone(capsys):
    (block,) = re.findall(r"^## Library use\n\n```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    imported = [alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "spectral_scope" for alias in node.names]
    assert imported and sorted(set(imported) - set(spectral_scope.__all__)) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2  # the roots and the max error


def test_cli_chains_match_the_benchmark_reference_verdicts(tmp_path, capsys, monkeypatch):
    # every generate -> simulate -> estimate -> verify chain of the benchmark's
    # reference range runs through cli.main; the chains that do not exit 0 at
    # every step must be exactly those the reference lists, which this test
    # only reads. A verify that skipped or shortcut a check would flip some.
    program = benchmark_program(monkeypatch)
    reference = json.loads(CLI_REFERENCE.read_text())
    seeds = range(*reference["seeds"])
    failed = {kind: [] for kind in program.CHAIN_KINDS}
    start = time.perf_counter()
    with open(tmp_path / "chains.log", "w") as sink:
        for seed in seeds:
            for kind in program.CHAIN_KINDS:
                program.clear_chain_files(tmp_path)
                codes = program.run_chain(kind, seed, tmp_path, sink)
                assert set(codes) <= {0, 1}, (kind, seed, codes)
                if codes != (0, 0, 0, 0):
                    failed[kind].append(seed)
    elapsed = time.perf_counter() - start
    same = failed == reference["failed"]
    announce(
        capsys,
        f"[no drift] {len(seeds) * len(failed)} CLI chains, "
        f"{sum(map(len, failed.values()))} failing: verdicts "
        f"{'equal' if same else 'differ from'} perfbench/reference/cli_roundtrip.json "
        f"({elapsed:.2f}s) -> {'PASS' if same else 'FAIL'}",
    )
    assert same


def test_the_oracles_count_is_the_exact_count_on_the_benchmark_systems(tmp_path, capsys, monkeypatch):
    # the oracle counts the observable eigenvalue copies with eig, a clustering
    # and a PBH tolerance; Berlekamp-Massey over GF(p) counts them with none.
    # fig3 is counted on the network's M, c and x0, and a CT chain on M itself
    program = benchmark_program(monkeypatch)
    start = time.perf_counter()
    systems = []
    for name in ("fig1", "fig2", "fig3"):
        for seed in range(300):
            a = run_scenario(name, seed, keep_artifacts=True).artifacts
            systems.append((f"{name}:{seed}", a.matrix, a.setup.c, a.setup.x0))
    with contextlib.redirect_stdout(io.StringIO()):
        for seed in range(*json.loads(CLI_REFERENCE.read_text())["seeds"]):
            for kind in program.CHAIN_KINDS:
                for _, argv in program.chain_argv(kind, seed, tmp_path)[:2]:  # generate and simulate
                    assert main(argv) == 0, (kind, seed, argv[0])
                setup = json.loads((tmp_path / "y.setup.json").read_text())
                systems.append((f"{kind}:{seed}", read_matrix_csv(tmp_path / "matrix.csv"), setup["c"], setup["x0"]))
    differ = [key for key, M, c, x0 in systems
              if observable_partition(M, c, x0).m_tilde.sum() != exact_observable_count(M, c, x0)]
    elapsed = time.perf_counter() - start
    announce(
        capsys,
        f"[exact count] the oracle's observable count equals Berlekamp-Massey's on "
        f"{len(systems) - len(differ)} of {len(systems)} preset systems and reference chains "
        f"({elapsed:.2f}s) -> {'PASS' if not differ else 'FAIL'}",
    )
    assert differ == []
