"""The benchmark's calls into spectral_scope: presets, CLI chains and spans.

``run.py`` puts the checkout's ``src`` on ``sys.path`` before importing this
module. Untraced runs call the program exactly as a user does:
``scenarios.run_scenario`` for a preset seed, ``cli.main`` for each step of a
CLI chain. Traced runs make the same calls inside ``traced``, which wraps the
layers' public functions in the namespaces the program calls them through
(``scenarios``, ``cli``, ``estimator``), so that each call opens a span under
the seed's root span (and, for a chain, under its ``cli.<step>`` span).
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from spectral_scope import cli, estimator, scenarios
from spectral_scope.dynamics import NodeDynamics
from spectral_scope.estimator import SpectrumEstimate
from spectral_scope.graphs import read_matrix_csv
from spectral_scope.oracle import observable_partition
from spectral_scope.scenarios import run_scenario

# Span names. A layer's self time is its spans' time minus their child spans;
# the root span of each seed keeps what no layer covers (trace.unaccounted_ms).
ROOT_SPAN = "seed"
LAYERS = (
    "graphs",
    "dynamics",
    "estimator.deconvolve",
    "estimator.hankel",
    "estimator.solve",
    "estimator.roots",
    "oracle.spectrum",
    "oracle.match",
    "oracle.partition",
    "cli.generate",
    "cli.simulate",
    "cli.estimate",
    "cli.verify",
)

_GRAPHS = dict.fromkeys(("generate_preferential_attachment", "generate_ring",
                         "assign_uniform_weights", "build_matrix"), "graphs")
_DYNAMICS = dict.fromkeys(("random_setup", "simulate_dt", "simulate_ct_sampled",
                           "simulate_dt_networked"), "dynamics")
_ORACLE = {"full_spectrum": "oracle.spectrum", "match_spectra": "oracle.match"}

# The layer functions each namespace calls, and the layer each call is timed
# in. A name missing from its namespace is an error, so that a layer cannot
# lose its spans and silently read zero.
WRAPPED = {
    scenarios: {**_GRAPHS, **_DYNAMICS, **_ORACLE},
    cli: {**_GRAPHS, **_DYNAMICS, **_ORACLE, "simulate_ct_networked": "dynamics",
          "observable_partition": "oracle.partition"},
    estimator: {
        "build_hankel": "estimator.hankel",
        "solve_coefficients": "estimator.solve",
        "roots_with_multiplicity": "estimator.roots",
        "nu_sequence": "estimator.deconvolve",
        "deconvolve_sigma": "estimator.deconvolve",
    },
    NodeDynamics: {"random_symmetric": "dynamics"},
}


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index, seed id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.seed_id = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, parent, self.seed_id])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter_ns()

    def self_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """Total self time (ns) and call count per span name."""
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for name, start, end, _, _ in self.spans:
            self_ns[name] = self_ns.get(name, 0) + end - start
            calls[name] = calls.get(name, 0) + 1
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                pname = self.spans[parent][0]
                self_ns[pname] -= end - start
        return self_ns, calls


@dataclass
class Outcome:
    """What one preset seed or CLI chain produced, as the checks need it."""

    ok: bool
    error_over_tol: float
    roots: list | None = None
    rank: int | None = None
    system: tuple | None = None  # (matrix, c, x0) for the observability oracle
    codes: tuple = ()
    spectrum_text: str | None = None


def output_key(o: Outcome) -> tuple:
    """What a traced run must reproduce bit for bit: the roots as exact bit
    patterns, a chain's exit codes and its spectrum.json."""
    roots = None
    if o.roots is not None:
        roots = [(complex(v).real.hex(), complex(v).imag.hex(), int(m)) for v, m in o.roots]
    return roots, o.codes, o.spectrum_text


def scenario_outcome(r) -> Outcome:
    """Outcome of a ``ScenarioResult``; rank and system when it kept its artifacts."""
    a = r.artifacts
    return Outcome(
        ok=bool(r.ok),
        error_over_tol=r.max_error / r.tol,
        roots=r.estimate.roots if r.estimate is not None else None,
        rank=r.estimate.rank if r.estimate is not None else None,
        system=(a.matrix, a.setup.c, a.setup.x0) if a is not None else None,
    )


# =========================================================================
# Tracing
# =========================================================================


@contextlib.contextmanager
def traced(t: Tracer):
    """Wrap every function in ``WRAPPED`` in a span of its layer for the
    duration of the block; the originals are restored on exit."""
    saved = []

    def wrap(layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with t.span(layer):
                return fn(*args, **kwargs)
        return wrapper

    try:
        for owner, names in WRAPPED.items():
            for name, layer in names.items():
                saved.append((owner, name, vars(owner)[name]))
                wrapper = wrap(layer, getattr(owner, name))
                setattr(owner, name, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def traced_preset(t: Tracer, name: str, seed: int) -> Outcome:
    """One ``run_scenario`` call inside a root span, its layers traced."""
    t.seed_id = f"{name}:{seed}"
    with traced(t), t.span(ROOT_SPAN):
        r = run_scenario(name, seed, keep_artifacts=True)
    return scenario_outcome(r)


def traced_chain(t: Tracer, kind: str, seed: int, workdir: Path, sink) -> Outcome:
    """One CLI chain inside a root span, its steps and layers traced."""
    clear_chain_files(workdir)
    t.seed_id = f"{kind}:{seed}"
    with traced(t), t.span(ROOT_SPAN):
        codes = run_chain(kind, seed, workdir, sink, t)
    return chain_outcome(codes, workdir)


def observable_count(system) -> int:
    """The oracle's count of eigenvalue copies the output can reach."""
    M, c, x0 = system
    return sum(m for _, m in observable_partition(M, c, x0).observable)


# =========================================================================
# CLI chains
# =========================================================================

CHAIN_KINDS = ("dt", "ct")
CHAIN_FILES = ("graph.tsv", "matrix.csv", "y.csv", "y.json", "y.setup.json",
               "spectrum.json", "match.json")


def chain_argv(kind: str, seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
    """The README quick-start chain: a DT preferential-attachment graph or a
    CT directed ring, default ``--prescale auto``, tight rank threshold."""
    p = {f: str(workdir / f) for f in CHAIN_FILES}
    s = str(seed)
    if kind == "dt":
        gen = ["--model", "pa", "--n", "10", "--m", "2"]
        sim = ["--mode", "dt"]
        tol = "1e-6"
    else:
        gen = ["--model", "ring", "--n", "8", "--directed"]
        sim = ["--mode", "ct", "--tau", "1.0", "--K", "16"]
        tol = "1e-3"
    return [
        ("generate", ["generate", *gen, "--weights", "-1,1", "--seed", s,
                      "--graph-out", p["graph.tsv"], "--matrix-out", p["matrix.csv"]]),
        ("simulate", ["simulate", "--matrix", p["matrix.csv"], *sim, "--seed", s,
                      "--out", p["y.csv"]]),
        ("estimate", ["estimate", "--y", p["y.csv"], "--rank-tolerance", "1e-14",
                      "--out", p["spectrum.json"]]),
        ("verify", ["verify", "--matrix", p["matrix.csv"], "--estimate", p["spectrum.json"],
                    "--setup", p["y.setup.json"], "--tol", tol, "--out", p["match.json"]]),
    ]


def clear_chain_files(workdir: Path) -> None:
    for f in CHAIN_FILES:
        (workdir / f).unlink(missing_ok=True)


def _cli_main(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def run_chain(kind: str, seed: int, workdir: Path, sink, t: Tracer | None = None) -> tuple:
    """Run the chain's steps through ``cli.main``, stopping at the first
    nonzero exit. Returns the exit codes."""
    codes = []
    for step, argv in chain_argv(kind, seed, workdir):
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if t is None:
                code = _cli_main(argv)
            else:
                with t.span(f"cli.{step}"):
                    code = _cli_main(argv)
        codes.append(code)
        if code != 0:
            break
    return tuple(codes)


def chain_outcome(codes: tuple, workdir: Path) -> Outcome:
    """Read back what a finished chain wrote."""
    spectrum_text = None
    if len(codes) >= 3 and codes[2] == 0:
        spectrum_text = (workdir / "spectrum.json").read_text()
    ok = codes == (0, 0, 0, 0)
    error_over_tol = float("inf")
    if ok:
        match = json.loads((workdir / "match.json").read_text())
        error_over_tol = match["max_error"] / match["tol"]
    return Outcome(ok=ok, error_over_tol=error_over_tol, codes=codes,
                   spectrum_text=spectrum_text)


def spectrum_round_trips(text: str) -> bool:
    """``spectrum.json`` survives ``SpectrumEstimate.from_json_dict`` unchanged."""
    d = json.loads(text)
    back = SpectrumEstimate.from_json_dict(d).to_json_dict()
    return json.dumps(back, sort_keys=True) == json.dumps(d, sort_keys=True)


def chain_rank_hit(workdir: Path) -> bool:
    """Detected rank in spectrum.json equals the oracle's observable count."""
    rank = json.loads((workdir / "spectrum.json").read_text())["rank"]
    setup = json.loads((workdir / "y.setup.json").read_text())
    M = read_matrix_csv(workdir / "matrix.csv")
    return rank == observable_count((M, np.asarray(setup["c"]), np.asarray(setup["x0"])))


# =========================================================================
# Warm-up (also the body of each fresh-interpreter set-up sample)
# =========================================================================


def warm_up(workload: str, item, workdir: str) -> None:
    """Run one operation of ``workload`` outside the timed range."""
    if workload == "cli-roundtrip":
        kind, seed = item
        with open(Path(workdir) / "warmup.log", "w") as sink:
            run_chain(kind, seed, Path(workdir), sink)
    else:
        run_scenario(workload.split("-")[0], item)
