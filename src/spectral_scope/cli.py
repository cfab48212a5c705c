"""Command-line front end: generate -> simulate -> estimate -> verify.

Every stage reads and writes plain files (TSV edge lists, CSV matrices, JSON
sequence records and reports with a top-level ``"schema": 1``), so the pipeline
can be driven from a shell and scripted for batch runs. ``demo`` bundles the
three preset experiments end to end, ``bench`` sweeps seeds and reports a
success-rate table. ``--mode`` picks discrete (``dt``) or sampled continuous
(``ct``) time, which alone takes a ``--tau``; a node (``--node FILE`` or
``--node-d D``) makes ``simulate`` networked, and the sequence record holds
it, so ``estimate`` strips it with no flag.

Every setting is a flag; argparse rejects a missing required one or both of
``--node`` and ``--node-d``, and a negative seed flag, a ``--n`` or
``--node-d`` above ``MAX_DIMENSION``, or a ``--K`` above twice that, is a
usage error before any step runs.

Exit codes: 0 success, 1 estimation or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import (
    CT,
    DT,
    NodeDynamics,
    ObservationSetup,
    OutputSequence,
    SimulationOverflowError,
    random_setup,
    read_sequence,
    simulate_ct_networked,
    simulate_ct_sampled,
    simulate_dt,
    simulate_dt_networked,
    write_sequence,
    _matrix_for,
)
from .estimator import (
    DEFAULT_CLUSTER_TOL,
    EstimationError,
    SpectrumEstimate,
    estimate_spectrum,
)
from .graphs import (
    GraphMatrixKind,
    assign_uniform_weights,
    build_matrix,
    generate_preferential_attachment,
    generate_ring,
    read_matrix_csv,
    write_graph_tsv,
    write_matrix_csv,
    _csv_table,
    _json_object,
    _reading,
    _tolerance,
)
from .oracle import _expand_values, full_spectrum, match_spectra, observable_partition
from .scenarios import SCENARIOS, run_scenario, summarize, sweep

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Largest --n (graph nodes) or --node-d (agent dimension) a step accepts: the
# matrices are dense, and a 2048 x 2048 one takes 32 MB. simulate --K may be
# twice as large: the estimator never needs more than 2n samples.
MAX_DIMENSION = 2048


# =========================================================================
# Small helpers
# =========================================================================


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _parse_floats(text: str) -> np.ndarray:
    """A list flag's finite numbers: one line of a CSV table, where ``#`` starts no comment."""
    with contextlib.suppress(ValueError):
        if "#" not in text:
            return _csv_table([text])[0]
    raise SystemExit(_fail_usage(f"expected comma-separated finite numbers, got {text!r}"))


def _write_json(payload: dict, out: str | None) -> None:
    _write_text(json.dumps(payload) + "\n", out)


def _write_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_setup_json(path, setup: ObservationSetup, **extra) -> None:
    """The setup file ``verify`` reads: the realized x0 and c. The run's tau,
    seed and node are the sequence record's to hold."""
    _write_json({"schema": 1, "x0": setup.x0.tolist(), "c": setup.c.tolist(), **extra}, path)


def _load_node(args) -> NodeDynamics | None:
    """The node ``--node`` or ``--node-d`` gives, or None; ``ValueError`` for a file that holds none."""
    if args.node is not None:
        with _reading("node", args.node):
            return NodeDynamics.from_json_dict(json.loads(Path(args.node).read_text()))
    if args.node_d is not None:
        return NodeDynamics.random_symmetric(args.node_d, seed=args.node_seed)
    return None


# =========================================================================
# generate
# =========================================================================


def cmd_generate(args) -> int:
    try:  # the generators reject graph sizes and weight bounds they cannot build
        if args.model == "pa":
            g = generate_preferential_attachment(args.n, args.m, seed=args.seed)
        else:
            g = generate_ring(args.n, directed=args.directed)
        if args.weights:
            bounds = _parse_floats(args.weights)
            if bounds.size != 2:
                return _fail_usage("--weights expects LO,HI")
            g = assign_uniform_weights(g, float(bounds[0]), float(bounds[1]), seed=args.seed)
        M = build_matrix(g, args.kind)
    except ValueError as exc:
        return _fail_usage(str(exc))
    write_graph_tsv(g, args.graph_out)
    write_matrix_csv(M, args.matrix_out)
    print(
        f"n={g.n} edges={g.num_edges} directed={int(g.directed)} kind={args.kind} "
        f"-> {args.graph_out} {args.matrix_out}"
    )
    return EXIT_OK


# =========================================================================
# simulate
# =========================================================================


def _build_setup(args, n: int) -> ObservationSetup:
    observed = None
    if args.observe is not None:
        try:  # integers, which must be numbers to the list flags' rule
            _csv_table([args.observe])
            observed = [int(v) for v in args.observe.split(",")]
        except ValueError:
            raise SystemExit(_fail_usage(
                f"--observe expects comma-separated node indices, got {args.observe!r}"
            )) from None
    weights = None if args.observe_weights is None else _parse_floats(args.observe_weights)
    setup = random_setup(n, seed=args.seed, observed=observed, observe_weights=weights)
    if args.x0 is None:
        return setup
    x0 = _parse_floats(args.x0)
    if x0.size != n:
        raise SystemExit(_fail_usage(f"--x0 has {x0.size} entries, matrix is {n}x{n}"))
    return ObservationSetup(x0=x0, c=setup.c)


def cmd_simulate(args) -> int:
    if args.node_seed is not None and args.node_d is None:
        return _fail_usage("--node-seed needs --node-d")
    if args.tau is not None and args.mode == DT:
        return _fail_usage("--tau needs --mode ct")
    if args.node_d is not None and args.node_d < 1:
        return _fail_usage(f"--node-d must be >= 1, got {args.node_d}")
    try:
        M = read_matrix_csv(args.matrix)
    except (OSError, ValueError) as exc:
        return _fail_usage(str(exc))
    n = M.shape[0]
    K = args.K if args.K is not None else 2 * n
    try:
        node = _load_node(args)  # a node makes the run networked
        setup = _build_setup(args, n)
        if node is None and args.mode == DT:
            seq = simulate_dt(M, setup, K=K)
        elif node is None:
            seq = simulate_ct_sampled(M, setup, tau=args.tau, K=K)
        elif args.mode == DT:
            seq = simulate_dt_networked(M, node, setup, K=K)
        else:
            seq = simulate_ct_networked(M, node, setup, tau=args.tau, K=K)
    except SimulationOverflowError as exc:
        if exc.partial.size:
            partial = OutputSequence(exc.partial, tau=args.tau, node=node)
            write_sequence(partial, args.out, seed=args.seed)
            print(f"overflow at sample {exc.index}; partial sequence written", file=sys.stderr)
        else:
            print(f"overflow at sample {exc.index}; nothing recorded", file=sys.stderr)
        return EXIT_FAIL
    except OverflowError as exc:  # the matrix exponential, before any sample
        print(f"overflow: {exc}; nothing recorded", file=sys.stderr)
        return EXIT_FAIL
    except (OSError, ValueError) as exc:  # bad input, such as a malformed node file
        return _fail_usage(str(exc))
    write_sequence(seq, args.out, seed=args.seed)
    setup_path = Path(args.out).with_suffix(".setup.json")
    _write_setup_json(setup_path, setup)
    print(f"{len(seq.values)} samples -> {args.out} ({setup_path.name})")
    return EXIT_OK


# =========================================================================
# estimate
# =========================================================================


def cmd_estimate(args) -> int:
    try:
        y = read_sequence(args.y)
    except (OSError, ValueError) as exc:
        return _fail_usage(f"cannot read sequence: {exc}")
    try:
        est = estimate_spectrum(y, rank_tolerance=args.rank_tolerance, cluster_tol=args.cluster_tol)
    except (EstimationError, OverflowError) as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:  # bad input, such as a negative tolerance
        return _fail_usage(str(exc))
    _write_json(est.to_json_dict(), args.out)
    return EXIT_OK


# =========================================================================
# verify
# =========================================================================


def cmd_verify(args) -> int:
    try:
        M = read_matrix_csv(args.matrix)
        n = M.shape[0]
        # every eigenvalue is at most n max|M_ij| in modulus; the oracle adds
        # up to n of them, subtracts them and forms M - lambda I, and all of
        # it must stay finite
        limit = np.finfo(float).max / (4 * n * n)
        with _reading("matrix", args.matrix):
            if np.max(np.abs(M)) > limit:
                raise ValueError(f"has an entry above {limit:.3g}, the most verify takes at n = {n}")
        with _reading("estimate", args.estimate):
            roots = SpectrumEstimate.from_json_dict(json.loads(Path(args.estimate).read_text())).roots
            # an n x n matrix has n eigenvalues, so no root can repeat more often
            for k, (_, m) in enumerate(roots):
                if m > n:
                    raise ValueError(f"root {k} has multiplicity {m}, not 1 to {n}")
        with _reading("setup", args.setup):  # x0 and c, as the observation of M they must be
            setup = _json_object(json.loads(Path(args.setup).read_text()), ("x0", "c"))
            observation = ObservationSetup(x0=setup["x0"], c=setup["c"])
            _matrix_for(M, observation)
    except (OSError, ValueError) as exc:
        return _fail_usage(f"cannot read inputs: {exc}")
    try:
        tol = _tolerance(args.tol if args.tol is not None else setup.get("tol", 1e-6), "tolerance")
    except ValueError as exc:
        return _fail_usage(str(exc))
    truth = full_spectrum(M)
    report = match_spectra(roots, truth, tol)

    # The estimator is allowed to miss exactly the modes that never reach the
    # output; everything else must match within tolerance, and every estimated
    # root must match a true eigenvalue. Only an unmatched true eigenvalue
    # needs the oracle's verdict, so it runs only then.
    unexplained = []
    if report.unmatched_true:
        try:
            missing = observable_partition(M, observation.c, observation.x0).missing
        except OverflowError as exc:  # x0 and c too large to weigh the modes
            return _fail_usage(f"cannot check observability with setup {args.setup}: {exc}")
        for v in report.unmatched_true:
            if missing.size == 0 or np.min(np.abs(missing - v)) > tol:
                unexplained.append(v)
    ok = not unexplained and not report.unmatched_estimated

    payload = report.to_json_dict()
    payload.update(
        {
            "tol": tol,
            "pass": bool(ok),
            "unexplained_true": [{"re": v.real, "im": v.imag} for v in unexplained],
        }
    )
    _write_json(payload, args.out)
    return EXIT_OK if ok else EXIT_FAIL


# =========================================================================
# demo
# =========================================================================


def _write_eigenvalue_csv(path, truth, estimate) -> None:
    lines = ["re,im,source"]
    for v in np.sort_complex(np.asarray(truth)):
        lines.append(f"{v.real:.17g},{v.imag:.17g},true")
    if estimate is not None:
        for v in np.sort_complex(_expand_values(estimate.roots)):
            lines.append(f"{v.real:.17g},{v.imag:.17g},estimated")
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_demo(args) -> int:
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # such as an existing file of that name
        return _fail_usage(f"cannot create --outdir: {exc}")
    result = run_scenario(args.name, seed=args.seed, keep_artifacts=True)
    art = result.artifacts

    write_graph_tsv(art.graph, outdir / "graph.tsv")
    write_matrix_csv(art.matrix, outdir / "matrix.csv")
    _write_setup_json(outdir / "setup.json", art.setup, scenario=result.name, tol=result.tol)
    if art.sequence is not None:
        write_sequence(art.sequence, outdir / "output.json", seed=args.seed)
    if result.estimate is not None:
        _write_json(result.estimate.to_json_dict(), outdir / "spectrum.json")
    match_payload = result.report.to_json_dict() if result.report else {"schema": 1}
    match_payload.update(
        {
            "scenario": result.name,
            "seed": result.seed,
            "tol": result.tol,
            "pass": bool(result.ok),
            "overflow": bool(result.overflow),
        }
    )
    _write_json(match_payload, outdir / "match.json")
    if result.truth is not None:
        _write_eigenvalue_csv(outdir / "eigenvalues.csv", result.truth, result.estimate)

    verdict = "PASS" if result.ok else "FAIL"
    detail = "overflow truncated the run" if result.overflow else f"max matched error {result.max_error:.3e}"
    print(f"{args.name} seed {args.seed}: {verdict} ({detail}, tol {result.tol:.1e}) -> {outdir}/")
    return EXIT_OK if result.ok else EXIT_FAIL


# =========================================================================
# bench
# =========================================================================


def cmd_bench(args) -> int:
    if args.seeds < 1:
        return _fail_usage(f"--seeds must be >= 1, got {args.seeds}")
    names = list(SCENARIOS) if args.name == "all" else [args.name]
    summaries = [summarize(sweep(name, seeds=args.seeds, seed0=args.seed0)) for name in names]
    if args.json:
        payload = {"schema": 1, "sweeps": summaries}
        # perfbench/reference/bench_all_300.json pins these bytes; compact with its re-record (ROADMAP item 1)
        _write_text(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        print(f"{'scenario':<10}{'seeds':>6}{'passes':>8}{'rate':>8}"
              f"{'max err (pass)':>16}{'overflow':>10}")
        for s in summaries:
            print(f"{s['scenario']:<10}{s['seeds']:>6}{s['passes']:>8}{s['pass_rate']:>8.2f}"
                  f"{s['max_error_passing']:>16.3e}{len(s['overflow_seeds']):>10}")
            if s["overflow_seeds"]:
                print(f"  overflow seeds: {s['overflow_seeds']}")
    return EXIT_OK


# =========================================================================
# Parser
# =========================================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-scope",
        description="Recover a network's observable eigenvalue spectrum from scalar outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a graph and write its edge list and matrix")
    p.add_argument("--model", choices=("pa", "ring"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=2, help="attachments per node (pa model)")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--weights", default=None, help="LO,HI for uniform edge weights")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--kind", default="adjacency",
                   choices=[k.value for k in GraphMatrixKind])
    p.add_argument("--graph-out", default="graph.tsv")
    p.add_argument("--matrix-out", default="matrix.csv")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="roll a system forward and record its output")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mode", choices=(DT, CT), default=DT,
                   help="discrete or sampled continuous time; --node or --node-d makes it networked")
    p.add_argument("--tau", type=float, default=None, help="sampling period (--mode ct only)")
    p.add_argument("--K", type=int, default=None, help="samples (default 2n)")
    p.add_argument("--observe", default=None, help="observed node index or comma list of distinct ones")
    p.add_argument("--observe-weights", default=None, help="weights for the observed nodes")
    p.add_argument("--x0", default=None, help="explicit initial state, comma-separated")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="output.json")
    node = p.add_mutually_exclusive_group()
    node.add_argument("--node", default=None, help="JSON file with node dynamics {A, beta, gamma}")
    node.add_argument("--node-d", type=int, default=None,
                      help="generate a random symmetric d-dimensional node instead")
    p.add_argument("--node-seed", type=int, default=None, help="seed for --node-d")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="recover a spectrum from a recorded sequence")
    p.add_argument("--y", required=True,
                   help="sequence record (JSON, with the node of a networked run)")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.add_argument("--rank-tolerance", type=float, default=None,
                   help="relative singular-value threshold for rank detection")
    p.add_argument("--cluster-tol", type=float, default=DEFAULT_CLUSTER_TOL,
                   help="relative distance merging nearby roots")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("verify", help="match an estimate against the true spectrum")
    p.add_argument("--matrix", required=True)
    p.add_argument("--estimate", required=True, help="spectrum JSON from the estimate step")
    p.add_argument("--setup", required=True, help="JSON with x0 and c (demo writes setup.json)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="run a preset experiment end to end")
    p.add_argument("name", choices=SCENARIOS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", default="demo-out")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("bench", help="sweep seeds and report success rates")
    p.add_argument("name", choices=SCENARIOS + ("all",))
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--seed0", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


_LIST_FLAGS = ("--weights", "--observe-weights", "--x0")


def _fuse_negative_values(argv: list[str]) -> list[str]:
    # argparse reads "-1,1" as an option name; glue list values onto their flag
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _LIST_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built once per process; parsing never changes it
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = _shared_parser()
    head = argv[0] if argv else ""
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if head in commands:
        # the top level hands every argument after the command to that
        # command's parser and rejects what it leaves; calling the command's
        # parser directly does the same with one parse instead of two
        args, extras = commands[head].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = head
        return args
    # the top level takes no option but --help; argparse would read the value
    # after a stray one (--config c.json) as an invalid subcommand instead
    if head.startswith("-") and head.strip("-") and head != "-h" and not "--help".startswith(head):
        parser.error(f"unrecognized arguments: {head}")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(_fuse_negative_values(list(sys.argv[1:] if argv is None else argv)))
    # numpy rejects a negative seed without naming the flag, and a step that
    # never draws (a ring without --weights) would not reject it at all
    for dest in ("seed", "seed0", "node_seed"):
        seed = getattr(args, dest, None)
        if seed is not None and seed < 0:
            return _fail_usage(f"--{dest.replace('_', '-')} must be >= 0, got {seed}")
    for dest, limit in (("n", MAX_DIMENSION), ("node_d", MAX_DIMENSION), ("K", 2 * MAX_DIMENSION)):
        size = getattr(args, dest, None)
        if size is not None and size > limit:
            return _fail_usage(f"--{dest.replace('_', '-')} must be <= {limit}, got {size}")
    try:
        return args.func(args)
    except OSError as exc:  # each step reports its own read errors, so this is a write
        return _fail_usage(f"cannot write output: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
