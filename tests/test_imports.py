"""Which runs load scipy: only sampled continuous time does, for ``expm``.

Discrete-time runs load no scipy module at all, and no run loads
``scipy.optimize``: spectrum matching needs no solver from it, also where
no unique nearest-neighbour pairing exists. A fresh
interpreter is the only clean slate for ``sys.modules``; pytest and
hypothesis may already have imported scipy in the test process.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import spectral_scope

SRC = Path(spectral_scope.__file__).resolve().parents[1]

GUARD = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    import numpy as np

    import spectral_scope
    from spectral_scope import ObservationSetup, cli, match_spectra, simulate_ct_sampled
    from spectral_scope.scenarios import run_scenario


    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


    assert run_scenario("fig1", 0).ok
    assert run_scenario("fig3", 0).ok
    p = {f: str(Path(sys.argv[1]) / f) for f in ("g.tsv", "m.csv", "y.json", "s.json", "v.json")}
    chain = [
        ["generate", "--model", "pa", "--n", "10", "--m", "2", "--weights", "-1,1",
         "--seed", "0", "--graph-out", p["g.tsv"], "--matrix-out", p["m.csv"]],
        ["simulate", "--matrix", p["m.csv"], "--mode", "dt", "--seed", "0", "--out", p["y.json"]],
        ["estimate", "--y", p["y.json"], "--rank-tolerance", "1e-14", "--out", p["s.json"]],
        ["verify", "--matrix", p["m.csv"], "--estimate", p["s.json"],
         "--setup", str(Path(sys.argv[1]) / "y.setup.json"), "--tol", "1e-6", "--out", p["v.json"]],
    ]
    assert [cli.main(argv) for argv in chain] == [0, 0, 0, 0]
    assert scipy_modules() == [], scipy_modules()[:3]

    rng = np.random.default_rng(5)
    G = rng.uniform(-1.0, 1.0, (6, 6))
    x0, c = rng.uniform(-1.0, 1.0, 6), rng.uniform(-1.0, 1.0, 6)
    y = simulate_ct_sampled(G, ObservationSetup(x0=x0, c=c), tau=0.3, K=12)
    assert "scipy.linalg" in sys.modules

    import scipy.linalg

    P = scipy.linalg.expm(G * 0.3).astype(np.longdouble)
    x, want = x0.astype(np.longdouble), []
    for _ in range(12):
        want.append(c @ x)
        x = P @ x
    assert y.values.tobytes() == np.array(want, dtype=float).tobytes()

    # fig2 seed 46 matches 7 estimates against 8 eigenvalues with no unique
    # nearest-neighbour pairing; the tied rows below have none either
    assert run_scenario("fig2", 46).report is not None
    report = match_spectra([1.0, 1.0, 2.0], [1.0, 1.0 + 1e-9, 3.0], tol=1e-6)
    assert len(report.pairs) == 2 and report.unmatched_estimated == [2.0]
    assert "scipy.optimize" not in sys.modules, scipy_modules()
    """
)


def test_discrete_time_runs_never_import_scipy(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", GUARD, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
