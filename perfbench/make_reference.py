"""Record the reference verdicts that check (a) of run.py compares against.

    python3 perfbench/make_reference.py     # write perfbench/reference/

``bench_all_300.json`` is the output of ``spectral-scope bench all --seeds 300
--json``; ``cli_roundtrip.json`` lists the CLI chains over seeds 0-149 that do
not finish with every step exiting 0. Re-record only at a commit whose
verdicts are meant to become the new reference. ``selftest.py`` (without
``--quick``) checks that the stored files equal a fresh recording.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import run

CLI_SEEDS = (0, 150)


def record() -> dict[str, str]:
    """The reference files' contents, keyed by file name."""
    program = run.load_program()
    out = io.StringIO()
    with redirect_stdout(out):
        code = program.cli.main(["bench", "all", "--seeds", "300", "--json"])
    if code != 0:
        raise RuntimeError(f"bench all exited {code}")

    workdir = run.WORK_DIR / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    failed: dict[str, list[int]] = {kind: [] for kind in program.CHAIN_KINDS}
    try:
        with open(workdir / "log", "w") as sink:
            for seed in range(*CLI_SEEDS):
                for kind in program.CHAIN_KINDS:
                    program.clear_chain_files(workdir)
                    if program.run_chain(kind, seed, workdir, sink) != (0, 0, 0, 0):
                        failed[kind].append(seed)
    finally:
        run.remove_workdir(workdir)
    cli_ref = {"schema": 1, "seeds": list(CLI_SEEDS), "failed": failed}
    return {
        "bench_all_300.json": out.getvalue(),
        "cli_roundtrip.json": json.dumps(cli_ref, indent=2) + "\n",
    }


def main() -> None:
    for name, text in record().items():
        path = run.REFERENCE_DIR / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)


if __name__ == "__main__":
    main()
