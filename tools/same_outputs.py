"""Check that two source trees give the same bytes on every benchmark workload command.

    python tools/same_outputs.py PARENT_TREE CHANGE_TREE --seeds 1 2 7

For each seed and each workload of ``perfbench/workloads.py`` (the copy next to
this script, imported without writing to it), every command runs in each tree
as ``python -m probcal.cli ...`` with ``PYTHONPATH=<tree>/src``, one process at
a time, in a fresh directory per tree, seed and workload. A command's hash
covers its exit code, its stdout and stderr (the directory and the tree path
masked) and the bytes of each file it writes. Each command whose hash differs
between the trees is printed; the exit code is 1 if any differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def command_hashes(tree: Path, workload, seed: int) -> list[tuple[str, str]]:
    """(label, SHA-256) of each command of ``workload`` at ``seed``, run in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    hashes = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for cmd in workload.commands(seed, work):
            proc = subprocess.run(
                [sys.executable, "-m", "probcal.cli", *cmd.argv], env=env, cwd=work, capture_output=True
            )
            digest = hashlib.sha256(f"exit {proc.returncode}\n".encode())
            for stream in (proc.stdout, proc.stderr):
                masked = stream.replace(str(work).encode(), b"<work>").replace(str(tree).encode(), b"<tree>")
                digest.update(b"%d\n%s" % (len(masked), masked))
            for path in cmd.outputs:
                data = path.read_bytes() if path.exists() else b"<missing>"
                digest.update(b"%s %d\n%s" % (path.name.encode(), len(data), data))
            hashes.append((cmd.label, digest.hexdigest()))
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against (holds src/probcal)")
    parser.add_argument("change", type=Path, help="the tree under test (holds src/probcal)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2], help="workload seeds (default: 1 2)")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS
    trees = [args.parent.resolve(), args.change.resolve()]
    total = differing = 0
    for seed in args.seeds:
        for name, workload in WORKLOADS.items():
            parent, change = (command_hashes(tree, workload, seed) for tree in trees)
            for (label, before), (_, after) in zip(parent, change):
                total += 1
                if before != after:
                    differing += 1
                    print(f"differs: {name} seed {seed} {label}")
    print(f"{total} commands, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
