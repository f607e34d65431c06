"""tools/same_outputs.py hashes what a command prints and writes, with its directory masked."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


class _Simulate:
    """A one-command workload: simulate a small oracle file, ``rows`` rows at the seed."""

    def __init__(self, rows):
        self.rows = rows

    def commands(self, seed, work):
        out = work / "scored.csv"
        argv = ("simulate", "--kind", "oracle", "--n", str(self.rows), "--seed", str(seed), "--out", str(out))
        return [SimpleNamespace(label="simulate", argv=argv, outputs=(out,))]


def test_same_command_in_fresh_directories_hashes_the_same():
    # the directory is new each run and is named in stdout, so only the mask makes these equal
    first = same_outputs.command_hashes(ROOT, _Simulate(50), 1)
    assert same_outputs.command_hashes(ROOT, _Simulate(50), 1) == first
    assert [label for label, _ in first] == ["simulate"]


def test_different_file_bytes_or_exit_code_change_the_hash():
    base = same_outputs.command_hashes(ROOT, _Simulate(50), 1)
    assert same_outputs.command_hashes(ROOT, _Simulate(50), 2) != base  # other file bytes
    assert same_outputs.command_hashes(ROOT, _Simulate(0), 1) != base  # exit 2, no file
