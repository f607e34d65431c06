"""Pinned outputs: one SHA-256 per command of a small command list, in ``golden_outputs.json``.

A command's hash covers its exit code, its stdout with the working directory masked,
and the bytes of each file it writes. The list runs in order in one directory, in
process through ``main``, and again in a subprocess with numpy's AVX-512 loops
switched off, so a byte that depends on numpy's SIMD target shows here. ``fit
--method dpm`` is not on the list, because its bytes do depend on that target.

A change that moves bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py --write

and names each command that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from probcal.cli import METHODS, main

PINNED = Path(__file__).with_name("golden_outputs.json")
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# (label, argv, files written); "{w}" stands for the working directory
COMMANDS = (
    ("simulate:oracle", "simulate --kind oracle --curve square --n 1000 --seed 3 --out {w}/scored.csv",
     ("scored.csv",)),
    ("simulate:xor", "simulate --kind xor --n 1000 --seed 3 --noise-sd 0.2 --out {w}/xor.csv", ("xor.csv",)),
    *(
        entry
        for method in METHODS
        if method != "dpm"
        for entry in (
            (f"fit:{method}", f"fit --method {method} --in {{w}}/scored.csv --out {{w}}/{method}.json",
             (f"{method}.json",)),
            (f"apply:{method}", f"apply --model {{w}}/{method}.json --in {{w}}/scored.csv --out {{w}}/{method}.csv",
             (f"{method}.csv",)),
        )
    ),
    ("eval", "eval --in {w}/scored.csv --model {w}/kde.json --out {w}/eval.csv --reliability-out {w}/bins.csv",
     ("eval.csv", "bins.csv")),
    *(
        (f"verify:{check}",
         f"verify {check} {flags} --seed 1 --csv-out {{w}}/{check}.csv --json-out {{w}}/{check}.json",
         (f"{check}.csv", f"{check}.json"))
        for check, flags in (
            ("mce-bound", "--n 200 --bins 5 --trials 3 --test-size 2000"),
            ("ece-rate", "--n-grid 100,10000 --bins 5 --trials 2"),
            ("auc-loss", "--n 2500 --bin-grid 5,10 --trials 2"),
            ("theta-conc", "--n 1000 --bins 5 --trials 5"),
            ("size-sweep", "--sizes 100,1000 --trials 2 --test-size 5000"),
        )
    ),
)


def command_hashes() -> dict:
    """Each command's label and SHA-256, run in order in a fresh directory through ``main``."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, argv, outputs in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv.format(w=work).split())
            stdout = out.getvalue().replace(str(work), "<work>").encode()
            digest = hashlib.sha256(b"exit %d\n%d\n%s" % (code, len(stdout), stdout))
            for name in outputs:
                data = (work / name).read_bytes() if (work / name).exists() else b"<missing>"
                digest.update(b"%s %d\n%s" % (name.encode(), len(data), data))
            hashes[label] = digest.hexdigest()
    return hashes


def _check(hashes: dict) -> None:
    """Fail naming each command whose hash differs from the pinned one, and both numpy versions."""
    pinned = json.loads(PINNED.read_text())
    changed = sorted(label for label in pinned["commands"].keys() | hashes.keys()
                     if pinned["commands"].get(label) != hashes.get(label))
    assert not changed, (
        f"output bytes changed: {', '.join(changed)} "
        f"(pinned with numpy {pinned['numpy']}; this is numpy {np.__version__})"
    )


def test_commands_write_the_pinned_bytes():
    _check(command_hashes())


def test_commands_write_the_pinned_bytes_without_avx512():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **NO_AVX512, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, check=True)
    _check(json.loads(proc.stdout))


if __name__ == "__main__":
    hashes = command_hashes()
    if sys.argv[1:] == ["--write"]:
        PINNED.write_text(json.dumps({"numpy": np.__version__, "commands": hashes}, indent=2) + "\n")
    else:
        print(json.dumps(hashes))
