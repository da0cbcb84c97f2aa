"""Exit code and sha256 of every output file of a fixed set of CLI runs.

Runs, in a temporary directory, the eight commands of README's "Command
line" section, ``mollify-report`` on a 256x513 grid and ``pressure-solve``
with the Weierstrass flow, using the ``holderlab`` that ``python -m``
finds (set ``PYTHONPATH`` to choose a source tree).  For each command it
prints the exit code, then ``sha256  path`` for every file the command
wrote.  Nothing printed depends on the time or on the temporary path, so
two source trees produce the same byte output exactly when their CLI
outputs and exit codes agree:

    PYTHONPATH=src python tools/output_digests.py > after.txt
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    "weierstrass-scan --alpha 0.5 --n-terms-list 4,8,12 --out runs/scan",
    "trace-blowup --alpha 0.25 --n-max 30 --theta mean-one --out runs/tb",
    "trace-blowup --mode interior --j 1 --m 1 --alpha 0.25 --out runs/int",
    "geometry-verify --patch paraboloid --out runs/geom",
    "mollify-report --alpha 0.5 --epsilons 0.1,0.05,0.025 --out runs/mol",
    "pressure-solve --flow single-mode --grids 64,128,256 --out runs/ps",
    "schauder-check --seeds 0,1,2,3,4 --resolutions 64,128,256 --out runs/sch",
    "all-acceptance --out runs/acc",
    "mollify-report --nx 256 --ny 513 --out runs/mol256",
    "pressure-solve --flow weierstrass --grids 64,128 --out runs/psw",
)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            args = command.split()
            code = subprocess.run([sys.executable, "-m", "holderlab.cli", *args], cwd=tmp,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
            print(f"exit {code}  holderlab {command}")
            out = Path(tmp, args[args.index("--out") + 1])
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(tmp).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
