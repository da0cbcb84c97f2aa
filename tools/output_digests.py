"""Exit code and sha256 of every output file of a fixed set of CLI runs.

Runs, in a temporary directory, the eight commands of README's "Command
line" section, ``mollify-report`` on 256x513 and 512x1025 grids,
``pressure-solve`` with the Weierstrass flow up to a 512x513 grid and
``schauder-check`` up to a 1024x513 grid (the last three at least 2^18
nodes, so the block runner's parallel path and the multi-worker x-FFTs
run), and ``schauder-check`` at alpha 0.25 from the coarsest admissible
grid, 32x17, to 512x257, whose stacked samples and scans are split into
pieces.  The product-sum kernel weighs grid nodes times products, so the
small runs cover both sides of its piece count too: ``weierstrass-scan``
samples its 256x257 velocity in pieces, and ``mollify-report`` on 64x129
samples its velocity in pieces but adds the 31 taps of epsilon 0.05 in
one.  It uses the ``holderlab`` that ``python -m`` finds (set
``PYTHONPATH`` to choose a source tree).  For each command it prints the
exit code, then ``sha256  path`` for every file the command wrote.
Nothing printed depends on the time or on the temporary path, so two
source trees produce the same byte output exactly when their CLI outputs
and exit codes agree:

    PYTHONPATH=src python tools/output_digests.py > after.txt

With ``--cpus N`` every command runs on the first N CPUs of the
process's affinity mask: the script pins itself with
``os.sched_setaffinity`` before it starts any child, so each child's
``holderlab`` reads the narrowed mask when it is imported.  Outputs must
not depend on the core count, so a run at ``--cpus 1`` prints the same
bytes as a run at the whole mask:

    PYTHONPATH=src python tools/output_digests.py --cpus 1 > one_cpu.txt

When ``python -m holderlab.cli --version`` fails under the same
environment, no ``holderlab`` is importable: it prints no digests, says so
on stderr and exits with code 2.  A ``--cpus`` outside 1 to the size of
the mask also exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import os
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
    "mollify-report --nx 512 --ny 1025 --epsilons 0.02,0.01,0.005 --out runs/mol512",
    "pressure-solve --flow weierstrass --grids 64,128,512 --out runs/psw",
    "schauder-check --seeds 0 --resolutions 512,1024 --out runs/sch1024",
    "schauder-check --alpha 0.25 --seeds 5,6 --resolutions 32,64,128,256,512 --out runs/sch25",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpus", type=int, default=None,
                        help="run every command on the first N CPUs of the affinity mask")
    args = parser.parse_args()
    if args.cpus is not None:
        mask = sorted(os.sched_getaffinity(0))
        if not 1 <= args.cpus <= len(mask):
            parser.error(f"--cpus must lie in 1..{len(mask)}, got {args.cpus}")
        os.sched_setaffinity(0, mask[:args.cpus])
    # the commands run in the temporary directory, so a relative
    # PYTHONPATH entry is made absolute first
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep) if p)
    with tempfile.TemporaryDirectory() as tmp:
        if subprocess.run([sys.executable, "-m", "holderlab.cli", "--version"], cwd=tmp,
                          env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode != 0:
            print("output_digests: `python -m holderlab.cli --version` failed; "
                  "set PYTHONPATH to a source tree (for example PYTHONPATH=src)",
                  file=sys.stderr)
            return 2
        for command in COMMANDS:
            args = command.split()
            code = subprocess.run([sys.executable, "-m", "holderlab.cli", *args], cwd=tmp,
                                  env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode
            print(f"exit {code}  holderlab {command}")
            out = Path(tmp, args[args.index("--out") + 1])
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(tmp).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
