"""Print the sha256 of every CSV that the benchmark workloads write.

Runs the commands of the three workloads in benchmarks/workloads.py, at
seeds 0 and 7, through `python -m rwasim.cli` on this checkout's src/, with
one BLAS thread. It prints one line per CSV: the sha256 of the whole file,
the sha256 of its rows (the lines that do not start with `#`, which a
change of the header alone leaves fixed) and `<workload>-<seed>/<file>`.
Diff the output of two checkouts to see whether a change keeps every
output, or every numeric row, byte for byte:

    python3 tools/output_digests.py > digests.txt

`--keep DIR` copies every CSV to `DIR/<workload>-<seed>/<file>`.
`--against DIR` reads the CSVs that an earlier `--keep DIR` left there and,
for each file whose rows digest differs from its copy's, prints the
largest absolute difference of the numeric rows; for each file whose rows
match but whose header does not, it prints the keys of the header lines
that differ (`header differs: rwasim-timeseries, scenario, config-hash`;
a line's key is its first word after `# `). Its last two lines read
`files identical: N of M`, counting the files equal to their copy byte for
byte, headers included, and `rows identical: N of M`; it exits 1 unless
every file has a copy with the same rows:

    python3 tools/output_digests.py --keep /tmp/before    # on the old checkout
    python3 tools/output_digests.py --against /tmp/before # on the new one
"""

import argparse
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
import workloads  # noqa: E402

SEEDS = (0, 7)
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREADS)


def rows(data):
    return b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(b"#"))


def header(data):
    # key -> line of each '#' line, the key being the line's first word
    lines = [line for line in data.decode().splitlines() if line.startswith("#")]
    return {re.match(r"#\s*([^\s:]*)", line).group(1): line for line in lines}


def header_difference(data, other):
    new, old = header(data), header(other)
    keys = [key for key in {**new, **old} if new.get(key) != old.get(key)]
    return f"header differs: {', '.join(keys)}"


def largest_difference(csv, other):
    a, b = (np.loadtxt(path, delimiter=",", comments="#", ndmin=2) for path in (csv, other))
    if a.shape != b.shape:
        return f"row shapes differ: {a.shape} against {b.shape}"
    return f"largest absolute difference {np.abs(a - b).max():.3g}"


parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--keep", type=Path, metavar="DIR", help="copy every CSV under DIR")
parser.add_argument(
    "--against", type=Path, metavar="DIR", help="compare the numeric rows with the CSVs kept in DIR"
)
args = parser.parse_args()

identical = same_files = total = 0
with tempfile.TemporaryDirectory() as tmp:
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            name = f"{workload}-{seed}"
            scenario_dir, out = Path(tmp, name, "scenarios"), Path(tmp, name, "out")
            scenario_dir.mkdir(parents=True)
            mappings = workloads.scenarios(workload, seed, ROOT / "scenarios")
            workloads.write_scenarios(mappings, scenario_dir)
            for command in workloads.commands(workload):
                argv = [sys.executable, "-m", "rwasim.cli", *command.argv(scenario_dir, out)]
                subprocess.run(argv, env=ENV, check=True, stdout=subprocess.DEVNULL)
            for csv in sorted(out.glob("*.csv")):
                data = csv.read_bytes()
                digests = (hashlib.sha256(blob).hexdigest() for blob in (data, rows(data)))
                print(f"{'  '.join(digests)}  {name}/{csv.name}")
                if args.keep:
                    (args.keep / name).mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(csv, args.keep / name / csv.name)
                if args.against:
                    total += 1
                    other = args.against / name / csv.name
                    if not other.exists():
                        print(f"  {name}/{csv.name}: no copy in {args.against}")
                    elif rows(kept := other.read_bytes()) != rows(data):
                        print(f"  {name}/{csv.name}: {largest_difference(csv, other)}")
                    else:
                        identical += 1
                        if kept != data:
                            print(f"  {name}/{csv.name}: {header_difference(data, kept)}")
                        else:
                            same_files += 1

if args.against:
    print(f"files identical: {same_files} of {total}")
    print(f"rows identical: {identical} of {total}")
    sys.exit(0 if identical == total else 1)
