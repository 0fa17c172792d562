"""Print the sha256 of every CSV that the benchmark workloads write.

Runs the commands of the three workloads in benchmarks/workloads.py, at
seeds 0 and 7, through `python -m rwasim.cli` on this checkout's src/, with
one BLAS thread. It prints one line per CSV: the sha256 of the whole file,
the sha256 of its rows (the lines that do not start with `#`, which a
change of the header alone leaves fixed) and `<workload>-<seed>/<file>`.
Diff the output of two checkouts to see whether a change keeps every
output, or every numeric row, byte for byte:

    python3 tools/output_digests.py > digests.txt
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
import workloads  # noqa: E402

SEEDS = (0, 7)
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREADS)

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
                rows = b"".join(
                    line for line in data.splitlines(keepends=True) if not line.startswith(b"#")
                )
                digests = (hashlib.sha256(blob).hexdigest() for blob in (data, rows))
                print(f"{'  '.join(digests)}  {name}/{csv.name}")
