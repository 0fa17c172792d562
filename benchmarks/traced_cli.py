"""Run one rwasim CLI command with spans around each layer and write them
when it ends.

    python benchmarks/traced_cli.py SPANS.json COMMAND_ID -- run scenario.yaml --out DIR

The arguments after `--` are those of the `rwasim` console script. The
process does what `python -m rwasim.cli` does, with the import and every
call into the TARGETS of spans.py recorded as spans.
"""

import importlib
import sys
import time

T0 = time.perf_counter()

import spans  # noqa: E402  (stdlib only; imported after the clock starts)


def _command(rec, argv, missing):
    cli = rec.call("cli.import", importlib.import_module, "rwasim.cli")
    missing.extend(spans.install(rec))
    return rec.call("cli.main", cli.main, argv)


def main():
    out, command_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json COMMAND_ID -- <rwasim arguments>")
    rec = spans.Recorder(command_id, T0)
    missing = []
    try:
        return rec.call("command", _command, rec, argv, missing)
    finally:
        rec.dump(out, missing)


if __name__ == "__main__":
    sys.exit(main())
