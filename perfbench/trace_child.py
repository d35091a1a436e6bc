"""Run one zetachain CLI command with every layer traced.

    python3 perfbench/trace_child.py DUMP_PATH SUBCOMMAND [FLAGS...]

Used by the traced cli_process run in place of the console entry point:
it wraps the package's public functions, runs the CLI's `main`, then
writes the spans and health readings to DUMP_PATH as JSON and exits with
the CLI's own exit code.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main():
    dump_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    from zetachain.cli import main as cli_main

    tracer.op_id = 0
    tracer.enabled = True
    try:
        code = cli_main(argv)
    finally:
        tracer.enabled = False
        readings = tracing.Readings()
        tracing.health(tracer.take_captures(), readings)
        with open(dump_path, "w") as fh:
            json.dump({"spans": tracer.dump(), "readings": readings.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
