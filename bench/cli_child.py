"""Run the dipath CLI once under the benchmark's tracer.

usage: python -X importtime bench/cli_child.py TOTALS_OUT <dipath arguments>

Behaves like ``python -m dipath <arguments>`` (same output, same exit
status, same traceback on a crash) and writes the span totals of the run
to TOTALS_OUT as JSON.
"""

import json
import sys

import dipath.cli

from spans import Tracer


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    root = tracer.open("cli.run")
    try:
        status = dipath.cli.run(argv)
    finally:
        tracer.close(root)
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(tracer.totals(), handle)
    sys.exit(status)


if __name__ == "__main__":
    main()
