"""One traced ``repro solve``: ``python -m perf.traced_solve OUT SOLVE_ID -- ARGV...``.

Mirrors the untraced run (``python -m repro.cli ARGV...``) but times
``import repro.cli`` as the span ``cli.import``, wraps the program's
public entry points (see :mod:`perf.spans`), calls ``repro.cli.main``
and, at exit, writes the span summary to ``OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys
import time

from perf.spans import SpanRecorder, instrument_cli


def main(argv: list[str]) -> int:
    out, solve_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: python -m perf.traced_solve OUT SOLVE_ID -- ARGV...")
    rec = SpanRecorder()
    rec.solve_id = solve_id
    start = time.perf_counter()
    import repro.cli

    rec.add("cli.import", start, time.perf_counter())
    instrument_cli(rec, parallel="--workers" in cli_argv)
    try:
        return repro.cli.main(cli_argv)
    finally:
        with open(out, "w") as fh:
            json.dump(rec.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
