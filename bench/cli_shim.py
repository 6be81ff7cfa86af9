"""Traced stand-in for ``python -m forest_atoms.cli`` (used by the cli workload).

    python3 bench/cli_shim.py OUT SPAWNED ARGS...

Installs the benchmark's span wrappers, calls ``forest_atoms.cli.main(ARGS)``
and exits with its code, after writing the span summary to OUT.  SPAWNED is
the parent's ``time.monotonic()`` just before it started this process, so
``startup_s`` covers interpreter start and imports up to entry of main.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import forest_atoms.cli  # noqa: E402  (needs the path set above)

from spans import Tracer  # noqa: E402


def main() -> int:
    out, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    startup = time.monotonic() - spawned
    tracer = Tracer()
    with tracer:
        code = sys.modules["forest_atoms.cli"].main(argv)
    summary = tracer.summary()
    summary["startup_s"] = startup
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
