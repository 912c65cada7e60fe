"""Traced command-line child: ``python -X importtime bench/launcher.py OUT ARGS...``,
started by run.py with ``src/`` on ``PYTHONPATH``.

Imports ``treeshift.cli``, installs the benchmark's wrappers, runs
``treeshift.cli.main(ARGS)`` as one traced operation and writes the layer
totals, the import time and the process start stamp to the JSON file OUT.
Standard output and the exit code are the command's own.
"""

import time

START = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, clock  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = clock()
    import treeshift.cli

    import_s = clock() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.run_op(0, treeshift.cli.main, argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        doc = tracer.dump()
        doc.update(start=START, import_s=import_s)
        Path(out).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
