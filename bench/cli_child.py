"""One legcurve command with layer tracing, for the traced cli run.

    PYTHONPATH=src python bench/cli_child.py OUT.json ARGS...

prints what ``python -m legendre_curves.cli ARGS...`` prints, exits with its
code, and writes to OUT.json the time spent importing the package, the
time inside ``cli.run`` and the layer totals of the tracer.  Tracing starts
after the import, so the import time is untraced.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    t0 = perf_counter()
    import legendre_curves.cli as cli
    t1 = perf_counter()
    import tracer

    tr = tracer.Tracer()
    tr.install()
    tr.op_id = 1
    t2 = perf_counter()
    code = cli.run(sys.argv[2:])
    t3 = perf_counter()
    tr.uninstall()
    totals = tr.layer_totals()
    sys.stdout.flush()
    with open(sys.argv[1], "w") as fh:
        json.dump({"import_ms": (t1 - t0) * 1e3, "install_ms": (t2 - t1) * 1e3,
                   "run_ms": (t3 - t2) * 1e3, "post_ms": (perf_counter() - t3) * 1e3,
                   "totals": totals, "max_residual": tr.max_residual}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
