"""Run the `repro serve` entry point with the benchmark's span wrappers.

    python3 perfbench/serve_launcher.py SPANS_OUT serve MUSE-Net ...

Installs :func:`perfbench.layers.install` in this process, runs
``repro.cli.main`` with the remaining arguments, and writes the spans
recorded while serving to ``SPANS_OUT`` (JSON rows, see
:meth:`perfbench.spans.Tracer.export`) when the server exits.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    from repro import cli

    from perfbench import layers
    from perfbench.spans import Tracer

    tracer = Tracer()
    layers.install(tracer)
    tracer.active = True
    try:
        code = cli.main(argv)
    finally:
        tracer.active = False
        with open(out + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
        os.replace(out + ".tmp", out)
    return code


if __name__ == "__main__":
    sys.exit(main())
