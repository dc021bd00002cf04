#!/usr/bin/env python3
"""Run ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/traced_serve.py --spans OUT.json -- serve --listen ...

Installs :class:`spans.Recorder` around the public entry points of every
layer, then calls the same CLI entry point ``python -m repro`` runs.
When the server drains (SIGINT) the spans are written to ``OUT.json``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: traced_serve.py --spans OUT.json -- serve ...",
              file=sys.stderr)
        return 2
    from spans import Recorder

    recorder = Recorder().install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[3:])
    finally:
        recorder.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main())
