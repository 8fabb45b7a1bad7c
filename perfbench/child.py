"""One benchmark run of the kimura-lab CLI: ``kimura_lab.cli.main`` in this process.

Usage: ``python3 perfbench/child.py --stamp FILE [--trace] -- <cli arguments>``

It imports the package from ``src/`` of the current directory, hooks the first
entry into ``simulate_bundle`` (the end of set-up), optionally installs the
layer tracer, runs the CLI and writes the timestamps, plus the trace when
asked for, to ``FILE`` as JSON.  Its exit code is the CLI's.  Timestamps are
``time.monotonic()``, which is one system-wide clock shared with the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stamp", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = os.path.abspath("src")
    import kimura_lab.cli
    from tracer import Tracer, rebind

    if not os.path.abspath(kimura_lab.cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"kimura_lab imported from outside {src}\n")
        return 4

    stamps = {"first_simulate": None}
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    inner = kimura_lab.simulate.simulate_bundle

    def first_entry(*a, **kw):
        if stamps["first_simulate"] is None:
            stamps["first_simulate"] = time.monotonic()
        return inner(*a, **kw)

    rebind(inner, first_entry)

    stamps["main_entry"] = time.monotonic()
    code = kimura_lab.cli.main(cli_args)
    stamps["main_exit"] = time.monotonic()
    if tracer is not None:
        stamps["layers"] = tracer.report()
        stamps["layer_self_s"] = tracer.layer_self_s()
    with open(args.stamp, "w") as fh:
        json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
