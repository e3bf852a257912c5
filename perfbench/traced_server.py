"""Run ``repro.cli serve`` with the span recorder installed.

Usage: ``traced_server.py --trace-dir DIR [--armed] -- serve ARGS...``

The recorder starts disarmed unless ``--armed`` is given.  Two signals
steer it while the server runs:

* ``SIGUSR1`` drops what was recorded and arms the recorder, then
  writes ``DIR/armed-<pid>``;
* ``SIGUSR2`` writes the spans recorded so far to
  ``DIR/spans-<pid>-<n>.json`` and disarms.

On exit (after the server's graceful stop) the remaining spans are
written the same way, so a final checkpoint is traced too.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import sys

from spans import SpanRecorder, install


def _write_atomic(path: str, payload: bytes) -> None:
    with open(path + ".tmp", "wb") as handle:
        handle.write(payload)
    os.replace(path + ".tmp", path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--armed", action="store_true")
    parser.add_argument("serve", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve = args.serve[1:] if args.serve[:1] == ["--"] else args.serve

    recorder = SpanRecorder()
    install(recorder)
    recorder.armed = args.armed
    pid = os.getpid()
    dumps = itertools.count(1)

    def dump() -> None:
        spans = recorder.take()
        path = os.path.join(args.trace_dir, f"spans-{pid}-{next(dumps)}.json")
        _write_atomic(path, json.dumps([list(span) for span in spans]).encode())

    def on_arm(signum, frame) -> None:
        recorder.take()
        recorder.armed = True
        _write_atomic(os.path.join(args.trace_dir, f"armed-{pid}"), b"")

    def on_dump(signum, frame) -> None:
        recorder.armed = False
        dump()

    signal.signal(signal.SIGUSR1, on_arm)
    signal.signal(signal.SIGUSR2, on_dump)

    from repro.cli import main as cli_main

    try:
        return cli_main(serve)
    finally:
        recorder.armed = False
        dump()


if __name__ == "__main__":
    sys.exit(main())
