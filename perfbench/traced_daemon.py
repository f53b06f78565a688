"""Run ``tools/serve_daemon.py`` with the benchmark's spans installed.

Usage: ``python perfbench/traced_daemon.py SPANS.json -- <daemon flags>``
from the repository root.  The daemon runs unchanged; when it exits
(SIGTERM drains it as usual) the recorded spans and handle stamps are
written to ``SPANS.json``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv) -> int:
    spans_path, sep, *daemon_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_daemon.py SPANS.json -- FLAGS")
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    import serve_daemon             # puts src/ on the path itself
    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return serve_daemon.main(daemon_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
