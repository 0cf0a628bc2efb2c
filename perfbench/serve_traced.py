"""Run ``repro-runner`` with the benchmark's layer spans installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_traced.py SPANS_OUT serve --port 0 --workers 1

The runner behaves exactly as ``python3 -m repro.analysis.runner``; the
spans of every thread of the server are held in memory and written to
``SPANS_OUT`` as JSON when it exits (SIGINT stops it, as usual).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv) -> int:
    from layers import install
    from repro.analysis.runner import main as runner_main
    from tracing import SpanRecorder

    spans_out = Path(argv[0])
    recorder = SpanRecorder()
    patches = install(recorder, spans_out.parent / "server-spool")
    try:
        return runner_main(argv[1:])
    finally:
        patches.undo()
        spans_out.write_text(json.dumps(recorder.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
