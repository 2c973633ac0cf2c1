"""Server process for the traced ``serve`` run: ``repro serve`` plus tracing.

Usage::

    python3 perfbench/serve_child.py SUMMARY.json SPANS.jsonl.gz -- <repro serve arguments>

Installs the server-side wrappers (wire protocol, connection, SQL, storage
and WAL layers), runs ``repro serve`` until SIGTERM drains it, then writes
the per-layer totals to ``SUMMARY.json`` and every span to
``SPANS.jsonl.gz``.  The untraced run starts ``python -m repro serve``
directly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    split = argv.index("--")
    summary_path, spans_path = Path(argv[0]), Path(argv[1])
    serve_args = argv[split + 1 :]
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import repro.server.protocol as protocol
    from repro.cli import main as repro_main
    from repro.server import ReproServer

    from dblayers import instrument_db
    from tracing import Tracer

    tracer = Tracer()
    instrument_db(tracer)
    # Record only while requests are served: opening the directory and the
    # shutdown checkpoint scan the whole table and are not part of any
    # request.  The first decoded frame switches recording on; the
    # SIGTERM handler (request_stop) switches it off.
    tracer.enabled = False

    def start_recording(tracer: Tracer, args: tuple, kwargs: dict) -> None:
        tracer.enabled = True

    request_stop = ReproServer.request_stop

    def stop_recording(self: ReproServer) -> None:
        tracer.enabled = False
        request_stop(self)

    tracer.patch_function(protocol, "encode_message", "server.protocol.encode")
    tracer.patch_function(
        protocol, "decode_payload", "server.protocol.decode", on_call=start_recording
    )
    tracer.patch_object(ReproServer, "request_stop", stop_recording)
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        tracer.restore()
        summary_path.write_text(json.dumps(tracer.summary()), encoding="utf-8")
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
