"""Run the ``repro serve`` daemon with the benchmark's layer wrappers.

Usage: ``python -m perfbench.traced_serve SPANS_JSON [serve options]``.
Every ``POST /check`` becomes one traced operation; the span records
are written to ``SPANS_JSON`` once the daemon has drained.
"""

from __future__ import annotations

import json
import sys

from perfbench.layers import LayerTracer


def main(argv) -> int:
    from repro.serve.app import ServeApp, serve_main

    spans_path, serve_args = argv[0], argv[1:]
    tracer = LayerTracer().install()
    tracer.wrap_operation(ServeApp, "_handle_check", "serve.request")
    drain = ServeApp._drain

    async def drain_and_flush(app) -> None:
        await drain(app)
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.records(), handle)

    ServeApp._drain = drain_and_flush
    return serve_main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
