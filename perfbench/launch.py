"""Start the program the way ``python -m repro`` does, with timing marks.

Usage::

    python3 perfbench/launch.py [--setup-only] [--trace SPANS.json] -- ARGS...

It imports ``repro.cli``, writes ``perfbench-ready <t>`` to stderr, runs
``repro.cli.main(ARGS)`` and writes ``perfbench-done <t> <exit code>``;
``<t>`` is ``time.monotonic()``, which ``run.py`` reads on the same
clock.  ``--setup-only`` stops after the ready mark.  ``--trace``
wraps the layers' public functions (see ``tracer.py``) before ``main``
runs and writes the spans to SPANS.json when ``main`` returns.
"""

from __future__ import annotations

import os
import sys
import time


def _mark(label: str, at: float, *fields: object) -> None:
    print(f"perfbench-{label}", at, *fields, file=sys.stderr, flush=True)


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: launch.py [--setup-only] [--trace PATH] -- ARGS...", file=sys.stderr)
        return 2
    split = argv.index("--")
    options, args = argv[:split], argv[split + 1:]
    trace_path = options[options.index("--trace") + 1] if "--trace" in options else None

    import repro.cli

    _mark("ready", time.monotonic())
    if "--setup-only" in options:
        return 0
    if trace_path is None:
        code = repro.cli.main(args)
        _mark("done", time.monotonic(), code)
        return code

    from tracer import Tracer, install

    tracer = Tracer(run_id=os.path.basename(trace_path))
    install(tracer)
    try:
        code = tracer.span("cli.main", repro.cli.main, args)
    finally:
        done = time.monotonic()
        tracer.dump(trace_path)
    _mark("done", done, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
