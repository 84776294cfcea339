"""Run the serve daemon with span recording: ``traced_daemon.py SPANS [serve args]``.

Installs the timing wrappers of :mod:`tracing`, runs
``repro.serve.__main__.main`` with the remaining arguments, and after
the daemon drains writes every recorded span to ``SPANS`` as JSON.
"""

import sys
from pathlib import Path

from tracing import Recorder, install


def main() -> int:
    spans_path = Path(sys.argv[1])
    recorder = Recorder()
    install(recorder)
    from repro.serve.__main__ import main as serve_main

    code = serve_main(sys.argv[2:])
    recorder.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
