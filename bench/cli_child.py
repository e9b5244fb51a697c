"""A traced ``torsorkit`` CLI call, used by the cli workload's traced run.

    python3 bench/cli_child.py SPANS_FILE ARGS...

Behaves like ``python -m torsorkit ARGS...`` (same stdout, stderr and
exit code) and writes the spans, the work counts and the moment
``torsorkit`` finished importing to SPANS_FILE.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import torsorkit.cli  # noqa: E402

IMPORTED_AT = time.monotonic()

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return torsorkit.cli.main(argv)
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps(dict(tracer.dump(), imported_at=IMPORTED_AT)))


if __name__ == "__main__":
    raise SystemExit(main())
