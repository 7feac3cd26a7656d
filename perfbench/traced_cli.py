"""``python -m qktoledo.cli`` with the per-layer tracer installed.

Usage: traced_cli.py OP_ID VERB [ARGS...].  Runs ``qktoledo.cli.main`` on the
arguments as one ``op`` span, writes the verb's stdout unchanged, and writes
the trace as one JSON line on stderr, after the marker that ``worker.py``
looks for.  The exit code is the verb's.
"""

import json
import sys

from qktoledo import cli
from tracer import OP_SPAN, TRACE_MARKER, Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.op_id = int(sys.argv[1])
    try:
        code = tracer.wrap(OP_SPAN, cli.main)(sys.argv[2:])
    except SystemExit as exc:        # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        print(TRACE_MARKER + json.dumps(tracer.dump()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
