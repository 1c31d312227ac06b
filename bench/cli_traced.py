"""Run one abelcover CLI command with the package's public functions traced.

    PYTHONPATH=src python bench/cli_traced.py classify --json doc.json

stdout and the exit code are the command's own.  After the command, one
line on stderr starting with `tracing.SPANS_MARKER` carries the spans and
whether every wrapper was restored.
"""

import json
import sys

import tracing

import abelcover.cli as cli


def main() -> int:
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("invocation"):
        code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(tracing.SPANS_MARKER + json.dumps(
        {"restored": tracing.untouched(), "spans": tracer.spans}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
