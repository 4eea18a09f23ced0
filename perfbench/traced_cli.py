"""Run one diffworld CLI subcommand under span tracing, then write the spans.

    python -X importtime perfbench/traced_cli.py SPANS.json SUBCOMMAND [ARGS...]

This is the traced counterpart of ``python -m diffworld.cli`` for the
``coldstart`` workload.  It exits with the subcommand's exit code.
"""

import sys

# first import, so that -X importtime charges numpy and scipy to diffworld
import diffworld.cli  # noqa: E402

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return diffworld.cli.main(argv[1:])
    finally:
        tracer.remove()
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
