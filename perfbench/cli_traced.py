"""Run one incidence-lab CLI command with layer spans recorded.

Usage: python3 perfbench/cli_traced.py SPAN_FILE ARGV...

Installs the span wrappers from ``spans.py`` around the package's public
functions, calls ``incidence_lab.cli.main(ARGV)`` in this process and writes
the spans to SPAN_FILE as JSON, so that the benchmark can nest them under
the span of this process. Standard output and the exit code are those of
the plain command.
"""

import sys

from spans import Tracer

import incidence_lab.cli

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = incidence_lab.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)
