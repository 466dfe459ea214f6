"""One traced `prevision.cli` invocation, for the cli workload's traced run.

Usage: python3 benchmarks/cli_child.py OUT.json CLI-ARGS...

Times the import of `prevision.cli`, runs its `main` with layer wrappers
installed, writes the per-layer totals to OUT.json and exits with the code
`main` returned.  Output goes to stdout exactly as from `prevision`.
"""

import json
import sys
import time

from tracing import Tracer, patched


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import prevision.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    build_parser = cli.build_parser

    def traced_build_parser():
        with tracer.span("cli.parse"):
            parser = build_parser()
        parse_args = parser.parse_args

        def traced_parse_args(args=None, namespace=None):
            with tracer.span("cli.parse"):
                return parse_args(args, namespace)

        parser.parse_args = traced_parse_args
        return parser

    cli.build_parser = traced_build_parser
    try:
        with patched(tracer):
            with tracer.span("cli.main"):
                code = cli.main(argv)
    finally:
        cli.build_parser = build_parser
    sys.stdout.flush()
    summary = tracer.summary()
    summary["counters"]["cli.import_s"] = import_s
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
