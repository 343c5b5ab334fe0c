"""Run one stackgame CLI command with every layer traced.

    python3 perfbench/traced.py SPANS_JSON RUN_ID -- CLI_ARGS...

Installs the tracer, calls `stackgame.cli.main(CLI_ARGS)` under a root
`cli.main` span, writes the spans and counters to SPANS_JSON and exits with
the CLI's exit code. `src/` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stackgame import cli

from spans import Tracer


def main(argv) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON RUN_ID -- CLI_ARGS...")
    tracer = Tracer(run_id)
    with tracer.installed():
        code = tracer.span("cli.main", cli.main)(cli_args)
    Path(spans_path).write_text(json.dumps(tracer.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
