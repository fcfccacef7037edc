"""Run the risbeam CLI from the source tree: ``python3 bench/cli_runner.py <args>``.

The runner calls ``risbeam.cli.main`` itself rather than going through
``python -m risbeam.cli``, which prints a runpy RuntimeWarning because
the package already imports ``cli`` (through ``presets``).
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def invoke(argv: list[str]) -> int:
    """Run one CLI command in this process and return its exit code.

    ``main`` is looked up on the module at call time, so a wrapper
    installed there by the tracer sees the call.
    """
    import risbeam.cli

    saved = sys.argv
    sys.argv = ["risbeam", *argv]
    try:
        risbeam.cli.main()
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        return 1
    finally:
        sys.argv = saved
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(invoke(sys.argv[1:]))
