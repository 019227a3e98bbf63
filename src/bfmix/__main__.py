"""The process entry of `python -m bfmix` and the `bfmix` console script.

Each run is a fresh process that exits as soon as main returns, so the
objects that exist once the package is imported live until exit.
gc.freeze() moves them out of the collector's reach, and the final
collection at interpreter exit no longer walks them; their cycles are
left to the operating system.  Atexit handlers and the final flush of
the std streams run as before.  cli.main leaves the collector alone,
since tests and tracers call it in process.
"""

import gc
import sys

from .cli import main


def run():
    """Freeze the collector's start-up objects, then return main()'s
    exit code."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
