"""The command line of bfmix.commands, with every bfmix module loaded.

`python -m bfmix` runs bfmix.commands, whose commands each load only the
modules they need.  Importing this module loads them all up front, so a
tool that wraps the package's functions by name before a run, such as
bench/tracer.py, finds every one of them; a command then imports the
wrapped function when it runs.
"""

import sys

from . import finite_temperature, scan_engine, thomas_fermi  # noqa: F401
from . import zero_temperature  # noqa: F401
from .commands import _COMMANDS, main, write_csv  # noqa: F401

__all__ = ["main", "write_csv"]


if __name__ == "__main__":
    sys.exit(main())
