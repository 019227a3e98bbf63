"""The process entry of `python -m bfmix` and the `bfmix` console script.

Each run is a fresh process that ends as soon as main returns.  It
imports bfmix.commands, whose commands each load only the modules they
run.  Once main returns, the atexit handlers run and the std streams are
flushed, as at a normal exit, and os._exit ends the process without the
interpreter's teardown: the module cleanup and the final collection free
memory the operating system frees anyway.  Under a profiler or a tracer,
such as cProfile or coverage, which report after the run returns, the
process exits normally.
"""

import atexit
import os
import sys

from .commands import main


def run_and_exit():
    """End the process with main()'s exit code, without the interpreter's
    teardown unless a profiler or a tracer is set."""
    code = main()
    if sys.gettrace() is None and sys.getprofile() is None:
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:
            # a stream that cannot be flushed (a closed pipe, a full
            # device, None once closed): the interpreter's exit meets it
            # again and reports it as it always has
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run_and_exit()
