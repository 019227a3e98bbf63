"""Fresh-process probe for the traced runs: thread pool against serial.

    python bench/probes.py

Prints one JSON line with the wall seconds of run_scan on the fig2 and
fig5 presets, serial and with workers=2.  Every bfmix cache is cleared
before each timing, so both start cold; one untimed fig2 scan first
warms the code paths.
"""

import json
import sys
import time

from bfmix import scan_engine


def _clear_caches():
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("bfmix"):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def main():
    specs = [scan_engine.figure_preset(tag) for tag in ("fig2", "fig5")]
    scan_engine.run_scan(specs[0])
    seconds = {}
    for workers in (None, 2):
        _clear_caches()
        t0 = time.perf_counter()
        for spec in specs:
            scan_engine.run_scan(spec, workers=workers)
        seconds["serial" if workers is None else "workers2"] = (
            time.perf_counter() - t0)
    print(json.dumps(seconds))


if __name__ == "__main__":
    main()
