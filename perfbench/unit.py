"""One benchmark unit: a fresh interpreter runs ``mmwloc.cli.main(argv)`` once.

    python3 perfbench/unit.py ROOT RESULT_JSON TRACE -- CLI_ARGS...

ROOT is the checkout whose ``src/`` is imported. With TRACE=1 the layer
entry points are wrapped (see spans.py) and the spans are written next to
RESULT_JSON. The result holds the exit code, the wall time of
``cli.main`` (its lru caches start cold, as for every CLI user), what it
printed, the process's peak RSS and the ``_cell_grid`` cache counters.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cell_grid_info():
    """(hits, misses) of localization._cell_grid, or None if it is gone."""
    cell_grid = getattr(sys.modules.get("mmwloc.localization"), "_cell_grid",
                        None)
    if cell_grid is None or not hasattr(cell_grid, "cache_info"):
        return None
    info = cell_grid.cache_info()
    return info.hits, info.misses


def main() -> int:
    root, result_path = Path(sys.argv[1]), Path(sys.argv[2])
    traced = sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: unit.py ROOT RESULT_JSON TRACE -- CLI_ARGS...")
    argv = sys.argv[5:]
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import mmwloc.cli
    if src not in Path(mmwloc.cli.__file__).resolve().parents:
        raise SystemExit(f"imported {mmwloc.cli.__file__}, not the checkout's")

    recorder = None
    if traced:
        import spans
        recorder = spans.install()
    cache_before = _cell_grid_info()
    printed = io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(printed):
        rc = mmwloc.cli.main(argv)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    cache_after = _cell_grid_info()

    result = {
        "rc": rc,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "stdout": printed.getvalue(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cell_grid": (None if cache_after is None else
                      {"hits": cache_after[0] - cache_before[0],
                       "misses": cache_after[1] - cache_before[1]}),
    }
    if recorder is not None:
        result["trace"] = recorder.summary(wall_s)
        recorder.write(result_path.with_suffix(".spans.csv"))
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
