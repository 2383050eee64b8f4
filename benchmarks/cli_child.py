"""Run the digitstats CLI in this process, then record this process's peak RSS.

Usage: python3 cli_child.py RSS_FILE ARG...

This is ``python -m digitstats.cli ARG...`` plus one step at exit: the
process writes its peak RSS in MB to RSS_FILE. The runner cannot take that
figure from ``wait4``: Linux carries a parent's high-water RSS over fork
and exec into the child's ``ru_maxrss``, so the runner's own memory would
set a floor under every child's figure. ``VmHWM`` counts only the memory
of this process image.
"""

from __future__ import annotations

import runpy
import sys


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    rss_path = sys.argv[1]
    sys.argv = ["digitstats", *sys.argv[2:]]
    del sys.path[0]  # this directory; `python -m` would not put it on the path
    try:
        runpy.run_module("digitstats.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(rss_path, "w") as out:
            out.write(repr(peak_rss_mb()))
