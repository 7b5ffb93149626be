#!/usr/bin/env python3
"""Peak resident memory of one execute_run of a workload, in a fresh process.

    python3 perfbench/peak_rss.py <workload>

Prints the peak in MB (1e6 bytes) as its last line. run.py starts it with
glibc's mmap threshold fixed (MALLOC_MMAP_THRESHOLD_), so every large block
returns to the system when freed and the peak is that of the live data. With
the default, self-adjusting threshold, the peak of identical runs in
identical processes varied by up to 15 % with heap fragmentation.
"""

from __future__ import annotations

import sys

from workloads import OUT_ROOT, WORKLOADS, load_foilwind, workload_config


def peak_rss_bytes() -> int:
    """This process's resident high-water mark (VmHWM).

    ru_maxrss would not do: Linux carries it across execve, so it would
    report the parent's resident size at the time it started this process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(name: str) -> int:
    load_foilwind()
    from foilwind.runner import execute_run

    execute_run(workload_config(WORKLOADS[name]), OUT_ROOT / name / "peak_rss")
    print(peak_rss_bytes() / 1e6)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
