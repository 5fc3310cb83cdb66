#!/usr/bin/env python3
"""Run a command and report its peak resident set size.

    python3 scripts/peak_rss.py LIMIT_MB CMD [ARG...]

Starts CMD (stdin, stdout and stderr are passed through) and polls
/proc/<pid>/status every 2 ms for VmHWM, the kernel's high-water mark of
the process's resident set, until it exits. The probe reads /proc only:
it neither traces nor limits the process. The last reading is the peak,
short of whatever the process grew by in its final poll interval.
Prints `peak_rss_mb <MB> wall_s <s>: CMD...` on stderr. Exits with the
command's status when it is non-zero, 1 when the peak exceeds LIMIT_MB,
0 otherwise. Run the built executable itself, not a launcher such as
`dune exec`: only CMD's own process is measured.
"""

import subprocess
import sys
import time


def vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return None


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    limit_mb = float(sys.argv[1])
    cmd = sys.argv[2:]
    start = time.monotonic()
    proc = subprocess.Popen(cmd)
    peak_kb = 0
    while proc.poll() is None:
        kb = vm_hwm_kb(proc.pid)
        if kb is not None:
            peak_kb = max(peak_kb, kb)
        time.sleep(0.002)
    wall = time.monotonic() - start
    peak_mb = peak_kb / 1024
    print(f"peak_rss_mb {peak_mb:.1f} wall_s {wall:.2f}: {' '.join(cmd)}",
          file=sys.stderr)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    if peak_mb > limit_mb:
        print(f"peak_rss.py: {peak_mb:.1f} MB exceeds the {limit_mb:g} MB limit",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
