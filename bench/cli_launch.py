"""Run `platoon-asmc` as `python -m platoon_asmc` does, recording peak RSS.

Usage: python3 cli_launch.py RSS_FILE run [flags...]

The command's own process and each forked pool worker append one line,
`<pid> <peak RSS in KiB>`, to RSS_FILE as they exit. Workers leave through
`os._exit`, so that is where they record; the exit code of the command is
passed through unchanged.
"""

import os
import resource
import runpy
import sys


def _record(path: str) -> None:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()} {peak_kib}\n")


def main() -> None:
    rss_path = sys.argv[1]
    sys.argv = ["platoon-asmc", *sys.argv[2:]]
    real_exit = os._exit

    def exit_recording(code):
        _record(rss_path)
        real_exit(code)

    os._exit = exit_recording
    try:
        runpy.run_module("platoon_asmc", run_name="__main__", alter_sys=True)
    finally:
        _record(rss_path)


if __name__ == "__main__":
    main()
