"""Bare launcher: run one program and report its own resource usage.

``ru_maxrss`` survives ``exec``: a program spawned straight from the
harness would report at least the harness's resident size (numpy, the
generated input). This launcher imports nothing heavy, so the figure
``wait4`` returns for its child is the program's.

usage: launch.py REPORT.json [--cpu N] -- PROGRAM ARGS...

stdin, stdout and stderr pass through untouched. The report holds
``returncode``, ``maxrss_kb``, ``cpu_s`` (user + system) and ``wall_s``.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    report_path = argv[0]
    split = argv.index("--")
    options, command = argv[1:split], argv[split + 1:]
    if options[:1] == ["--cpu"] and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {int(options[1])})
    started = time.perf_counter()
    process = subprocess.Popen(command)
    try:
        _, status, usage = os.wait4(process.pid, 0)
    except BaseException:
        process.kill()
        os.waitpid(process.pid, 0)
        raise
    report = {
        "returncode": os.waitstatus_to_exitcode(status),
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "wall_s": time.perf_counter() - started,
    }
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return report["returncode"]


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
