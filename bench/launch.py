"""Run one command; report its wall time and its process tree's CPU time
and peak RSS.

    python3 -S bench/launch.py STDOUT_PATH -- COMMAND...

Prints one JSON object: wall_s, cpu_s, peak_rss_mib, code.  Linux
copies a parent's peak RSS into the child's ru_maxrss when the child
execs.  A command started by bench/run.py would report the memory of
run.py once that process grew past it.  So the command starts from
this small process, which imports only os, sys and time.
"""

import os
import sys
import time


def main() -> None:
    stdout_path, dashes, *command = sys.argv[1:]
    if dashes != "--" or not command:
        sys.exit("usage: launch.py STDOUT_PATH -- COMMAND...")
    fd = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawnp(
            command[0], command, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1)]
        )
        # rusage of the command and of every descendant it reaped, so pool
        # workers count; ru_maxrss is the largest single process of them
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(fd)
    code = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    rss = usage.ru_maxrss / 1024
    print(f'{{"wall_s": {wall!r}, "cpu_s": {cpu!r}, "peak_rss_mib": {rss!r}, "code": {code}}}')


if __name__ == "__main__":
    main()
