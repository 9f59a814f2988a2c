"""Starts the benchmark's child processes from a process that stays small.

On exec, Linux counts the peak RSS of the memory image being replaced
towards the new program's peak RSS.  Children are spawned with vfork,
whose image is the parent's, so a child started by the benchmark
process itself would report at least that process's peak RSS.  This
launcher imports only the standard library and never holds a child's
output: children write to files, and the launcher reports wall time
and the rusage from os.wait4.

Protocol, one JSON object per line: a request on stdin
    {"argv": [...], "stdin": path or null, "stdout": path, "stderr": path}
gets a reply on stdout
    {"wall_s": float, "exit_code": int, "cpu_s": float, "maxrss_kb": int}
The launcher exits at the end of its stdin.
"""

import json
import os
import sys
import time


def spawn(request: dict) -> dict:
    fds = [
        os.open(request["stdin"] or os.devnull, os.O_RDONLY),
        os.open(request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    try:
        actions = [(os.POSIX_SPAWN_DUP2, fd, target) for target, fd in enumerate(fds)]
        argv = request["argv"]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        for fd in fds:
            os.close(fd)
    return {
        "wall_s": wall,
        "exit_code": os.waitstatus_to_exitcode(status),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(spawn(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
