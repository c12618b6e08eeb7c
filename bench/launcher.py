"""Start the benchmark's command processes from a small, long-lived process.

A child's ru_maxrss also covers the memory of the process it was spawned
from, because Linux counts the parent's pages until the child calls exec.
bench/run.py grows (parsed outputs, answer checks), so it sends every command
here instead; this process stays near the size of a bare interpreter, well
below any gwhurwitz command.

Protocol: one JSON line per command on stdin, [argv, env, stdout path,
stderr path]; one JSON line back per command, [exit code, wall seconds,
ru_maxrss in KiB].  The process exits when stdin closes.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        argv, env, out_path, err_path = json.loads(line)
        create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, out_path, create, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err_path, create, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        sys.stdout.write(json.dumps([os.waitstatus_to_exitcode(status), wall,
                                     usage.ru_maxrss]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
