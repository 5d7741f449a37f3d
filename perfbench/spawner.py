"""Runs the ``cli`` workload's commands, one at a time, from a process much
smaller than any of them, and reports each command's own peak memory.

Linux carries the high-water mark of the process a child was spawned from
into the child's ``ru_maxrss`` (at exec), so a command spawned straight from
the benchmark reports at least the benchmark's own size.  Spawned from here,
started with ``python3 -I -S`` and importing a few small modules, a
command's ``ru_maxrss`` is its own.

One request per line on stdin, a JSON list ``[timeout_s, program, arg...]``;
one reply per line on stdout, a JSON object with ``exit`` (null when the
command was killed at its timeout), ``stdout`` and ``maxrss_kb``.  The
command's stdin and stderr are the null device; it inherits this process's
environment and working directory.  The spawner ends when its stdin closes.
"""

import json
import os
import select
import signal
import sys
import time


def run(timeout_s, argv):
    out_r, out_w = os.pipe()
    null = os.open(os.devnull, os.O_RDWR)
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, null, 0), (os.POSIX_SPAWN_DUP2, out_w, 1), (os.POSIX_SPAWN_DUP2, null, 2)])
    os.close(out_w)
    os.close(null)
    deadline = time.monotonic() + timeout_s
    chunks, killed = [], False
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([out_r], [], [], left)[0]:
            os.kill(pid, signal.SIGKILL)
            killed = True
            break
        chunk = os.read(out_r, 65536)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(out_r)
    _, status, usage = os.wait4(pid, 0)
    return {"exit": None if killed else os.waitstatus_to_exitcode(status),
            "stdout": b"".join(chunks).decode("utf-8", "replace"), "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        timeout_s, *argv = json.loads(line)
        sys.stdout.write(json.dumps(run(timeout_s, argv)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
