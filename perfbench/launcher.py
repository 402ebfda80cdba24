"""Start query processes for ``run.py`` from a process that stays small.

Usage: ``python3 launcher.py <socket fd>``, started by ``run.Launcher``.

At exec the kernel folds the peak RSS of the old address space into the new
program's ``ru_maxrss``, so a child forked from ``run.py``, which holds
megabytes of query output, would report ``run.py``'s peak as its own.  This
helper never holds output; the children it forks report their own peak.

Protocol, one request at a time over a SOCK_SEQPACKET socket: a request is
JSON ``{"argv": [...], "timeout": seconds}`` sent with the write ends of the
child's stdout and stderr pipes, and optionally a third descriptor that the
child gets as fd 3.  The launcher replies ``{"pid": n}`` once the child has
started, then ``{"status": exit code or null if killed at the timeout,
"cpu_s": ..., "rss_kb": ...}`` once it has ended.  The launcher exits when
the socket is closed.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys


def serve(sock: socket.socket) -> None:
    child = {"pid": 0, "killed": False}

    def on_timeout(signum, frame):
        try:
            os.kill(child["pid"], signal.SIGKILL)
        except ProcessLookupError:  # it ended as the timer fired
            return
        child["killed"] = True

    signal.signal(signal.SIGALRM, on_timeout)
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 16, 3)
        if not msg:
            return
        request = json.loads(msg)
        actions = [(os.POSIX_SPAWN_DUP2, fd, target) for fd, target in zip(fds, (1, 2, 3))]
        pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
        for fd in fds:
            os.close(fd)
        child.update(pid=pid, killed=False)
        sock.send(json.dumps({"pid": pid}).encode())
        signal.setitimer(signal.ITIMER_REAL, request["timeout"])
        _, wait_status, usage = os.wait4(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        status = None if child["killed"] else os.waitstatus_to_exitcode(wait_status)
        reply = {"status": status, "cpu_s": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss}
        sock.send(json.dumps(reply).encode())


def main() -> None:
    sock = socket.socket(fileno=int(sys.argv[1]))
    sock.set_inheritable(False)
    with sock:
        serve(sock)


if __name__ == "__main__":
    main()
