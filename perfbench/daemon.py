"""The ``repro-experiments serve`` daemon as a child process of the benchmark.

The daemon and the shard workers it forks run in a process group of their
own, so :meth:`ServeDaemon.stop` can tear down every one of them on every
exit path.  The group id is written to a pid file inside the checkout
while the daemon lives; a later run refuses to start while the group in
that file is still alive, because a leftover daemon and its workers would
compete for the cores every later measurement uses.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Starts the CLI exactly as the ``repro-experiments`` console script does.
_CLI = "import sys; from repro.experiments.cli import main; sys.exit(main(sys.argv[1:]))"
_SERVE_ARGS = ("serve", "--shards", "2")
_READY = re.compile(r"serving \d+-shard fleet at ([\w.:-]+):(\d+) ")
_READY_TIMEOUT = 60.0
_STOP_TIMEOUT = 30.0


class DaemonError(RuntimeError):
    """The daemon could not be started or refused to start."""


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # the id now belongs to another user's group
        return False
    return True


class ServeDaemon:
    """One ``serve --shards 2`` daemon, optionally with span wrappers installed.

    ``spans_out`` selects the benchmark's launcher, which installs the span
    wrappers in the daemon process and writes its spans there at shutdown.
    """

    def __init__(self, root: Path, run_dir: Path, spans_out: Path | None = None) -> None:
        self.root = root
        self.run_dir = run_dir
        self.spans_out = spans_out
        self.pidfile = run_dir / "serve.pgid"
        self.log = run_dir / "serve.log"
        self.proc: subprocess.Popen[bytes] | None = None

    def _refuse_if_running(self) -> None:
        try:
            pgid = int(self.pidfile.read_text().strip())
        except (FileNotFoundError, ValueError):
            return
        if _group_alive(pgid):
            raise DaemonError(
                f"a serve daemon from an earlier run is still alive (process group "
                f"{pgid}, see {self.pidfile}); stop it before benchmarking"
            )
        self.pidfile.unlink()

    def start(self) -> tuple[str, int]:
        """Spawn the daemon and return the address it serves on."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self._refuse_if_running()
        if self.spans_out is None:
            command = [sys.executable, "-c", _CLI, *_SERVE_ARGS]
        else:
            launcher = self.root / "perfbench" / "launcher.py"
            command = [sys.executable, str(launcher), str(self.spans_out), *_SERVE_ARGS]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                command,
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
                start_new_session=True,
            )
        self.pidfile.write_text(f"{self.proc.pid}\n")
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], _READY_TIMEOUT)
        line = self.proc.stdout.readline().decode(errors="replace") if ready else ""
        match = _READY.search(line)
        if match is None:
            self.stop()
            raise DaemonError(
                f"serve daemon did not report its address (got {line!r}; see {self.log})"
            )
        return match.group(1), int(match.group(2))

    def stop(self) -> None:
        """Shut the daemon down cleanly, then make sure its group is gone.

        SIGINT lets the daemon close its fleet (which stops the workers)
        and lets the launcher write its spans; anything still alive in the
        group afterwards is killed.  Returns only when no process of the
        group is left.
        """
        proc = self.proc
        if proc is None:
            return
        pgid = proc.pid
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(pgid, signal.SIGKILL)
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        deadline = time.monotonic() + _STOP_TIMEOUT
        while _group_alive(pgid):
            if time.monotonic() > deadline:
                raise DaemonError(f"process group {pgid} survived SIGKILL")
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self.proc = None
        self.pidfile.unlink(missing_ok=True)
