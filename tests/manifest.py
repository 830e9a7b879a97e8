"""The stdout contract: one manifest of pinned stdout hashes, its reader and
its end-to-end runner.

Each line of ``golden/stdout.sha256`` is ``<sha256> <exit code> <tier>
<argv...>``; blank lines and ``#`` comments are skipped.  ``test`` lines run
in process under the test suite (``test_cli.py::test_pinned_output_bytes``).
``ci:<seconds>`` and ``ci:<seconds>:<MB>`` lines run end to end when this
file runs as a script::

    python3 tests/manifest.py [MANIFEST]

Each runs as ``python -m splitpat.cli <argv...>`` with stdin from /dev/null.
A line fails on a different stdout hash or exit code, at ``<seconds>`` of
wall time, or at a peak RSS of ``<MB>``, by default ``CEILING_MB``.  The
script exits 1 if any line fails, or if the manifest has no ``ci`` line.
Linux only: the peak is the child's ``ru_maxrss`` from ``os.wait4``, in
KiB.  Linux carries the spawning process's peak into a child's
``ru_maxrss`` across exec, so each command is spawned by ``SPAWNER``, a
small ``python -S`` process that reports the command's exit code and peak,
not by the runner itself.
"""

import hashlib
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

MANIFEST = Path(__file__).parent / "golden" / "stdout.sha256"
SRC = Path(__file__).resolve().parents[1] / "src"
CEILING_MB = 200
CHUNK = 1 << 16
# Run as ``python -S -c SPAWNER <fd> <argv...>``: spawn argv with the same
# stdin, stdout and stderr, then write "<exit code> <peak KiB>" to fd.
SPAWNER = """\
import os, sys
fd = int(sys.argv[1])
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ, file_actions=[(os.POSIX_SPAWN_CLOSE, fd)])
_, status, usage = os.wait4(pid, 0)
os.write(fd, b"%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss))
"""


class Pin(NamedTuple):
    line: int
    sha256: str
    code: int
    timeout: int | None  # seconds for a ``ci`` line, None for a ``test`` line
    argv: tuple[str, ...]
    ceiling_mb: int  # the peak RSS at which a ``ci`` line fails


def read(path=MANIFEST):
    """Every pin of the manifest, in file order; a malformed line raises
    ``ValueError`` naming it."""
    pins, seen = [], set()
    for number, text in enumerate(Path(path).read_text().splitlines(), 1):
        if not text.strip() or text.lstrip().startswith("#"):
            continue
        fields = text.split()
        digest, code, tier = (fields + ["", "", ""])[:3]
        argv, kind = tuple(fields[3:]), tier.partition(":")[0]
        for ok, why in [
            (re.fullmatch("[0-9a-f]{64}", digest), "the hash is not 64 lowercase hex digits"),
            (re.fullmatch("-?[0-9]+", code), f"exit code {code!r} is not an integer"),
            (re.fullmatch("test|ci(:[1-9][0-9]*){1,2}", tier), f"unknown tier {tier!r}"),
            (argv, "no argv"),
            ((kind, argv) not in seen, f"this argv is already pinned in tier {kind}"),
        ]:
            if not ok:
                raise ValueError(f"{path}:{number}: {why}")
        seen.add((kind, argv))
        timeout, ceiling_mb = None, CEILING_MB
        if kind == "ci":
            seconds, _, mb = tier[3:].partition(":")
            timeout, ceiling_mb = int(seconds), int(mb or CEILING_MB)
        pins.append(Pin(number, digest, int(code), timeout, argv, ceiling_mb))
    return pins


def run(pin):
    """Run one ``ci`` pin end to end: return why it failed (empty if it
    passed), its wall time in seconds and its peak RSS in MB."""
    start = time.monotonic()
    read_fd, write_fd = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-S", "-c", SPAWNER, str(write_fd), sys.executable, "-m", "splitpat.cli", *pin.argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        pass_fds=[write_fd],
        start_new_session=True,  # so a timeout kills the command too
    )
    os.close(write_fd)
    timer = threading.Timer(pin.timeout, os.killpg, [proc.pid, signal.SIGKILL])
    timer.start()
    digest = hashlib.sha256()
    with proc.stdout:
        while chunk := proc.stdout.read(CHUNK):
            digest.update(chunk)
    timer.cancel()
    timer.join()
    with os.fdopen(read_fd) as report:
        fields = report.read().split()
    status = proc.wait()
    # A spawner killed at the timeout reports nothing; its own status stands.
    code, peak_kib = map(int, fields) if fields else (status, 0)
    seconds, peak_mb = time.monotonic() - start, peak_kib / 1024
    failures = [
        why
        for failed, why in [
            (seconds >= pin.timeout, f"timed out at {pin.timeout} s"),
            (code != pin.code, f"exit code {code}, pinned {pin.code}"),
            (digest.hexdigest() != pin.sha256, f"sha256 {digest.hexdigest()}, pinned {pin.sha256}"),
            (peak_mb >= pin.ceiling_mb, f"peak reached {pin.ceiling_mb} MB"),
        ]
        if failed
    ]
    return "; ".join(failures), seconds, peak_mb


def main(argv=None):
    """Run every ``ci`` pin of the manifest named in ``argv`` (by default the
    committed one); return 1 if any fails or there is none, else 0."""
    args = sys.argv[1:] if argv is None else argv
    path = args[0] if args else MANIFEST
    pins = [pin for pin in read(path) if pin.timeout is not None]
    failed = 0
    for pin in pins:
        why, seconds, peak_mb = run(pin)
        line = f"{'FAILED' if why else 'ok':6} {seconds:6.2f} s {peak_mb:6.1f} MB"
        line += f"  line {pin.line}: {' '.join(pin.argv)}"
        print(f"{line}: {why}" if why else line, flush=True)
        failed += bool(why)
    if not pins:
        print(f"{path}: no ci line")
    return int(failed > 0 or not pins)


if __name__ == "__main__":
    sys.exit(main())
