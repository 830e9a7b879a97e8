"""Small process that starts the timed commands on behalf of run.py.

A child's max RSS includes the memory of the process that spawned it (the
kernel carries the parent's high-water mark across exec), so spawning the
CLI straight from the benchmark would report the benchmark's own size for
every small command.  This launcher stays small (started with ``-S``) and
spawns each command itself.

Right before each spawn it also times a fixed pure-Python loop, the speed
reference that command times are scaled by (see README, Steadiness); the
loop and the scaling live here so run.py and spans.py share them.

Protocol: one JSON request per stdin line, {"argv": [...], "stdout": path,
"stderr": path}; one JSON reply per stdout line, {"wall_s", "status",
"maxrss_kib", "calibration_s"}.  The child's stdin is /dev/null.  Exits at
end of input.
"""

import json
import os
import statistics
import sys
import time

# Times are scaled to the host speed at which calibration() takes this long.
REFERENCE_S = 0.008
# Calls either side of a call whose calibration times set its host speed.
CALIBRATION_SPAN = 2


def calibration() -> float:
    """Seconds for a fixed mix of interpreter work: small-int arithmetic on
    tuples, then building and sorting a list of 10000 tuples."""
    start = time.perf_counter()
    acc = 0
    for i in range(10000):
        t = (i, i + 1, i * 3)
        acc += max(t) % 7 if t[0] < t[2] else len(t)
    sorted((i * 7919 % 10007, i) for i in range(10000))
    return time.perf_counter() - start


def at_reference_speed(walls: list[float], calibrations: list[float]) -> list[float]:
    """Each call's wall time scaled to the reference host speed.

    ``calibrations[i]`` is the calibration() time taken just before call i.
    The host's speed at a call is the median calibration time over the call
    and CALIBRATION_SPAN calls either side: one loop lasts milliseconds and
    is noisy on its own, while the host's slow spells last seconds.
    """
    return [
        wall * REFERENCE_S / statistics.median(calibrations[max(0, i - CALIBRATION_SPAN) : i + CALIBRATION_SPAN + 1])
        for i, wall in enumerate(walls)
    ]


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
        ]
        reference = calibration()
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {
            "wall_s": wall,
            "status": os.waitstatus_to_exitcode(status),
            "maxrss_kib": usage.ru_maxrss,
            "calibration_s": reference,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
