"""CPU speed sampler, run beside the passes on the CPU it samples.

    python3 sampler.py OUT.json

Every INTERVAL_S it runs a fixed pure-Python loop of a few milliseconds and
records (monotonic time, CPU seconds of the loop).  It stops when its
standard input closes and writes the samples to OUT.json.  The benchmark
scales each pass's time by the CPU's relative speed in the samples taken
during that pass, so a slow spell of the shared CPU stretches both and
cancels out.  The loop costs about 2% of the CPU.
"""

import json
import select
import sys
import time

INTERVAL_S = 0.2


def calibrate() -> float:
    """CPU seconds of the loop: the time it ran, not the time it waited."""
    t0 = time.thread_time()
    acc, table = 0, {}
    for i in range(30_000):
        acc = (acc * 31 + i) % 1_000_003
        key = acc & 1023
        table[key] = table.get(key, 0) + 1
    return time.thread_time() - t0


def main(out_path: str) -> int:
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        samples.append((time.monotonic(), calibrate()))
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(samples, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
