"""Time a fixed pure-Python loop: how fast this CPU runs Python right now.

Usage: python3 calibrate.py

Prints the loop's wall time in seconds. The loop does the kind of work the
cherpoi CLI does (``Fraction`` arithmetic, a dict of 13,000 tuple
keys, short sorts) and uses nothing from cherpoi, so a change to the program
never changes it. run.py starts it as a fresh process before and after each
timed process, so that both meet the same share of a shared host.
"""

from __future__ import annotations

import time
from fractions import Fraction

ROUNDS = 40_000


def calibration_loop() -> int:
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, ROUNDS):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 997, i % 13)
        table[key] = table.get(key, 0) + i * i
        if i % 50 == 0:
            sorted(table.values())[:5]
    return len(table) + acc.denominator % 7


def main() -> None:
    start = time.perf_counter()
    calibration_loop()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
