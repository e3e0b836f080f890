"""Kernel micro-benchmark through the public ``kernels.cancellation_dp``.

Timing the public entry point, not a backend's private function, keeps
the numbers comparable when the kernel's implementation changes.  Three
word shapes at fixed lengths:

* ``random``  seeded random reduced words;
* ``dense``   commutator powers [a,b]^k, many inverse matches per letter,
              the kernel's worst case;
* ``sparse``  positive powers (ab)^k, no inverse matches at all.

Each (shape, L) is timed REPEATS times and reported as the median with
its quartiles.  Runs inside a worker (``worker.py --mode micro``), or
stand-alone from the repository root::

    python3 perfbench/micro.py --seed 1
"""

from __future__ import annotations

import random
import time

from stats import median_quartiles

SHAPES = ("random", "dense", "sparse")
LENGTHS = (16, 64, 128)
REPEATS = 7


def word(shape: str, length: int, rng: random.Random) -> tuple[int, ...]:
    if shape == "dense":
        return (-1, -2, 1, 2) * (length // 4)
    if shape == "sparse":
        return (1, 2) * (length // 2)
    codes: list[int] = []
    while len(codes) < length:
        c = rng.choice((1, 2, -1, -2))
        if not codes or codes[-1] != -c:
            codes.append(c)
    return tuple(codes)


def metric_name(shape: str, length: int) -> str:
    return f"kernels.micro.{shape}.L{length}_ms"


def measure(seed: int) -> dict:
    """{metric name: [median, q1, q3, norm]} for every shape and length."""
    from tasks import kernels

    rng = random.Random(f"{seed}:micro")
    out = {}
    for shape in SHAPES:
        for length in LENGTHS:
            codes = word(shape, length, rng)
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                norm = kernels.cancellation_dp(codes)
                times.append((time.perf_counter() - t0) * 1000.0)
            out[metric_name(shape, length)] = [*median_quartiles(times), int(norm)]
    return out


def check(results: dict) -> list[str]:
    """Invariants of the micro-benchmark's outputs."""
    problems = []
    for shape in SHAPES:
        for length in LENGTHS:
            norm = results[metric_name(shape, length)][3]
            if norm > length or (length - norm) % 2:
                problems.append(f"{shape} L={length}: norm {norm} breaks bound or parity")
            if shape == "sparse" and norm != length:
                problems.append(f"sparse L={length}: norm {norm} != {length}")
    return problems


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    res = measure(args.seed)
    print(f"{'metric':32} {'median':>9} {'q1':>9} {'q3':>9} {'norm':>5}")
    for name, (med, q1, q3, norm) in res.items():
        print(f"{name:32} {med:9.3f} {q1:9.3f} {q3:9.3f} {norm:5d}")
    problems = check(res)
    for p in problems:
        print("FAIL", p)
    raise SystemExit(1 if problems else 0)
