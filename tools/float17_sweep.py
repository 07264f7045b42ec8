"""Fuzz the exact ``%.17g`` table writer against ``%``, cell by cell.

Run from anywhere:

    python tools/float17_sweep.py --count 4000000 --seed 1

It renders ``--count`` float64 cells through ``ifmlab.report._float_table``
in blocks of ``--block`` cells (one trace-style and one JSON-style layout,
in turn) and through one ``%`` per block, and compares the two texts.  The
cells are, in equal shares:

- random 64-bit patterns (every exponent, NaNs and infinities included);
- random patterns whose magnitude lies in the writer's exact range,
  ``1e-28`` to ``1e17``;
- near-ties: 18-digit decimals ending in 5, parsed to the nearest double,
  and exact ties ``n / 4`` for odd ``n`` near ``2**53``;
- decimals rounded to 1-17 digits, and doubles next to powers of ten.

It prints the count, the mismatches (the first few with their cells) and
the time each side took on each kind of cell.  The exit status is 1 when any cell differed.
Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from ifmlab.report import _float_table, spell_floats  # noqa: E402

LAYOUTS = ((",", "", "\n"), (", ", "[", "], "))
WIDTH = 16


def random_patterns(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)


def exact_range(rng: np.random.Generator, n: int) -> np.ndarray:
    mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
    binary = rng.integers(-93, 57, n).astype(np.int64) + 1023  # 2**-93 < 1e-28, 2**56 < 1e17
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    return (sign | binary.astype(np.uint64) << np.uint64(52) | mantissa).view(np.float64)


def near_ties(rng: np.random.Generator, n: int) -> np.ndarray:
    half = n // 2
    digits = rng.integers(10**16, 10**17, half, dtype=np.int64)
    scale = rng.integers(-28, 17, half)
    parsed = [float(f"{d}5e{s - 17}") for d, s in zip(digits.tolist(), scale.tolist())]
    odd = (2**53 - 1 - 2 * rng.integers(0, 2**40, n - half, dtype=np.int64)).astype(np.float64)
    return np.concatenate([parsed, odd / 4.0 * rng.choice([-1.0, 1.0], n - half)])


def decimals(rng: np.random.Generator, n: int) -> np.ndarray:
    half = n // 2
    x = rng.uniform(1.0, 10.0, half) * 10.0 ** rng.integers(-30, 19, half)
    rounded = [float("%.*g" % (p, v)) for p, v in zip(rng.integers(1, 18, half).tolist(), x.tolist())]
    powers = 10.0 ** rng.integers(-30, 19, n - half)
    steps = rng.integers(-3, 4, n - half)
    near = [float(np.nextafter(p, np.inf if s > 0 else 0.0)) if s else p for p, s in zip(powers, steps)]
    return np.concatenate([rounded, near])


KINDS = (random_patterns, exact_range, near_ties, decimals)


def reference(cells: np.ndarray, sep: str, row_open: str, row_close: str) -> str:
    row = row_open + sep.join(["%.17g"] * cells.shape[1]) + row_close
    return spell_floats((row * cells.shape[0]) % tuple(cells.ravel().tolist()))


def cells_of(text: str, sep: str, row_open: str, row_close: str) -> list[str]:
    return text.replace(row_close, sep).replace(row_open, "").split(sep)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=4_000_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--block", type=int, default=4096, help="cells per writer call")
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    rows = max(1, args.block // WIDTH)
    done = mismatched = 0
    seconds = {kind.__name__: [0, 0.0, 0.0] for kind in KINDS}  # cells, writer, %
    shown = []
    while done < args.count:
        kind = KINDS[(done // (rows * WIDTH)) % len(KINDS)]
        cells = kind(rng, rows * WIDTH).reshape(rows, WIDTH)
        layout = LAYOUTS[(done // (rows * WIDTH)) % 2]
        started = perf_counter()
        got = _float_table(cells, *layout)
        middle = perf_counter()
        want = reference(cells, *layout)
        tally = seconds[kind.__name__]
        tally[:] = tally[0] + cells.size, tally[1] + middle - started, tally[2] + perf_counter() - middle
        if got != want:
            for x, g, w in zip(cells.ravel().tolist(), cells_of(got, *layout), cells_of(want, *layout)):
                if g != w:
                    mismatched += 1
                    if len(shown) < 10:
                        shown.append(f"  {x!r}: writer {g!r}, % {w!r}")
        done += cells.size
    print(f"cells: {done} in blocks of {rows} x {WIDTH}, seed {args.seed}")
    print(f"mismatches: {mismatched}", *shown, sep="\n")
    for name, (count, writer_s, percent_s) in seconds.items():
        print(f"{name}: {count} cells, writer {writer_s:.2f} s ({writer_s / count * 1e9:.0f} ns/cell), "
              f"% {percent_s:.2f} s ({percent_s / count * 1e9:.0f} ns/cell)")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
