"""How fast the host runs right now, from a fixed reference computation.

On a shared host the same campaign can take 1.5 to 2 times as long from
one minute to the next, because co-located work slows every instruction
(wall time and CPU time grow alike; the guest's steal time stays near
zero).  The benchmark therefore times a small reference computation,
which never touches the program, right before and right after every
campaign, and reports campaign times scaled to a host on which the
reference takes :data:`REFERENCE_S`.  A change to the program cannot
move the reference, so scaled times still show every change to the
program, while the host's drift largely cancels.  Over two sets of ten
25-second runs per workload, the spread of the median wall time
(interquartile range over median) was 0.05-0.26 measured and 0.02-0.11
scaled.

The reference mixes the two kinds of work the campaigns do: NumPy
stencils, copies and a small matrix product (the kernels' steps and
snapshot restores), and an interpreted nearest-neighbour scan (CLAMR's
k-d tree queries), about half the time each.  A workload that keeps
several cores busy is probed on as many at once (:class:`HostProbe`).
"""

from __future__ import annotations

import math
import os
import struct
import time
from typing import NoReturn

__all__ = ["REFERENCE_S", "HostProbe", "probe_s", "scaled"]

#: Scaled times are seconds on a host on which the reference takes this
#: long.  On the 2-vCPU Sapphire Rapids KVM guest the benchmark was
#: built on, it took from 15 to 25 ms, depending on co-located load.
REFERENCE_S = 0.02


def probe_s() -> float:
    """Seconds the reference computation takes now."""
    # Imported here: NumPy must load after the caller has fixed its BLAS
    # thread count.
    import numpy as np

    seed_grid = np.random.default_rng(0).random((128, 128))
    points = np.random.default_rng(1).random((300, 2)).tolist()
    start = time.perf_counter()
    grid = seed_grid
    for _ in range(60):
        grid = 0.2 * (
            grid
            + np.roll(grid, 1, 0)
            + np.roll(grid, -1, 0)
            + np.roll(grid, 1, 1)
            + np.roll(grid, -1, 1)
        )
        restored = grid.copy()
        restored[::7] += 1.0
    product = seed_grid[:64, :64]
    for _ in range(20):
        product = (product @ seed_grid[:64, :64]) * 0.01
    nearest = 0.0
    for qx, qy in points:
        best = math.inf
        for px, py in points:
            d = (px - qx) * (px - qx) + (py - qy) * (py - qy)
            if d < best:
                best = d
        nearest += best
    return time.perf_counter() - start


def scaled(seconds: float, before_s: float, after_s: float) -> float:
    """``seconds`` measured between two probes, as seconds on the reference host."""
    return seconds * REFERENCE_S / ((before_s + after_s) / 2.0)


class HostProbe:
    """Times the reference on ``width`` cores at the same moment.

    A campaign spread over several worker processes is slowed by load on
    every core it uses, so this process and ``width - 1`` helper
    processes each run the reference at once, and a probe reads their
    mean.  The helpers are forked on construction, so construct it while
    this process has no threads, and close it to end them.
    """

    def __init__(self, width: int):
        self._helpers: list[tuple[int, int, int]] = []  # pid, command fd, reply fd
        for _ in range(width - 1):
            command_r, command_w = os.pipe()
            reply_r, reply_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(command_w)
                os.close(reply_r)
                _helper(command_r, reply_w)
            os.close(command_r)
            os.close(reply_w)
            self._helpers.append((pid, command_w, reply_r))

    def __call__(self) -> float:
        for _, command, _ in self._helpers:
            os.write(command, b"p")
        times = [probe_s()]
        for _, _, reply in self._helpers:
            data = os.read(reply, 8)
            if len(data) != 8:
                raise RuntimeError("a host probe helper ended early")
            times.append(struct.unpack("d", data)[0])
        return sum(times) / len(times)

    def close(self) -> None:
        # An explicit quit, not end-of-file: engine workers forked after
        # the helpers hold copies of the command pipes.
        while self._helpers:
            pid, command, reply = self._helpers.pop()
            os.write(command, b"q")
            os.close(command)
            os.close(reply)
            os.waitpid(pid, 0)

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _helper(command: int, reply: int) -> NoReturn:
    status = 1
    try:
        while os.read(command, 1) == b"p":
            os.write(reply, struct.pack("d", probe_s()))
        status = 0
    finally:
        os._exit(status)
