"""Seeded workload inputs.

The program receives only what this module generates: a grid level and
the keyword arguments of one rotating-cone instance (diffusion and cone
centre drawn from a narrow band, so every instance does about the same
kernel work), plus, on ``chaos``, one fault spec per run.  Every draw is
a ``random.Random`` seeded with a string naming the workload, the seed
and the run index, so the same seed gives the same inputs in any
process and different seeds give different ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

ROOT = 2
TOL = 1.0e-3
PROBLEM = "rotating-cone"
#: the combined array's grid cap, as ``run_multiprocessing`` defaults it
TARGET_CAP = 8

#: why each workload exists (mirrored by ``BENCHMARK.json``)
WORKLOADS = {
    "sweep": "distinct level-6 instance per run on the warm pool, so no "
    "cache key repeats and kernel work (assembly, LU, solves) dominates",
    "replay": "one fixed level-5 instance re-solved on the warm pool with "
    "caches filled in set-up: no assembly or LU, only solves, RHS, "
    "dispatch and combination",
    "socket": "the replay instance through engine='socket', spawning one "
    "loopback daemon per process on every call, so daemon spawn dominates",
    "chaos": "the replay instance on the warm pool with one seeded crash "
    "or raise per run under the default retry and deadline policies",
}

LEVELS = {"sweep": 6, "replay": 5, "socket": 5, "chaos": 5}

#: the narrow band instances are drawn from
DIFFUSION_BAND = (0.9e-3, 1.1e-3)
CENTRE_X_BAND = (0.48, 0.52)
CENTRE_Y_BAND = (0.73, 0.77)

FAULT_KINDS = ("crash", "raise")


@dataclass(frozen=True)
class RunInput:
    """Everything one timed run hands the program."""

    level: int
    #: sorted ``(name, value)`` pairs for ``rotating_cone_problem``
    problem_kwargs: tuple
    #: ``--faults`` spec (``kind@l,m``), chaos only
    faults: Optional[str] = None

    def kwargs(self) -> dict:
        return dict(self.problem_kwargs)


def cone_kwargs(rng: random.Random) -> tuple:
    """One rotating-cone instance from the narrow band."""
    return (
        (
            "centre",
            (
                round(rng.uniform(*CENTRE_X_BAND), 6),
                round(rng.uniform(*CENTRE_Y_BAND), 6),
            ),
        ),
        ("diffusion", round(rng.uniform(*DIFFUSION_BAND), 9)),
    )


def loop_grids(level: int) -> list[tuple[int, int]]:
    """The ``(l, m)`` grids of the paper's nested loop at ``level``."""
    return [(l, lm - l) for lm in (level - 1, level) for l in range(lm + 1)]


class Inputs:
    """The input sequence of one workload and seed.

    ``run_input(i)`` is the input of the ``i``-th timed run and
    ``warmup_input()`` the one set-up uses.  On ``sweep`` every index
    gets its own instance; a repeat is redrawn, so no two runs of one
    sequence share an operator-cache key.  The other workloads re-solve
    one instance drawn from the seed.
    """

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}"
            )
        self.workload = workload
        self.seed = seed
        self.level = LEVELS[workload]
        self._fixed = cone_kwargs(random.Random(f"instance:{seed}"))
        self._sweep: dict[object, tuple] = {}
        self._drawn: set[tuple] = set()

    def _sweep_kwargs(self, index: object) -> tuple:
        kwargs = self._sweep.get(index)
        if kwargs is None:
            rng = random.Random(f"sweep:{self.seed}:{index}")
            kwargs = cone_kwargs(rng)
            while kwargs in self._drawn:
                kwargs = cone_kwargs(rng)
            self._drawn.add(kwargs)
            self._sweep[index] = kwargs
        return kwargs

    def warmup_input(self) -> RunInput:
        if self.workload == "sweep":
            return RunInput(self.level, self._sweep_kwargs("warmup"))
        return RunInput(self.level, self._fixed)

    def run_input(self, index: int) -> RunInput:
        if self.workload == "sweep":
            return RunInput(self.level, self._sweep_kwargs(index))
        faults = None
        if self.workload == "chaos":
            rng = random.Random(f"chaos:{self.seed}:{index}")
            kind = rng.choice(FAULT_KINDS)
            l, m = rng.choice(loop_grids(self.level))
            faults = f"{kind}@{l},{m}"
        return RunInput(self.level, self._fixed, faults)
