"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports ``repro.cli``, builds the workload's first input and constructs
the engine and evaluation service its first step needs, then prints one
JSON line with its own timings and exits.  The parent times the whole
probe, interpreter start included.  The probe runs the calibration unit
before and after, on the CPU it ran on, so the parent can normalise the
time for host speed as it does step times.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main(name: str, seed: int) -> dict:
    import calibrate

    c0 = perf_counter()
    before = min(calibrate.unit() for _ in range(3))
    t0 = perf_counter()
    import repro.cli  # noqa: F401  (what a user's first command loads)

    t1 = perf_counter()
    from cases import CASES, build_inputs, build_service, make_engine

    case = CASES[name]
    inputs = build_inputs(case, seed, count=1)  # what a first step needs
    t2 = perf_counter()
    make_engine(case, inputs[0], seed)
    build_service(case, inputs[0])
    t3 = perf_counter()
    after = min(calibrate.unit() for _ in range(3))
    return {
        "import_s": t1 - t0,
        "build_ms": (t2 - t1) * 1e3,
        "engine_ms": (t3 - t2) * 1e3,
        "slowdown": (before + after) / 2 / calibrate.REFERENCE_S,
        "calibration_s": (t0 - c0) + (perf_counter() - t3),
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))), flush=True)
