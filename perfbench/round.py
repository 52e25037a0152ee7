"""One round of a workload in a fresh interpreter; prints one JSON line.

``run.py`` launches this script once per round and reads its last line.
The launch itself is timed by the parent, so this process starts by
importing the program (timed as ``import``) and then hands over to the
workload.  With ``--profile`` the calls into the program run under
cProfile, and the line carries per-package self time and call counts.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from pathlib import Path

import workloads
from workloads import PACKAGES

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def package_of(filename: str) -> str | None:
    """The ``repro`` package a profiled function's file belongs to."""
    parts = Path(filename).parts
    for i in range(len(parts) - 1, 0, -1):
        if parts[i - 1] == "repro" and i + 1 < len(parts):
            return parts[i] if parts[i] in PACKAGES else None
    return None


def layer_profile(profiler: cProfile.Profile) -> dict[str, dict[str, float]]:
    """Self time and call count per package from a finished profile."""
    split = {name: {"self_s": 0.0, "calls": 0} for name in PACKAGES}
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        package = package_of(filename)
        if package is not None:
            _primitive, calls, self_time, _cumulative, _callers = row
            split[package]["self_s"] += self_time
            split[package]["calls"] += calls
    return split


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    clock = workloads.Clock()
    with clock.span("import"):
        import repro  # noqa: F401
        import repro.apps  # noqa: F401
        import repro.runner  # noqa: F401
        import repro.scenarios  # noqa: F401
    # Imports stay out of the profile: import_s times them on their own.
    profiler = clock.profiler = cProfile.Profile() if args.profile else None
    args.workdir.mkdir(parents=True, exist_ok=True)
    observed = workloads.WORKLOADS[args.workload](
        clock, args.seed, args.round, args.workdir, args.profile
    )
    line = observed.to_dict(clock)
    if profiler is not None:
        line["layers"] = layer_profile(profiler)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
