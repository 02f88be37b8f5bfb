"""Child-process steps of the benchmark that are not command-line calls.

    python steps.py setup CONFIG...       import pdmpruin.cli, load the configs
    python steps.py jumplaw SPEC OUT      run the jump-law library step

``setup`` is what ``setup_s`` times: a fresh interpreter that imports the
command line and parses the workload's configs, running no solver.

``jumplaw`` evaluates ``phase_type.tail``/``density`` on the output grid of
each jump law and Kolmogorov-Smirnov-tests ``sample`` draws against ``tail``.
It writes the values and the KS statistic to OUT and prints the time each
piece of library calls took as one JSON object; ``jumplaw_s`` is built from
those times.  The traced run calls :func:`jumplaw` in-process with the
phase-type functions wrapped, so it always reaches them through the
``phase_type`` module.
"""

from __future__ import annotations

import json
import sys
import time


def setup(config_paths) -> None:
    from pdmpruin import cli  # noqa: F401  (the import is what is timed)
    from pdmpruin.serialization import load_config_file

    for path in config_paths:
        load_config_file(path)


KS_CHUNK = 100


def jumplaw(spec: dict) -> tuple[dict, dict]:
    """Run the step; returns the (deterministic) result and the time of each piece.

    Each law's pieces -- tail on the grid, density on the grid, the draws,
    and the KS test against tail in chunks of ``KS_CHUNK`` draws -- are timed
    separately, so that the harness can take each piece's best pass.
    """
    import numpy as np

    from pdmpruin import phase_type

    g = spec["grid"]
    grid = [g["start"] + (g["stop"] - g["start"]) * i / (g["points"] - 1) for i in range(g["points"])]
    result = {"grid": grid, "laws": {}}
    times = {}
    for name, law in spec["laws"].items():
        pt = phase_type.PhaseType(np.asarray(law["beta"], float), np.asarray(law["B"], float))
        t0 = time.perf_counter()
        tail = [phase_type.tail(pt, x) for x in grid]
        t1 = time.perf_counter()
        dens = [phase_type.density(pt, x) for x in grid]
        t2 = time.perf_counter()
        draws = np.sort(phase_type.sample(pt, np.random.default_rng(spec["seed"]), size=spec["draws"]))
        t3 = time.perf_counter()
        times.update({f"{name}.tail": t1 - t0, f"{name}.density": t2 - t1, f"{name}.sample": t3 - t2})
        cdf = []
        for k in range(0, draws.size, KS_CHUNK):
            t0 = time.perf_counter()
            cdf.extend(1.0 - phase_type.tail(pt, float(x)) for x in draws[k : k + KS_CHUNK])
            times[f"{name}.ks{k // KS_CHUNK}"] = time.perf_counter() - t0
        cdf = np.array(cdf)
        n = draws.size
        ks = float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))
        result["laws"][name] = {"tail": tail, "density": dens, "ks_statistic": ks, "draws": int(n)}
    return result, times


def main(argv) -> int:
    if argv[:1] == ["setup"]:
        setup(argv[1:])
        return 0
    if argv[:1] == ["jumplaw"] and len(argv) == 3:
        with open(argv[1]) as f:
            spec = json.load(f)
        result, times = jumplaw(spec)
        with open(argv[2], "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
        print(json.dumps(times))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
