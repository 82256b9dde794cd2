"""Set-up cost of one workload, measured in a fresh interpreter.

    python3 perfbench/probe.py <workload> <scratch-dir>

Prints ``{"import_s": ..., "first_call_s": ...}``: the time to import
``lglab.cli``, then the time of one tiny first call into each layer the
workload uses.  The second part counts lazy costs every CLI invocation pays,
such as the sympy import inside ``hopf_point``.  Only the standard library
is imported before the clock starts, so numpy, scipy and sympy count too.
The same tiny calls warm up the benchmark process before it is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

_STOCH = ["--a", "0.4", "--b", "0.1", "--k1", "0.08", "--k2", "0.2",
          "--m", "0.0025", "--sigma1", "0.1", "--sigma2", "0.1"]
_CYCLE = ["--a", "1.0", "--b", "0.05", "--k1", "0.1", "--k2", "0.1",
          "--m", "0.01"]
_HOPF_A = ["--a", "1.1", "--b", "0.3", "--k1", "0.08", "--k2", "0.01",
           "--m", "0.0025"]

FIRST_CALLS = {
    "mc-wide": [
        ["sde", "ensemble", *_STOCH, "--seed", "0", "--paths", "2",
         "--t-max", "0.5", "--checkpoints", "0.5", "--scheme", scheme]
        for scheme in ("log-euler", "milstein")
    ] + ["integrate_batch"],
    "paths-narrow": [
        ["ode", *_CYCLE, "--h", "0.01", "--t-max", "1", "--detect-cycle"],
        ["ode", *_CYCLE, "--h", "0.01", "--t-max", "1", "--scheme", "euler"],
        ["sde", "path", *_STOCH, "--seed", "0", "--t-max", "1"],
        ["sde", "path", *_STOCH, "--seed", "0", "--t-max", "1",
         "--scheme", "milstein"],
        ["sde", "path", *_STOCH, "--seed", "0", "--t-max", "1", "--comparison"],
        ["sde", "stationary", *_STOCH, "--seed", "0", "--burn-in", "0.5",
         "--t-max", "1"],
        ["sde", "hitting", *_STOCH, "--seed", "0", "--paths", "2",
         "--t-cap", "1", "--target", "0.4,0.6,0.6,0.8"],
    ],
    "analysis-sweep": [
        ["analyze", *_HOPF_A, "--hopf"],
        ["scan", *_HOPF_A, "--scan", "b", "--from", "0.1", "--to", "0.5",
         "--steps", "2"],
    ],
}


def first_calls(workload: str, out_dir: str) -> None:
    """Run the workload's tiny first calls; raise if any of them fails."""
    import lglab.cli
    for argv in FIRST_CALLS[workload]:
        if argv == "integrate_batch":
            import numpy as np
            from lglab import ode_sim
            ode_sim.integrate_batch(0.4, 0.1, 0.08, 0.2, 0.0025,
                                    np.full((2, 2), 0.5), 1e-3, 10)
            continue
        out = os.path.join(out_dir, "first-call")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = lglab.cli.main([*argv, "--out", out])
        if rc != 0:
            raise RuntimeError(f"first call {argv[:2]} exited {rc}: "
                               f"{err.getvalue().strip()}")


def main() -> int:
    workload, out_dir = sys.argv[1], sys.argv[2]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    import lglab.cli  # noqa: F401
    t1 = time.perf_counter()
    first_calls(workload, out_dir)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_call_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
