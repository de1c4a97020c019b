"""Per-layer counts of one traced operation at fixed anchor inputs.

    python3 perfbench/anchor.py

Traces one `horizon` operation at (mu_bar, sigma2_bar) = (0.05, 0.07) and one
`point` operation at (mu, sigma) = (0.05, 0.3), after an untraced warm-up of
each, and prints the counts and self times that README.md quotes.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def traced_once(op, x):
    op(x)
    t = tr.Tracer()
    t.install()
    try:
        op(x)
    finally:
        t.uninstall()
    return {k: round(v, 4) for k, v in t.metrics(1).items() if v}


def main():
    horizon = wl.HorizonIn(0.05, 0.07, "mid_var", ref.stationary_theta(0.05, 0.07))
    print(json.dumps({
        "horizon (0.05, 0.07)": traced_once(wl.horizon_op, horizon),
        "point (0.05, 0.3)": traced_once(wl.point_op, wl.PointIn(0.05, 0.3, False)),
    }, indent=1))


if __name__ == "__main__":
    main()
