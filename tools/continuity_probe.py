"""Per-call time of `core.continuity_witnesses` on the band models.

    PYTHONPATH=src python3 tools/continuity_probe.py [SEGMENTS ...]

For the Möbius and annulus models with each number of segments (default
32), the script builds the holonomy groupoid and times
`continuity_witnesses` on the two topologies the package checks: the
holonomy quotient's (`holonomy_topology`) and the ambient arrow topology of
`check_extendible`.  Each time is the best of `CALLS` calls, in ms, each
call's wall time corrected to perfbench's nominal machine speed by the
reference loop of `perfbench/speed.py` (sampled before, during and after
the call); ``speed_of_nominal`` is the mean speed the run measured.  On a shared host the speed changes from second to second: the
correction removes most of that change, and the best call is the one least
slowed by what is left.  The last stdout line is one JSON object, as
`tools/bench.py --probe` reads it.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
from speed import SpeedSampler  # noqa: E402

from groupoidkit.bisections import check_extendible  # noqa: E402
from groupoidkit.core import continuity_witnesses  # noqa: E402
from groupoidkit.holonomy import annulus_model, holonomy_pipeline, holonomy_topology, mobius_model  # noqa: E402

CALLS = 7


def per_call_ms(sampler, G, T) -> float:
    return 1000 * min(sampler.timed(lambda: continuity_witnesses(G, T))[2] for _ in range(CALLS))


def main(argv) -> int:
    metrics, sampler = {}, SpeedSampler()
    for n in map(int, argv or ["32"]):
        for name, model in (("mobius", mobius_model), ("annulus", annulus_model)):
            D = model(n)
            hol = holonomy_pipeline(D)
            for where, G, T in (("holonomy", hol.groupoid, holonomy_topology(hol)[0]),
                                ("ambient", D.G, check_extendible(D).topology)):
                metrics[f"{name}({n}).{where}_ms"] = {"value": per_call_ms(sampler, G, T), "unit": "ms"}
    metrics["speed_of_nominal"] = {"value": sampler.speed(), "unit": "ratio"}
    label = (f"in-process continuity_witnesses, outside perfbench's corpus: best of {CALLS} calls, each corrected "
             "to perfbench's nominal machine speed, on the holonomy and the check_extendible topology of each "
             "band model; speed_of_nominal is the machine speed the run measured")
    print(json.dumps({"label": label, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
