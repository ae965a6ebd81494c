"""Write synth_pins.json: the tower-synth outputs of every synthetic seed.

The tower-synth workload compares its library jobs' outputs with these
pins, so a change to `synthesize_queue`, the peel, the vanishing orders
or the evaluation at zeta shows up as a failed job, not as a speed-up.
Regenerate only when such a change is intended:

    python3 bench/pin_synth.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SYNTH, SYNTH_PINS, tower_synth  # noqa: E402
from worker import LIB_JOBS, SRC  # noqa: E402


def main():
    sys.path.insert(0, SRC)
    seeds = {}
    for seed in range(32):
        state, info = {}, {}
        for job in tower_synth(seed, HERE.parent, HERE):
            if job["kind"] in LIB_JOBS:
                info.update(LIB_JOBS[job["kind"]](job, state)())
        seeds[str(seed)] = info
    SYNTH_PINS.write_text(json.dumps({"tower": SYNTH, "seeds": seeds},
                                     indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
