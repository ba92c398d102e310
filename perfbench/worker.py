"""The workload process of an in-process workload: runs the timed closed loop only.

    python perfbench/worker.py WORKLOAD SEED SECONDS RESULTS.pickle

Runs whole rounds until SECONDS of normalised operation time (see
`pace.py`) and at least 100 operations.  After each operation it times the reference kernel of
`pace.py`.  Writes (round, index, seconds, kernel seconds, result, error)
per operation to RESULTS; the parent regenerates the operations from the
seed and checks every result with the oracle afterwards.  Keeping the oracle out of this
process keeps its caches out of the measured peak memory and out of the
garbage collector's way while operations are timed.
"""

import pickle
import sys
from pathlib import Path
from time import perf_counter

from pace import scaled, time_kernel
from run import SRC, WALL_CAP_S, Workload, enough, run_op


def main() -> None:
    name, seed, seconds, out = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), Path(sys.argv[4])
    sys.path.insert(0, str(SRC))
    wl = Workload(name, seed, out.parent)
    for op in wl.warm_up_ops():
        run_op(op, None)
    start = perf_counter()
    busy, count, r, refs = 0.0, 0, 0, []
    with open(out, "wb") as fh:
        while not enough(busy, count, seconds, start):
            for i, op in enumerate(wl.round(r)):
                dt, result, error = run_op(op, None)
                refs.append(time_kernel())
                pickle.dump((r, i, dt, refs[-1], result, error), fh, protocol=pickle.HIGHEST_PROTOCOL)
                busy += scaled(dt, refs)
                count += 1
                if perf_counter() - start > WALL_CAP_S:
                    return
            r += 1


if __name__ == "__main__":
    main()
