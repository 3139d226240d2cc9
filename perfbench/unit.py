"""Run one benchmark unit in a fresh process.

    python3 perfbench/unit.py FUNCTION UNIT_PICKLE RESULT_PICKLE

``workloads.Run`` starts this with a pickled ``workloads.Unit`` and reads
back the pickled result of ``workloads.FUNCTION(unit)``.  Importing numpy
and the package counts as set-up, as it does for every ``rxnseq`` command.
The thread count comes from the parent's environment.
"""

from __future__ import annotations

import logging
import pickle
import sys
from time import perf_counter

import run


def main() -> int:
    function, unit_path, result_path = sys.argv[1:]
    run.pin_threads()
    began = perf_counter()
    run.import_package()
    import workloads

    imported_s = perf_counter() - began
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(message)s")

    with open(unit_path, "rb") as handle:
        unit = pickle.load(handle)
    result = getattr(workloads, function)(unit)
    result["setup_s"] += imported_s
    with open(result_path, "wb") as handle:
        pickle.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
