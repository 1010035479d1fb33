"""One benchmark set-up: import qsum and make one warm-up call of a workload's
entry point, then exit.  ``run.py`` times whole runs of this file.

    python3 perfbench/probe.py worst_sweep
"""

import sys

from run import import_program

if __name__ == "__main__":
    import_program()
    import workloads

    workloads.warm_up(sys.argv[1])
