"""Time one covlab set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py ROOT WORKLOAD SEED WORKDIR

Prints the set-up seconds scaled to reference speed, and the peak resident
memory in MB of this process, which imported covlab and ran one
replication of the workload.  ``run.py`` starts this so that every sample
pays for importing numpy, scipy and covlab, and starts from an empty heap.
The reference kernel runs here, after the set-up, so that it runs on the
same core as the set-up did; a core's speed can differ from the other's.
"""

import resource
import sys

from workloads import setup

if __name__ == "__main__":
    root, name, seed, workdir = sys.argv[1:]
    seconds = setup(root, name, int(seed), workdir)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    from reference import REF_S, Reference
    print(repr(seconds * REF_S / Reference().seconds()), repr(peak_mb))
