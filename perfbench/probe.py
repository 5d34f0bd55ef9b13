"""Set-up probe: one fresh interpreter's imports, spec build and request.

Prints the seconds from its first line to a render request that is ready
to send.  ``run.py`` runs several probes and reports their median as
``setup_s``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def main(argv) -> int:
    workload_name, seed, n_frames, width, height = argv
    import numpy  # noqa: F401

    from repro.api import RenderRequest

    from workloads import WORKLOADS, spec_for

    workload = WORKLOADS[workload_name]
    spec = spec_for(workload.scene, int(seed), int(n_frames), int(width), int(height))
    spec.build()
    RenderRequest(workload=spec, **workload.request)
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
