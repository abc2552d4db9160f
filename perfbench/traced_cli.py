"""One traced cli-cold request: `python traced_cli.py ARGS` runs
`qprob ARGS` like `python -m qprob` does, with the layer wrappers installed.

The parent passes its spawn time in PERFBENCH_SPAWN_NS and a file in
PERFBENCH_SPANS; the spans go to that file. The "startup" span covers
interpreter start plus `import qprob.cli`.
"""

import os
import sys
import time

import qprob.cli  # its end is the end of startup

_T_IMPORTED = time.monotonic_ns()

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.add("startup", int(os.environ["PERFBENCH_SPAWN_NS"]), _T_IMPORTED)
    try:
        with tracer.installed():
            return qprob.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
