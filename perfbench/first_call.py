"""Set-up probe: time to import fbl and make a workload's first call.

Usage: python3 first_call.py SRC_DIR WORKLOAD.  Prints the elapsed wall
seconds, measured from before the first import, and the same time in
reference seconds (see reference.py), as a JSON object on stdout.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

FIRST_CALLS = {
    "norm_search": ["norm", "--space", "l2:4", "--expr", "d(1,0,0,0)",
                    "--k", "4", "--restarts", "1"],
    "lift_verify": ["lift-verify", "--space", "l1:2", "--instances", "10",
                    "--coeff-vectors", "1", "--restarts", "1"],
    "lemma44": ["lemma44", "--instances", "1"],
}


def main():
    src, workload = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import fbl.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = fbl.cli.run(FIRST_CALLS[workload])
    elapsed = time.perf_counter() - T0

    import reference

    ref = sorted(reference.reference_time() for _ in range(5))[2]
    print(json.dumps({"wall_s": elapsed, "setup_s": elapsed / ref * reference.REFERENCE_S,
                      "exit": code}))


if __name__ == "__main__":
    main()
