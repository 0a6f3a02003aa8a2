"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON LAUNCH_NS

LAUNCH_NS is time.monotonic_ns() in the parent just before it started this
process; set-up time runs from then until rtlab.cli is imported.  The spec
lists the CLI argument lists to run in order, the output directory and
whether to install the timing shims.  The result goes to result.json in the
output directory; the commands' own stdout is discarded.
"""

import os
import sys
import time

_LAUNCH_NS = int(sys.argv[2])
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, _SRC)

import rtlab.cli  # noqa: E402  (set-up ends here)

SETUP_S = (time.monotonic_ns() - _LAUNCH_NS) / 1e9

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def machine() -> dict:
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads()}


def run_commands(command_list) -> list:
    out = []
    with open(os.devnull, "w") as sink:
        for argv in command_list:
            start = time.perf_counter()
            rc, error = None, None
            try:
                with contextlib.redirect_stdout(sink):
                    rc = rtlab.cli.main(argv)
            except SystemExit as exc:          # argparse usage errors
                rc = exc.code
            except Exception:                  # counted as a failed command
                error = traceback.format_exc(limit=3)
            out.append({"argv": argv, "rc": rc, "error": error,
                        "seconds": time.perf_counter() - start})
    return out


def main() -> int:
    if not os.path.abspath(rtlab.cli.__file__).startswith(_SRC + os.sep):
        print(f"rtlab imported from {rtlab.cli.__file__}, not {_SRC}", file=sys.stderr)
        return 2
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = {"setup_s": SETUP_S, "commands": []}
    if spec["commands"]:
        recorder = None
        if spec["trace"]:
            import shims
            recorder = shims.install()
        os.chdir(spec["outdir"])
        cpu0, wall0 = time.process_time(), time.perf_counter()
        result["commands"] = run_commands(spec["commands"])
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
        if recorder is not None:
            result["trace"] = recorder.export()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["machine"] = machine()
    with open(os.path.join(spec["outdir"], "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
