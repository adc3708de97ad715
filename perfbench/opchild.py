"""Run one singval CLI op in this fresh interpreter and report its timings.

    python3 opchild.py REPORT TRACE ARGV...

REPORT is a file for one JSON object:
  started  the monotonic clock when this script starts (the parent
           subtracts its spawn time to get the bare interpreter start-up)
  kernel   the time of calib.py's kernel, run before singval is imported
  import   the time of `import json, sys, singval.cli` after the kernel
  elapsed  the wall time of `singval.cli.main(ARGV)` with stdout flushed
  code     the exit code
  module   the file singval was imported from
and with TRACE = 1 the per-layer record from layers.py.
"""

import time

STARTED = time.monotonic()

import gc  # noqa: E402

import calib  # noqa: E402

KERNEL = calib.measure(time.perf_counter)
gc.collect()  # the op starts from the heap a fresh interpreter has

_t0 = time.perf_counter()
import json  # noqa: E402
import sys  # noqa: E402

import singval.cli  # noqa: E402

IMPORT = time.perf_counter() - _t0


def main() -> None:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    recorder = None
    if trace:
        import layers

        recorder = layers.Recorder()
        recorder.install()
        recorder.start()
    t0 = time.perf_counter()
    try:
        code = singval.cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    elapsed = time.perf_counter() - t0
    report = {"started": STARTED, "kernel": KERNEL, "import": IMPORT, "elapsed": elapsed,
              "code": code, "module": singval.cli.__file__}
    if recorder is not None:
        report["layers"] = recorder.finish()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
