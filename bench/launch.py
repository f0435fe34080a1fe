"""Run the adlsense command as its console script does, then record the
process's peak resident set size (VmHWM, in kB).

    PYTHONPATH=src python3 bench/launch.py PEAK_FILE TRACE_FILE|- ARGS...

The peak is read inside the process because a child's ru_maxrss also counts
the memory of the parent it was forked from. With a TRACE_FILE the layers'
public functions are wrapped in timing spans written there (see tracing.py).
"""

import sys


def main() -> int:
    peak_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if trace_path == "-":
        from adlsense.cli import main as cli_main

        code = cli_main(argv)
    else:
        import tracing

        code = tracing.traced_main(trace_path, argv)
    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(peak_path, "w", encoding="ascii") as fh:
        fh.write(peak + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
