"""Run one flowdpi command through ``flowdpi.cli.main`` in this process.

    python3 child.py PEAK_OUT TRACE_OUT COMMAND [ARGS...]

The process's peak resident memory in KiB is written to PEAK_OUT when
the command returns. TRACE_OUT is ``-`` for an untraced run; otherwise
the layer spans of ``tracer.SPANS[COMMAND]`` are recorded and written
there as JSON. ``flowdpi`` is found through PYTHONPATH.
"""

import sys


def peak_rss_kib() -> int:
    """High-water resident set of this process image. The parent cannot
    take it from wait4: Linux carries the parent's own peak over into a
    child's ru_maxrss across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    peak_out, trace_out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = None
    if trace_out != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(argv[0])
    from flowdpi.cli import main as flowdpi_main
    code = flowdpi_main(argv)
    if tracer is not None:
        tracer.dump(trace_out)
    with open(peak_out, "w", encoding="ascii") as fp:
        fp.write(f"{peak_rss_kib()}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
