"""Run the tracebounds CLI from the checkout's ``src`` in this interpreter.

Usage:
    python3 perfbench/child.py [--spans OUT.json] [--rss OUT.txt] -- CLI ARGS...
    python3 perfbench/child.py --import-only

With ``--spans`` the package's public functions are traced and the
spans are written to OUT.json when the CLI returns. With ``--rss`` the
process's peak resident set (VmHWM, in KiB) is written to OUT.txt when
the CLI returns; unlike the parent's rusage of this child, it does not
count pages of the parent that were resident when it started this
process. ``--import-only`` imports ``tracebounds.cli`` and exits, which
is what every CLI call pays before it reads its input. The exit code
is the CLI's.
"""

import os
import sys

_SRC = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))


def _peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    sys.path.insert(0, _SRC)
    import tracebounds.cli

    if not os.path.abspath(tracebounds.cli.__file__).startswith(_SRC + os.sep):
        sys.stderr.write(f"imported tracebounds from {tracebounds.cli.__file__}, not {_SRC}\n")
        return 4
    if argv == ["--import-only"]:
        return 0
    opts = {}
    while argv[:1] in (["--spans"], ["--rss"]):
        opts[argv[0]], argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        sys.stderr.write("usage: child.py [--spans OUT.json] [--rss OUT.txt] -- CLI ARGS...\n")
        return 4

    tracer = None
    if "--spans" in opts:
        from spans import Tracer  # beside this script, first on sys.path

        tracer = Tracer()
        tracer.install()
    try:
        return tracebounds.cli.main(argv[1:])
    finally:
        if tracer is not None:
            tracer.dump(opts["--spans"])
        if "--rss" in opts:
            with open(opts["--rss"], "w", encoding="ascii") as fh:
                fh.write(f"{_peak_rss_kib()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
