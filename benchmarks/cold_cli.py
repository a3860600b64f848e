"""Run the `cuq` command in this fresh process, as its console script does,
then write this process's peak resident memory in kB to the file named by
the first argument:

    python3 benchmarks/cold_cli.py PEAK_FILE [cuq arguments ...]

The peak is VmHWM from /proc/self/status, which covers only this program.
The parent's wait4() figure would not do: a child started by vfork counts
the parent's resident memory in its own maximum.
"""

import sys


def _peak_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    peak_file = sys.argv.pop(1)
    sys.argv[0] = "cuq"
    from cuq.cli import main as cuq_main
    try:
        return cuq_main()
    finally:
        with open(peak_file, "w", encoding="ascii") as fh:
            fh.write(str(_peak_kb()))


if __name__ == "__main__":
    sys.exit(main())
