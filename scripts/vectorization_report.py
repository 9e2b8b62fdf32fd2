#!/usr/bin/env python3
"""Print the compiler's vectorization report for one translation unit.

Reruns the build's own compile command for SOURCE (taken from the
compile_commands.json database, so the flags, -march and defines are the
ones the build uses), with -fopt-info-vec appended and the object written to
/dev/null. Usage:

    scripts/vectorization_report.py [build/compile_commands.json] [SOURCE]

SOURCE defaults to src/tree/soa_mirror.cpp and is matched as a path suffix.
Exits with the compiler's status, or 1 if no command compiles SOURCE.
"""
import json
import shlex
import subprocess
import sys


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "build/compile_commands.json"
    source = sys.argv[2] if len(sys.argv) > 2 else "src/tree/soa_mirror.cpp"
    with open(path) as f:
        entries = json.load(f)
    for entry in entries:
        if not entry["file"].endswith(source):
            continue
        args = entry.get("arguments") or shlex.split(entry["command"])
        if "-o" in args:
            args[args.index("-o") + 1] = "/dev/null"
        args.append("-fopt-info-vec")
        print("$ " + shlex.join(args), flush=True)
        return subprocess.run(args, cwd=entry["directory"]).returncode
    print(f"no compile command for {source} in {path}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
