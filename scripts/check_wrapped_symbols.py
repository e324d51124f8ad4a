#!/usr/bin/env python3
"""Check that every symbol the traced benchmark wraps is still defined.

    python3 scripts/check_wrapped_symbols.py perfbench/wrappers.cpp \\
        build/src/crypto/libmonatt_crypto.a build/src/net/libmonatt_net.a ...

perfbench/wrappers.cpp names, by mangled name, the functions that the
traced benchmark binary links with -Wl,--wrap. A renamed or re-typed
function changes its mangled name, and then only the perfbench link
fails. This script reads the same three line forms that
perfbench/CMakeLists.txt reads (PERFBENCH_WRAP(<symbol>, ...),
PERFBENCH_CODEC(<n>, <Type>) and hand-written __wrap_<symbol>( lines),
runs nm over the given libraries, and exits 1 naming every wrapped
symbol that no library defines. It only reads wrappers.cpp.
"""

import re
import subprocess
import sys

WRAP = re.compile(r"^PERFBENCH_WRAP\(([A-Za-z0-9_]+),")
CODEC = re.compile(r"^PERFBENCH_CODEC\(([0-9]+), *([A-Za-z]+)\)")
MANUAL = re.compile(r"__wrap_(_Z[A-Za-z0-9_]+)\(")


def wrapped_symbols(path):
    """Mangled names wrappers.cpp asks the linker to wrap, in order."""
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if m := WRAP.match(line):
                out.append(m.group(1))
            elif m := CODEC.match(line):
                kind = m.group(1) + m.group(2)
                out.append(f"_ZNK6monatt5proto{kind}6encodeEv")
                out.append(
                    f"_ZN6monatt5proto{kind}6decodeERKSt6vectorIhSaIhEE")
            elif m := MANUAL.search(line):
                out.append(m.group(1))
    return list(dict.fromkeys(out))


def defined_symbols(libraries):
    """Every symbol some library defines in its text."""
    proc = subprocess.run(["nm", "--defined-only", *libraries],
                          stdout=subprocess.PIPE, text=True, check=True)
    defined = set()
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in "TtWw":
            defined.add(fields[2])
    return defined


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    wanted = wrapped_symbols(argv[1])
    if not wanted:
        print(f"no wrapped symbols found in {argv[1]}", file=sys.stderr)
        return 1
    defined = defined_symbols(argv[2:])
    missing = [s for s in wanted if s not in defined]
    for sym in missing:
        print(f"MISSING: {sym}")
    print(f"{len(wanted) - len(missing)}/{len(wanted)} wrapped symbols "
          f"defined in {len(argv) - 2} libraries")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
