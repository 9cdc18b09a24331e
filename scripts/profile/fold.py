#!/usr/bin/env python3
"""Folds a sampler profile into inclusive shares inside one root frame.

Usage: fold.py BINARY SAMPLES

SAMPLES holds one sample per line, hex addresses relative to BINARY's
load base, innermost first (scripts/profile/sampler.c writes them).
Each address is expanded into its inlined frames with
`addr2line -a -i -f -C`. A sample counts toward a function once however
often the function recurs in it; only samples with a `ROOT` frame are
counted, and only the frames from the innermost one out to the root.
Prints the `TOP` functions, then the same samples grouped by type or
module (the name without its last path segment).
"""

import re
import subprocess
import sys
from collections import Counter

ROOT = "Simulation::run"
TOP = 40


def symbolize(binary, addrs):
    """Maps each address to its frames, innermost inlined frame first."""
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", binary],
        input="".join(f"0x{a}\n" for a in addrs),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    frames, current = {}, None
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = int(out[i], 16)
            frames[current] = []
            i += 1
            continue
        # A function line, then its file:line line.
        name = re.sub(r"::h[0-9a-f]{16}$", "", out[i])
        frames[current].append(name)
        i += 2
    return frames


def main():
    binary, samples_path = sys.argv[1], sys.argv[2]
    samples = [line.split() for line in open(samples_path) if line.strip()]
    frames = symbolize(binary, sorted({a for s in samples for a in s}))
    by_fn, by_owner, inside = Counter(), Counter(), 0
    for sample in samples:
        names = [n for a in sample for n in frames.get(int(a, 16), ["??"])]
        depth = next((i for i, n in enumerate(names) if n.endswith(ROOT)), None)
        if depth is None:
            continue
        inside += 1
        # The root and what it calls, not the root's own callers.
        fns = {n for n in names[: depth + 1] if n != "??"}
        by_fn.update(fns)
        by_owner.update({n.rsplit("::", 1)[0] for n in fns if "::" in n})
    print(f"{len(samples)} samples, {inside} inside {ROOT}")
    if not inside:
        return
    for title, counts in (("function", by_fn), ("type or module", by_owner)):
        print(f"\ninclusive share by {title}:")
        for name, n in counts.most_common(TOP):
            print(f"  {100.0 * n / inside:6.1f} %  {name}")


if __name__ == "__main__":
    main()
