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
module (the name without its last path segment), then each sample's self
time by its innermost source line inside the repository (frames in the
standard library or other outside code count toward the repository line
that called them).
"""

import os
import re
import subprocess
import sys
from collections import Counter

ROOT = "Simulation::run"
TOP = 40
REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))) + os.sep


def symbolize(binary, addrs):
    """Maps each address to its `(function, file:line)` frames, innermost
    inlined frame first."""
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
        where = out[i + 1].split(" (discriminator")[0] if i + 1 < len(out) else "??"
        frames[current].append((name, where))
        i += 2
    return frames


def main():
    binary, samples_path = sys.argv[1], sys.argv[2]
    samples = [line.split() for line in open(samples_path) if line.strip()]
    frames = symbolize(binary, sorted({a for s in samples for a in s}))
    by_fn, by_owner, by_line, inside = Counter(), Counter(), Counter(), 0
    line_fns = {}
    for sample in samples:
        stack = [f for a in sample for f in frames.get(int(a, 16), [("??", "??")])]
        names = [n for n, _ in stack]
        depth = next((i for i, n in enumerate(names) if n.endswith(ROOT)), None)
        if depth is None:
            continue
        inside += 1
        # The root and what it calls, not the root's own callers.
        fns = {n for n in names[: depth + 1] if n != "??"}
        by_fn.update(fns)
        by_owner.update({n.rsplit("::", 1)[0] for n in fns if "::" in n})
        own = next((f for f in stack[: depth + 1] if f[1].startswith(REPO)), None)
        if own is not None:
            line = own[1][len(REPO):]
            by_line[line] += 1
            line_fns.setdefault(line, Counter())[own[0]] += 1
    print(f"{len(samples)} samples, {inside} inside {ROOT}")
    if not inside:
        return
    for title, counts in (("function", by_fn), ("type or module", by_owner)):
        print(f"\ninclusive share by {title}:")
        for name, n in counts.most_common(TOP):
            print(f"  {100.0 * n / inside:6.1f} %  {name}")
    # Inlining can name one line under several functions; show the
    # commonest.
    print("\nself share by innermost repository source line:")
    for line, n in by_line.most_common(TOP):
        fn = line_fns[line].most_common(1)[0][0]
        print(f"  {100.0 * n / inside:6.1f} %  {line}  {fn}")


if __name__ == "__main__":
    main()
