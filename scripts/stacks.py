"""Symbolize and report the stacks an LD_PRELOAD probe wrote.

    python3 scripts/stacks.py cpu   <binary> <runs dir> <title>
    python3 scripts/stacks.py sites <binary> <runs dir> <title>

Each probe process writes `<name>.<pid>.raw` and `<name>.<pid>.maps` (a copy
of /proc/self/maps) into the runs directory. A raw file is a sequence of
64-bit words, one record per stack: weight, depth, then depth PCs,
innermost first. `cpu` reads the sampler's `prof.*` files (weight 1 per
sample; the first PC is the interrupted one) and prints self and inclusive
shares by function. `sites` reads the allocation probe's `alloc.*` files
(weight = allocations with that stack; every PC is a return address) and
prints the allocations made under `System::step_until`, per call site.
"""
import collections
import glob
import os
import re
import struct
import subprocess
import sys

STEP = "fragdb_core::system::System::step_until"
# The runtime's entry frames and libc (its start routine) are on every
# stack, so inclusive shares leave them out.
ENTRY = ("std::", "core::", "<&dyn ", "__rust_begin_short_backtrace", "main", "??", "[")
# A call site is a frame of the program's own crates.
OWN = ("fragdb", "<fragdb")


def load(binary, runs, prefix, first_is_pc):
    """Return [(weight, [[(function, file:line), ...] per frame])], each
    frame's inlined levels innermost first, and the number of processes."""
    real = os.path.realpath(binary)
    records = []
    raws = sorted(glob.glob(f"{runs}/{prefix}.*.raw"))
    for raw in raws:
        maps = []  # (start, end, offset, path, is the benchmark) per mapping with a path
        with open(raw[: -len("raw")] + "maps") as f:
            for line in f:
                fields = line.split()
                if len(fields) >= 6:
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    own = os.path.realpath(fields[5]) == real
                    maps.append((start, end, int(fields[2], 16), fields[5], own))
        # The benchmark is position-independent: its offset-0 mapping is
        # where its address 0 was loaded.
        bias = next(m[0] for m in maps if m[2] == 0 and m[4])

        def frame(pc):
            for start, end, _, path, own in maps:
                if start <= pc < end:
                    return pc - bias if own else f"[{os.path.basename(path)}]"
            return "[unknown]"

        words = open(raw, "rb").read()
        words = struct.unpack(f"<{len(words) // 8}Q", words)
        i = 0
        while i < len(words):
            weight, n = words[i], words[i + 1]
            pcs = words[i + 2 : i + 2 + n]
            # Return addresses point past their call; step back into it.
            frames = [frame(pc if first_is_pc and k == 0 else pc - 1) for k, pc in enumerate(pcs)]
            records.append((weight, frames))
            i += 2 + n
    if not records:
        sys.exit("no stacks recorded")

    addrs = sorted({a for _, s in records for a in s if isinstance(a, int)})
    lines = subprocess.run(
        ["addr2line", "-e", binary, "-i", "-f", "-C", "-a"],
        input="".join(f"{a:#x}\n" for a in addrs), capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    # Per address: the address line, then a (function, file:line) pair per
    # inlined level, innermost first.
    levels, cur, name = {}, None, None
    for line in lines:
        if line.startswith("0x") and all(c in "0123456789abcdef" for c in line[2:]):
            cur, name = levels.setdefault(int(line, 16), []), None
        elif name is None:
            name = line
        else:
            cur.append((name, line))
            name = None

    def expand(a):
        return [(a, "")] if isinstance(a, str) else levels.get(a) or [("??", "")]


    return [(w, [expand(a) for a in s]) for w, s in records], len(raws)


def cpu(records, reps, title):
    total = sum(w for w, _ in records)
    self_, incl = collections.Counter(), collections.Counter()
    for w, s in records:
        if s:
            self_[s[0][0][0]] += w
        for f in {name for levels in s for name, _ in levels if not name.startswith(ENTRY)}:
            incl[f] += w
    print(f"{title}: {total} samples from {reps} repetitions")
    for heading, counts in (("self", self_), ("inclusive", incl)):
        print(f"\n{heading:>9}  function")
        for f, c in counts.most_common(30):
            print(f"{100 * c / total:8.1f}%  {f[:150]}")


def short(name):
    """`a::b::<impl a::T>::f` as `T::f`, without the crate path."""
    name = re.sub(r"<impl (?:[\w:]+::)?(\w+)>", r"\1", name)
    return re.sub(r"^fragdb_\w+::(?:\w+::)*?(?=\w+(?:<\w+>)?::\w+$)", "", name)


def sites(records, reps, title):
    under, outside, lost = collections.Counter(), 0, 0
    for w, s in records:
        names = [name for levels in s for name, _ in levels]
        if not names:
            lost += w
        elif STEP in names:
            # The call site is the innermost frame of the program's own
            # crates; its caller tells apart the paths through it.
            own = [short(n) for n in names if n.startswith(OWN)]
            own = [n for i, n in enumerate(own) if i == 0 or n != own[i - 1]] + ["?", "?"]
            under[(own[0], own[1])] += w
        else:
            outside += w
    total = sum(under.values())
    print(f"{title}: {total / reps:.0f} allocations under step_until per repetition "
          f"({outside / reps:.0f} outside it)")
    if lost:
        print(f"warning: {lost} allocations had no stack (made off the main thread, "
              "or the probe's table was full)")
    print(f"\n{'per rep':>10} {'share':>6}  call site  <-  its caller")
    for (site, caller), c in under.most_common(40):
        print(f"{c / reps:10.0f} {100 * c / total:5.1f}%  {site[:90]}  <-  {caller[:70]}")


if __name__ == "__main__":
    mode, binary, runs, title = sys.argv[1:5]
    if mode == "cpu":
        recs, n = load(binary, runs, "prof", True)
        cpu(recs, n, title)
    elif mode == "sites":
        recs, n = load(binary, runs, "alloc", False)
        sites(recs, n, title)
    else:
        sys.exit(f"unknown mode {mode}")
