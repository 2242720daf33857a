#!/usr/bin/env bash
# Sampling CPU profile of one benchmark workload. Report only: no gate
# reads it.
#
#   scripts/profile.sh <workload> [seed (42)] [reps (8)]
#
# Builds the benchmark with frame pointers and line tables into
# target/profile/build, runs `rep --workload W --seed S --mode timed` REPS
# times under scripts/profile-sampler.c (LD_PRELOAD, ITIMER_PROF on its own
# process), and prints each function's self share (samples whose interrupted
# PC is in it, grouped by innermost inlined function) and inclusive share
# (samples with it anywhere on the stack). Samples arrive at the kernel's
# timer tick, a few hundred per second, so take at least 8 repetitions.
# Code built without frame pointers (libc, perhaps the prebuilt standard
# library) can cut a stack short; its self samples still count. Needs cc,
# addr2line and python3; changes nothing outside target/profile.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 1 ] || { echo "usage: $0 <workload> [seed] [reps]" >&2; exit 2; }
workload=$1 seed=${2:-42} reps=${3:-8}
out=$PWD/target/profile
mkdir -p "$out/runs"
rm -f "$out"/runs/prof.*
cc -O2 -shared -fPIC -o "$out/sampler.so" scripts/profile-sampler.c
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build --release --offline -q --manifest-path benchmark/Cargo.toml --target-dir "$out/build"
bin=$out/build/release/fragdb-benchmark
for _ in $(seq "$reps"); do
    (cd "$out/runs" && LD_PRELOAD="$out/sampler.so" "$bin" rep --workload "$workload" \
        --seed "$seed" --mode timed >/dev/null)
done
python3 - "$bin" "$out/runs" "$workload" <<'EOF'
import collections, glob, os, struct, subprocess, sys

binary, runs, workload = sys.argv[1], sys.argv[2], sys.argv[3]
real = os.path.realpath(binary)
# A stack is a list of frames: an address in the benchmark (symbolized
# below) or the name of the other mapping a PC fell in (libc, vdso).
stacks = []
raws = sorted(glob.glob(f"{runs}/prof.*.raw"))
for raw in raws:
    maps = []  # (start, end, offset, path, is the benchmark) per mapping with a path
    with open(raw[: -len("raw")] + "maps") as f:
        for line in f:
            fields = line.split()
            if len(fields) >= 6:
                start, end = (int(x, 16) for x in fields[0].split("-"))
                own = os.path.realpath(fields[5]) == real
                maps.append((start, end, int(fields[2], 16), fields[5], own))
    # The benchmark is position-independent: its offset-0 mapping is where
    # its address 0 was loaded.
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
        n = words[i]
        pcs = words[i + 1 : i + 1 + n]
        # Return addresses point past their call; step back into it.
        stacks.append([frame(pcs[0])] + [frame(pc - 1) for pc in pcs[1:]])
        i += 1 + n
if not stacks:
    sys.exit("no samples")

addrs = sorted({a for s in stacks for a in s if isinstance(a, int)})
lines = subprocess.run(
    ["addr2line", "-e", binary, "-i", "-f", "-C", "-a"],
    input="".join(f"{a:#x}\n" for a in addrs), capture_output=True, text=True, check=True,
).stdout.splitlines()
# Per address: the address line, then a (function, file:line) pair per
# inlined level, innermost first.
frames, names, is_name = {}, None, False
for line in lines:
    if line.startswith("0x") and all(c in "0123456789abcdef" for c in line[2:]):
        names = frames.setdefault(int(line, 16), [])
        is_name = True
    else:
        if is_name:
            names.append(line)
        is_name = not is_name

def names(a):
    return [a] if isinstance(a, str) else frames.get(a) or ["??"]

# The runtime's entry frames and libc (its start routine) are on every
# stack, so inclusive shares leave them out.
entry = ("std::", "core::", "<&dyn ", "__rust_begin_short_backtrace", "main", "??", "[")
total = len(stacks)
self_, incl = collections.Counter(), collections.Counter()
for s in stacks:
    self_[names(s[0])[0]] += 1
    incl.update({f for a in s for f in names(a) if not f.startswith(entry)})
print(f"{workload}: {total} samples from {len(raws)} repetitions")
for title, counts in (("self", self_), ("inclusive", incl)):
    print(f"\n{title:>9}  function")
    for f, c in counts.most_common(30):
        print(f"{100 * c / total:8.1f}%  {f[:150]}")
EOF
