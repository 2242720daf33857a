# Shared by profile.sh and alloc-sites.sh; source it from the repository
# root. Builds the benchmark with frame pointers and line tables into
# target/profile/build, compiles an LD_PRELOAD probe, and runs
# `rep --mode timed --id 1` under it unless told another id: repetition 0
# of `chaos-observed` also takes the fragmentwise-serializability verdict
# (about 1.2 s at seeds 42 and 7, outside `wall_s`), which would otherwise
# be most of what the probe sees. Needs cc and cargo; changes nothing
# outside target/profile.

# preload_build <probe.c>: sets `out` (target/profile), `so` (the compiled
# probe) and `bin` (the benchmark binary), and empties `$out/runs`.
preload_build() {
    out=$PWD/target/profile
    mkdir -p "$out/runs"
    rm -f "$out"/runs/*.raw "$out"/runs/*.maps
    so=$out/$(basename "$1" .c).so
    cc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$so" "$1"
    RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
        cargo build --release --offline -q --manifest-path benchmark/Cargo.toml --target-dir "$out/build"
    bin=$out/build/release/fragdb-benchmark
}

# preload_run <workload> <seed> <reps> [id (1)]: one
# `rep --mode timed --id ID` process per repetition, each writing its
# `*.raw` and `*.maps` into `$out/runs`.
preload_run() {
    for _ in $(seq "$3"); do
        (cd "$out/runs" && LD_PRELOAD="$so" "$bin" rep --workload "$1" \
            --seed "$2" --mode timed --id "${4:-1}" >/dev/null)
    done
}
