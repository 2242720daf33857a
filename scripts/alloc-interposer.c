// An allocation probe loaded with LD_PRELOAD into one single-threaded
// process (see alloc-sites.sh). It interposes malloc, calloc, realloc and
// posix_memalign, serves each from glibc's own allocator, and counts the
// call under the stack found by walking frame pointers from the call,
// bounded by the main stack (a call on another thread counts with an
// empty stack). At exit it writes alloc.<pid>.raw (per distinct
// stack: count, depth, then the return addresses, innermost first, as 64-bit
// words) and alloc.<pid>.maps (a copy of /proc/self/maps) to the working
// directory. It changes nothing outside its own process.
#define _GNU_SOURCE
#include <errno.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <unistd.h>

void *__libc_malloc(size_t);
void *__libc_calloc(size_t, size_t);
void *__libc_realloc(void *, size_t);
void *__libc_memalign(size_t, size_t);

#define DEPTH 96
#define SLOTS (1 << 18)
#define WORDS (1 << 23)

// Distinct stacks live in `arena` as (count, depth, pcs...); `slot` is an
// open-addressed index of record offsets plus one (0 = empty).
static uint64_t arena[WORDS];
static size_t used;
static uint32_t slot[SLOTS];
static uint64_t lost;
static uintptr_t stack_lo, stack_hi;
static int on;

static __attribute__((noinline)) void record(uintptr_t fp) {
    if (!on) return;
    uint64_t pcs[DEPTH];
    size_t n = 0;
    while (n < DEPTH && fp >= stack_lo && fp + 16 <= stack_hi && fp % 8 == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (!ret) break;
        pcs[n++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    uint64_t h = 0xcbf29ce484222325ull ^ n;
    for (size_t i = 0; i < n; i++) h = (h ^ pcs[i]) * 0x100000001b3ull;
    for (size_t probe = 0; probe < SLOTS; probe++) {
        uint32_t *s = &slot[(h + probe) & (SLOTS - 1)];
        if (*s) {
            uint64_t *r = &arena[*s - 1];
            if (r[1] == n && !memcmp(r + 2, pcs, n * sizeof pcs[0])) {
                r[0]++;
                return;
            }
            continue;
        }
        if (used + n + 2 > WORDS) break;
        *s = (uint32_t)used + 1;
        arena[used] = 1, arena[used + 1] = n;
        memcpy(arena + used + 2, pcs, n * sizeof pcs[0]);
        used += n + 2;
        return;
    }
    lost++;
}

void *malloc(size_t size) {
    record((uintptr_t)__builtin_frame_address(0));
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size) {
    record((uintptr_t)__builtin_frame_address(0));
    return __libc_calloc(n, size);
}

void *realloc(void *p, size_t size) {
    record((uintptr_t)__builtin_frame_address(0));
    return __libc_realloc(p, size);
}

int posix_memalign(void **out, size_t align, size_t size) {
    if (align % sizeof(void *) || (align & (align - 1))) return EINVAL;
    record((uintptr_t)__builtin_frame_address(0));
    void *p = __libc_memalign(align, size);
    if (!p) return ENOMEM;
    *out = p;
    return 0;
}

__attribute__((constructor)) static void start(void) {
    char line[512];
    uintptr_t lo = 0, hi = 0;
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]")) sscanf(line, "%lx-%lx", &lo, &hi);
    if (maps) fclose(maps);
    stack_lo = lo, stack_hi = hi, on = 1;
}

static void copy_file(const char *from, const char *to) {
    FILE *in = fopen(from, "r"), *out = fopen(to, "w");
    char chunk[4096];
    size_t got;
    while (in && out && (got = fread(chunk, 1, sizeof chunk, in)) > 0) fwrite(chunk, 1, got, out);
    if (in) fclose(in);
    if (out) fclose(out);
}

__attribute__((destructor)) static void finish(void) {
    // Stop recording: the files below allocate too.
    on = 0;
    char path[64];
    snprintf(path, sizeof path, "alloc.%d.raw", (int)getpid());
    FILE *out = fopen(path, "w");
    if (out) {
        fwrite(arena, sizeof arena[0], used, out);
        // Allocations the table had no room for, as a record with no stack.
        uint64_t tail[2] = {lost, 0};
        if (lost) fwrite(tail, sizeof tail[0], 2, out);
        fclose(out);
    }
    snprintf(path, sizeof path, "alloc.%d.maps", (int)getpid());
    copy_file("/proc/self/maps", path);
}
