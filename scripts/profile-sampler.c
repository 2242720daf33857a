// A CPU sampler loaded with LD_PRELOAD into one single-threaded process
// (see profile.sh). ITIMER_PROF delivers SIGPROF as the process burns CPU;
// the handler records the interrupted PC and the return addresses found by
// walking frame pointers, bounded by the main stack. At exit it writes
// prof.<pid>.raw (per sample: weight 1, depth, then the PCs, innermost
// first, as 64-bit words) and prof.<pid>.maps (a copy of /proc/self/maps) to the
// working directory. It changes nothing outside its own process.
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define WORDS (1 << 22)
#define DEPTH 128

static uint64_t buf[WORDS];
static size_t used;
static uintptr_t stack_lo, stack_hi;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    if (used + DEPTH + 2 > WORDS) return;
    buf[used++] = 1;
    size_t head = used++, n = 0;
    buf[used + n++] = (uint64_t)r[REG_RIP];
    uintptr_t fp = (uintptr_t)r[REG_RBP];
    while (n < DEPTH && fp >= stack_lo && fp + 16 <= stack_hi && fp % 8 == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (!ret) break;
        buf[used + n++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    buf[head] = n;
    used += n;
}

static void copy_file(const char *from, const char *to) {
    FILE *in = fopen(from, "r"), *out = fopen(to, "w");
    char chunk[4096];
    size_t got;
    while (in && out && (got = fread(chunk, 1, sizeof chunk, in)) > 0) fwrite(chunk, 1, got, out);
    if (in) fclose(in);
    if (out) fclose(out);
}

__attribute__((constructor)) static void start(void) {
    char line[512];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]")) sscanf(line, "%lx-%lx", &stack_lo, &stack_hi);
    if (maps) fclose(maps);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[64];
    snprintf(path, sizeof path, "prof.%d.raw", (int)getpid());
    FILE *out = fopen(path, "w");
    if (out) fwrite(buf, sizeof buf[0], used, out), fclose(out);
    snprintf(path, sizeof path, "prof.%d.maps", (int)getpid());
    copy_file("/proc/self/maps", path);
}
