/* SIGPROF frame-pointer sampler, loaded with LD_PRELOAD (x86_64 Linux).
 *
 * Up to 997 times per second of process CPU time
 * (the kernel's timer tick can lower the rate) it records the
 * interrupted pc and the return addresses found by walking the
 * frame-pointer chain within the main thread's stack: the benchmark
 * runs on one thread. At exit it writes one line per sample to
 * PROFILE_OUT: hex addresses, innermost first, relative to the
 * executable's load base.
 * Build: gcc -O2 -shared -fPIC -o sampler.so sampler.c
 */
#define _GNU_SOURCE
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define DEPTH 64
#define SAMPLES (1 << 17)

static unsigned long frames[SAMPLES][DEPTH];
static unsigned char depth[SAMPLES];
static volatile unsigned long taken;
static unsigned long stack_lo, stack_hi, base;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    unsigned long n = taken, d = 0;
    if (n >= SAMPLES) return;
    mcontext_t *m = &((ucontext_t *)ctx)->uc_mcontext;
    unsigned long fp = m->gregs[REG_RBP];
    frames[n][d++] = m->gregs[REG_RIP];
    while (d < DEPTH && fp >= stack_lo && fp + 16 <= stack_hi && !(fp & 7)) {
        unsigned long next = ((unsigned long *)fp)[0];
        frames[n][d++] = ((unsigned long *)fp)[1] - 1; /* the call, not the return */
        if (next <= fp) break;
        fp = next;
    }
    depth[n] = d;
    taken = n + 1;
}

static int first_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size, (void)data;
    base = info->dlpi_addr; /* the executable is listed first */
    return 1;
}

__attribute__((constructor)) static void start(void) {
    pthread_attr_t attr;
    void *lo;
    size_t len;
    pthread_getattr_np(pthread_self(), &attr);
    pthread_attr_getstack(&attr, &lo, &len);
    stack_lo = (unsigned long)lo, stack_hi = stack_lo + len;
    dl_iterate_phdr(first_object, NULL);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000000 / 997}, {0, 1000000 / 997}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROFILE_OUT");
    FILE *f = fopen(path ? path : "profile.samples", "w");
    if (!f) return;
    for (unsigned long n = 0; n < taken; n++) {
        for (unsigned long d = 0; d < depth[n]; d++)
            fprintf(f, d ? " %lx" : "%lx", frames[n][d] - base);
        fputc('\n', f);
    }
    fclose(f);
}
