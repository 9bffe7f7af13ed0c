/* SIGPROF sampler, preloaded into an unmodified program:
 *   PROF_OUT=run.prof LD_PRELOAD=./sigprof.so ./program args...
 * Arms ITIMER_PROF at 1 ms of process CPU time, stores the interrupted
 * instruction pointer of each tick, and at exit writes the process's memory
 * map ("M" lines) followed by the samples ("S" lines) for attribute.py.
 * x86-64 Linux. Does nothing unless PROF_OUT is set. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1ul << 20) /* 8 MiB, allocated once: the handler never allocates */
static const char *out_path;
static unsigned long *samples;
static unsigned long taken;

static void on_tick(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

static void set_timer(long usec) {
    struct itimerval every = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((constructor)) static void arm(void) {
    if (!(out_path = getenv("PROF_OUT")) || !(samples = malloc(MAX_SAMPLES * sizeof *samples)))
        return;
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_tick;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    set_timer(1000);
}

__attribute__((destructor)) static void dump(void) {
    FILE *out, *maps;
    char line[1024];
    if (!samples || !(out = fopen(out_path, "w")))
        return;
    set_timer(0);
    if ((maps = fopen("/proc/self/maps", "r"))) {
        while (fgets(line, sizeof line, maps))
            fprintf(out, "M %s", line);
        fclose(maps);
    }
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "S %lx\n", samples[i]);
    fclose(out);
}
