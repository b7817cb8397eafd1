/* ipsample: sample a command's instruction pointer with ptrace.

     ipsample PERIOD_US OUT CMD [ARG]...

   Runs CMD, interrupts its main thread every PERIOD_US microseconds and
   appends the thread's instruction pointer to OUT, one decimal address
   per line. The first line of OUT is "base LO HI": the address range of
   the executable's own mappings, read from /proc at exec. The shared
   objects are mapped only later, by the loader, so the maps are read
   again after the first sample: one "so LO HI OFFSET PATH" line for each
   executable mapping of another file. Exits with CMD's status. Used by
   scripts/hostprof.sh, which symbolizes OUT. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/ptrace.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <unistd.h>

static char exe[4096];

static FILE *maps(pid_t pid) {
  char path[64];
  snprintf(path, sizeof path, "/proc/%d/maps", pid);
  return fopen(path, "r");
}

static void exe_range(pid_t pid, FILE *out) {
  char line[4096];
  unsigned long lo = 0, hi = 0, a, b;
  FILE *m = maps(pid);
  while (m && fgets(line, sizeof line, m)) {
    char *name = strchr(line, '/');
    if (!name || sscanf(line, "%lx-%lx", &a, &b) != 2) continue;
    if (!*exe) { strcpy(exe, name); lo = a; }
    if (!strcmp(exe, name) && b > hi) hi = b;
  }
  if (m) fclose(m);
  fprintf(out, "base %lu %lu\n", lo, hi);
}

static void so_ranges(pid_t pid, FILE *out) {
  char line[4096], perms[8];
  unsigned long a, b, off;
  FILE *m = maps(pid);
  while (m && fgets(line, sizeof line, m)) {
    char *name = strchr(line, '/');
    if (!name || strcmp(name, exe) == 0 ||
        sscanf(line, "%lx-%lx %7s %lx", &a, &b, perms, &off) != 4 ||
        perms[2] != 'x')
      continue;
    name[strcspn(name, "\n")] = 0;
    fprintf(out, "so %lu %lu %lu %s\n", a, b, off, name);
  }
  if (m) fclose(m);
}

int main(int argc, char **argv) {
  if (argc < 4) {
    fprintf(stderr, "usage: ipsample PERIOD_US OUT CMD [ARG]...\n");
    return 2;
  }
  FILE *out = fopen(argv[2], "w");
  if (!out) { perror(argv[2]); return 2; }
  int go[2], st, samples = 0;
  char c = 0;
  if (pipe(go) != 0) { perror("pipe"); return 2; }
  pid_t pid = fork();
  if (pid == 0) { /* wait until seized, then exec */
    close(go[1]);
    if (read(go[0], &c, 1) != 1) _exit(127);
    execvp(argv[3], argv + 3);
    perror(argv[3]);
    _exit(127);
  }
  close(go[0]);
  if (ptrace(PTRACE_SEIZE, pid, 0, PTRACE_O_TRACEEXEC) != 0) {
    perror("ptrace");
    kill(pid, SIGKILL);
    return 2;
  }
  if (write(go[1], &c, 1) != 1) return 2;
  for (;;) {
    if (waitpid(pid, &st, __WALL) < 0 || WIFEXITED(st) || WIFSIGNALED(st)) break;
    int sig = WSTOPSIG(st), event = st >> 16;
    if (event == PTRACE_EVENT_EXEC) exe_range(pid, out);
    if (event) {
      struct user_regs_struct r;
      if (event == PTRACE_EVENT_STOP && sig == SIGTRAP &&
          ptrace(PTRACE_GETREGS, pid, 0, &r) == 0) {
        fprintf(out, "%llu\n", (unsigned long long)r.rip);
        if (samples++ == 0) so_ranges(pid, out);
      }
      sig = 0;
    }
    ptrace(PTRACE_CONT, pid, 0, sig);
    if (event) { usleep(atoi(argv[1])); ptrace(PTRACE_INTERRUPT, pid, 0, 0); }
  }
  fclose(out);
  return WIFEXITED(st) ? WEXITSTATUS(st) : 1;
}
