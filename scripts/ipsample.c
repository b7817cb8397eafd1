/* ipsample: sample a command's instruction pointer with ptrace.

     ipsample PERIOD_US OUT CMD [ARG]...

   Runs CMD, interrupts its main thread every PERIOD_US microseconds and
   appends the thread's instruction pointer to OUT, one decimal address
   per line. The first line of OUT is "base LO HI": the address range of
   the executable's own mappings, read from /proc at exec. Exits with
   CMD's status. Used by scripts/hostprof.sh, which symbolizes OUT. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/ptrace.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <unistd.h>

static void exe_range(pid_t pid, FILE *out) {
  char path[64], line[4096], first[4096] = "";
  unsigned long lo = 0, hi = 0, a, b;
  snprintf(path, sizeof path, "/proc/%d/maps", pid);
  FILE *m = fopen(path, "r");
  while (m && fgets(line, sizeof line, m)) {
    char *name = strchr(line, '/');
    if (!name || sscanf(line, "%lx-%lx", &a, &b) != 2) continue;
    if (!*first) { strcpy(first, name); lo = a; }
    if (!strcmp(first, name) && b > hi) hi = b;
  }
  if (m) fclose(m);
  fprintf(out, "base %lu %lu\n", lo, hi);
}

int main(int argc, char **argv) {
  if (argc < 4) {
    fprintf(stderr, "usage: ipsample PERIOD_US OUT CMD [ARG]...\n");
    return 2;
  }
  FILE *out = fopen(argv[2], "w");
  if (!out) { perror(argv[2]); return 2; }
  int go[2], st;
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
          ptrace(PTRACE_GETREGS, pid, 0, &r) == 0)
        fprintf(out, "%llu\n", (unsigned long long)r.rip);
      sig = 0;
    }
    ptrace(PTRACE_CONT, pid, 0, sig);
    if (event) { usleep(atoi(argv[1])); ptrace(PTRACE_INTERRUPT, pid, 0, 0); }
  }
  fclose(out);
  return WIFEXITED(st) ? WEXITSTATUS(st) : 1;
}
