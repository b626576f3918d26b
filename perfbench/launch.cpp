// Process launcher of the repository benchmark (see perfbench/README.md).
//
//   perfbench_launch OUT PROGRAM [ARG...]
//
// Runs PROGRAM with its stdout written to OUT, waits for it, and prints
// one JSON object on stdout: its wall time, its own user+sys CPU time,
// its max RSS and its exit status (as Python's waitstatus_to_exitcode
// gives it). Linux keeps a process's peak RSS across execve, so a child
// spawned straight from the Python harness would report at least the
// harness's RSS; spawned from this small launcher, it reports its own.
// On SIGTERM the launcher kills the child, waits for it and exits 143.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <ctime>

extern char** environ;

namespace {

volatile sig_atomic_t g_child = 0;

void on_term(int) {
  if (g_child > 0) {
    kill(g_child, SIGKILL);
    waitpid(g_child, nullptr, 0);
  }
  _exit(143);
}

double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench_launch OUT PROGRAM [ARG...]\n");
    return 2;
  }
  const int out = open(argv[1], O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out < 0) {
    std::perror(argv[1]);
    return 2;
  }

  // SIGTERM stays blocked until the child's pid is known, so the handler
  // never misses a child; the child starts with an empty mask.
  struct sigaction sa {};
  sa.sa_handler = on_term;
  sigaction(SIGTERM, &sa, nullptr);
  sigset_t term, empty;
  sigemptyset(&term);
  sigaddset(&term, SIGTERM);
  sigemptyset(&empty);
  sigprocmask(SIG_BLOCK, &term, nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, out, 1);
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setsigmask(&attr, &empty);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETSIGMASK);

  const double t0 = mono_s();
  pid_t pid = 0;
  const int err = posix_spawn(&pid, argv[2], &fa, &attr, argv + 2, environ);
  if (err != 0) {
    std::fprintf(stderr, "perfbench_launch: cannot run %s\n", argv[2]);
    return 2;
  }
  g_child = pid;
  sigprocmask(SIG_UNBLOCK, &term, nullptr);

  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_launch: wait4");
      return 2;
    }
  }
  const double wall = mono_s() - t0;
  g_child = 0;

  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  const double cpu = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
                     ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  std::printf("{\"wall_s\":%.9f,\"cpu_s\":%.6f,\"maxrss_kb\":%ld,\"exit\":%d}\n", wall,
              cpu, ru.ru_maxrss, code);
  return 0;
}
