// bfc-shard-host: one LocalShard behind a Unix-domain socket — the failure
// domain unit of the sharded serving plane. The process owns the V1 range
// [--lo, --hi) of an (--n1 × --n2) graph, serves the transport.hpp protocol
// (ping, epoch, publish, pin, persist/restore) and nothing else;
// killing it loses exactly one range, which the ShardSupervisor restarts
// and restores from the last checkpoint.
//
//   bfc-shard-host --socket PATH --shard K --n1 N --n2 M --lo L --hi H
//                  [--restore FILE] [--crash-at N] [--idle-ms MS]
//
// --restore  warm-start from a LocalShard checkpoint before serving
// --crash-at arm svc::fault kShardHostCrash: _exit(137) before replying to
//            request N+1 (checked builds only; release hosts ignore it)
// --idle-ms  per-connection idle budget (default 10000)
//
// The host prints "READY <pid>" on stdout once the socket is listening —
// the supervisor waits for a successful ping instead, but the line makes
// manual runs debuggable. PR_SET_PDEATHSIG ties the host's lifetime to its
// parent so a killed bench never leaks host processes.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "shard/shard.hpp"
#include "shard/transport.hpp"
#include "svc/fault.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bfc-shard-host: %s\n"
               "usage: bfc-shard-host --socket PATH --shard K --n1 N --n2 M "
               "--lo L --hi H [--restore FILE] [--crash-at N] [--idle-ms MS]\n",
               why);
  std::exit(2);
}

long parse_long(const char* s) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') usage("bad integer argument");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string restore_path;
  long shard_id = -1, n1 = -1, n2 = -1, lo = -1, hi = -1;
  long crash_at = -1, idle_ms = 10000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--socket")
      socket_path = next();
    else if (arg == "--shard")
      shard_id = parse_long(next());
    else if (arg == "--n1")
      n1 = parse_long(next());
    else if (arg == "--n2")
      n2 = parse_long(next());
    else if (arg == "--lo")
      lo = parse_long(next());
    else if (arg == "--hi")
      hi = parse_long(next());
    else if (arg == "--restore")
      restore_path = next();
    else if (arg == "--crash-at")
      crash_at = parse_long(next());
    else if (arg == "--idle-ms")
      idle_ms = parse_long(next());
    else
      usage(("unknown flag " + arg).c_str());
  }
  if (socket_path.empty() || shard_id < 0 || n1 < 0 || n2 < 0 || lo < 0 ||
      hi < 0)
    usage("missing required flag");

  // Die with the parent (supervisor/bench); orphan hosts would otherwise
  // hold the socket path and poison the next run.
  (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
  ::signal(SIGPIPE, SIG_IGN);

  using namespace bfc;
  try {
    shard::LocalShard shard(static_cast<int>(shard_id),
                            static_cast<vidx_t>(n1), static_cast<vidx_t>(n2),
                            static_cast<vidx_t>(lo), static_cast<vidx_t>(hi));
    if (!restore_path.empty()) shard.restore(restore_path);
    if (crash_at >= 0)
      svc::fault::arm(svc::fault::Point::kShardHostCrash,
                      static_cast<std::uint64_t>(crash_at), 1);

    const int lfd = shard::listen_unix(socket_path);
    std::printf("READY %d\n", static_cast<int>(::getpid()));
    std::fflush(stdout);

    for (;;) {
      const int fd = ::accept(lfd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;
      }
      shard::serve_connection(fd, shard, static_cast<int>(idle_ms));
      ::close(fd);
    }
    ::close(lfd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bfc-shard-host: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
