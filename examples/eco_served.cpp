// ECO server daemon: owns a generated benchmark and serves concurrent edit
// sessions over an AF_UNIX socket speaking the `--eco` line grammar
// (src/serve/protocol.hpp). This is the binary the chaos harness
// (tools/chaos_eco.py) SIGKILLs mid-resolve: the journal + checkpoint make
// every restart land bit-identically on the acknowledged state.
//
//   eco_served --socket PATH [options]
//     --socket <path>        AF_UNIX socket to listen on (required to serve)
//     --size <n>             synthetic grid edge (default 16)
//     --nets <n>             synthetic net count (default 120)
//     --layers <n>           metal layers (default 6)
//     --seed <n>             generator seed (default 1) — the same seed
//                            regenerates the same base design on restart
//     --ratio <r>            critical-net ratio (default 0.02)
//     --journal <path>       write-ahead delta journal (durability on)
//     --checkpoint <path>    checkpoint blob path
//     --checkpoint-every <n> checkpoint every N resolves (default 4)
//     --deadline <ms>        default per-resolve solve budget
//     --supersede <n>        cancel an in-flight resolve once N edits queue
//     --max-sessions <n>     admission limit (default 64)
//     --fault SITE:FIRST[:COUNT]  arm a fault site (repeatable), e.g.
//                            --fault serve.journal.fsync:2
//     --replay               recover from --journal on a fresh base, print
//                            "hash <hex>", and exit (no socket needed)
//     --print-hash           print "hash <hex>" after recovery, then serve
//     --quiet                warnings only
//
// SIGTERM/SIGINT stop the server cleanly (journal closed at a record
// boundary). SIGKILL is the interesting case — that is what recovery is for.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "examples/common.hpp"
#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"
#include "src/serve/codec.hpp"
#include "src/serve/service.hpp"
#include "src/serve/socket_server.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/logging.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_stop(int) { g_stop = 1; }

int int_arg(int argc, char** argv, const char* flag, int fallback) {
  const char* v = cpla::examples::arg_value(argc, argv, flag);
  return v != nullptr ? std::atoi(v) : fallback;
}

/// Arms every `--fault SITE:FIRST[:COUNT]` occurrence in argv.
bool arm_faults(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--fault") != 0) continue;
    const std::string spec = argv[i + 1];
    const std::size_t c1 = spec.find(':');
    if (c1 == std::string::npos || c1 == 0) {
      std::fprintf(stderr, "error: --fault expects SITE:FIRST[:COUNT], got %s\n", spec.c_str());
      return false;
    }
    const std::size_t c2 = spec.find(':', c1 + 1);
    const std::string site = spec.substr(0, c1);
    const long first = std::atol(spec.substr(c1 + 1).c_str());
    const long count = c2 == std::string::npos ? 1 : std::atol(spec.substr(c2 + 1).c_str());
    cpla::FaultInjector::instance().arm(site, first, count);
    std::fprintf(stderr, "armed fault %s at occurrence %ld (count %ld)\n", site.c_str(), first,
                 count);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpla;
  using examples::arg_value;
  using examples::has_flag;

  if (has_flag(argc, argv, "--help") || has_flag(argc, argv, "-h")) {
    std::printf(
        "usage: eco_served --socket PATH [--size N] [--nets N] [--layers N] [--seed N]\n"
        "                  [--ratio R] [--journal PATH] [--checkpoint PATH]\n"
        "                  [--checkpoint-every N] [--deadline MS] [--supersede N]\n"
        "                  [--max-sessions N] [--fault SITE:FIRST[:COUNT]]...\n"
        "                  [--replay] [--print-hash] [--quiet]\n");
    return 0;
  }
  if (has_flag(argc, argv, "--quiet")) set_log_level(LogLevel::kWarn);
  if (!arm_faults(argc, argv)) return 1;

  // Stop handlers installed and the stop signals *blocked* before any other
  // thread exists (prepare() starts the OpenMP pool, start() the service
  // worker), so every thread inherits the blocked mask and only the main
  // thread's sigsuspend() below can take a SIGTERM. The chaos harness sends
  // one as soon as it reads the listening banner: a signal landing before
  // std::signal() would kill us by default action, and one taken by another
  // thread between the g_stop check and sigsuspend() would be lost and
  // leave the loop waiting forever. (--replay exits on its own.)
  const bool replay = has_flag(argc, argv, "--replay");
  sigset_t wait_mask{};
  if (!replay) {
    std::signal(SIGTERM, handle_stop);
    std::signal(SIGINT, handle_stop);
    sigset_t stop_set;
    sigemptyset(&stop_set);
    sigaddset(&stop_set, SIGTERM);
    sigaddset(&stop_set, SIGINT);
    sigprocmask(SIG_BLOCK, &stop_set, &wait_mask);
    sigdelset(&wait_mask, SIGTERM);
    sigdelset(&wait_mask, SIGINT);
  }

  // The base design is regenerated from the seed on every start — exactly
  // what journal recovery requires: the genesis hash must match.
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = int_arg(argc, argv, "--size", 16);
  spec.num_nets = int_arg(argc, argv, "--nets", 120);
  spec.num_layers = int_arg(argc, argv, "--layers", 6);
  spec.seed = static_cast<std::uint64_t>(int_arg(argc, argv, "--seed", 1));
  core::Prepared prep = core::prepare(gen::generate(spec));

  serve::ServeOptions opt;
  opt.eco.critical_ratio =
      arg_value(argc, argv, "--ratio") ? std::atof(arg_value(argc, argv, "--ratio")) : 0.02;
  if (const char* p = arg_value(argc, argv, "--journal")) opt.journal_path = p;
  if (const char* p = arg_value(argc, argv, "--checkpoint")) opt.checkpoint_path = p;
  opt.checkpoint_every = int_arg(argc, argv, "--checkpoint-every", 4);
  opt.supersede_after = int_arg(argc, argv, "--supersede", 0);
  opt.max_sessions = int_arg(argc, argv, "--max-sessions", 64);
  if (const char* d = arg_value(argc, argv, "--deadline")) {
    opt.default_deadline_ms = std::atof(d);
  }

  if (replay) {
    // Reference recovery path: journal only, checkpoints ignored.
    if (opt.journal_path.empty()) {
      std::fprintf(stderr, "error: --replay needs --journal\n");
      return 1;
    }
    const Result<std::uint64_t> hash = serve::replay_journal(
        opt.journal_path, prep.design.get(), prep.state.get(), prep.rc.get(), opt.eco);
    if (!hash.is_ok()) {
      std::fprintf(stderr, "replay failed: %s\n", hash.status().to_string().c_str());
      return 1;
    }
    std::printf("hash %016llx\n", static_cast<unsigned long long>(hash.value()));
    return 0;
  }

  const char* socket_path = arg_value(argc, argv, "--socket");
  if (socket_path == nullptr) {
    std::fprintf(stderr, "error: --socket is required (or use --replay)\n");
    return 1;
  }

  serve::EcoService service(prep.design.get(), prep.state.get(), prep.rc.get(), opt);
  const Status started = service.start();
  if (!started.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.to_string().c_str());
    return 1;
  }
  if (has_flag(argc, argv, "--print-hash")) {
    std::printf("hash %016llx\n", static_cast<unsigned long long>(service.snapshot()->hash));
  }

  serve::SocketServer server(&service, socket_path);
  const Status listening = server.start();
  if (!listening.is_ok()) {
    std::fprintf(stderr, "listen failed: %s\n", listening.to_string().c_str());
    service.stop();
    return 1;
  }
  // The harness waits for this exact line before connecting.
  std::printf("listening on %s\n", socket_path);
  std::fflush(stdout);

  while (g_stop == 0) sigsuspend(&wait_mask);  // atomically unblocks + waits

  std::printf("shutting down\n");
  server.stop();
  service.stop();
  return 0;
}
