// Multi-process transport backend: real worker processes over Unix-domain
// socketpairs.
//
// Workers are spawned either by fork() (the worker loop runs in the child —
// the default for tests, no binary needed) or by fork()+exec() of the
// standalone `tme_worker` binary with the socket on an inherited fd.  The
// coordinator multiplexes every connection through poll(), so deadlines are
// real wall-clock deadlines and a SIGKILLed worker surfaces as POLLHUP/EOF
// on its socket — crash *detection*, not simulation.
//
// Forked children never touch the thread pool (tasks run the pool-free
// block kernels, see par/executor.hpp and grid/block.hpp) and terminate
// with _exit() so they cannot run the parent's atexit handlers or
// leak-check machinery.
#pragma once

#include <sys/types.h>

#include <deque>
#include <optional>

#include "par/transport.hpp"
#include "util/rng.hpp"

namespace tme::par {

// Worker side of one fd-backed connection; also used by the tme_worker
// binary (exec mode), which finds its socket on an inherited fd.
class FdEndpoint : public Endpoint {
 public:
  explicit FdEndpoint(int fd) : fd_(fd) {}
  ~FdEndpoint() override;

  RecvStatus recv(Message& out, std::chrono::milliseconds deadline) override;
  bool send(const Message& m) override;
  // Real abrupt death: SIGKILL to self.  The coordinator sees EOF.
  void crash() override;

 private:
  int fd_;
  std::vector<std::uint8_t> rxbuf_;
  std::uint64_t tx_seq_ = 0;
};

class ProcTransport : public Transport {
 public:
  struct Options {
    // Non-empty: fork+exec this binary with `--fd N`.  Empty: plain fork,
    // running `fork_child(fd)` in the child (which must not return).
    std::string worker_bin;
    std::function<void(int fd)> fork_child;
    TransportFaultPolicy fault;
    // >0: kill() sends SIGTERM first and gives the worker this long to
    // drain and exit on its own before escalating to SIGKILL.  0 keeps the
    // abrupt SIGKILL semantics the crash drills rely on.
    long term_grace_ms = 0;
    // Exec-mode workers get `--ctx <path>` so a SIGTERM drain can flush
    // their sealed context; empty omits the flag.
    std::string context_path;
  };

  ProcTransport(std::size_t workers, Options opts);
  ~ProcTransport() override;

  const char* name() const override { return "proc"; }
  std::size_t worker_count() const override { return peers_.size(); }
  bool alive(std::size_t worker) const override;
  void send(std::size_t worker, const Message& m) override;
  RecvStatus recv(std::size_t worker, Message& out,
                  std::chrono::milliseconds deadline) override;
  std::optional<AnyResult> recv_any(const std::vector<char>& want, Message& out,
                                    std::chrono::milliseconds deadline) override;
  // With term_grace_ms == 0: SIGKILL + reap, the real thing, usable as a
  // drill trigger from tests.  With a grace period: SIGTERM, wait for a
  // voluntary exit up to the deadline (draining sockets meanwhile, so the
  // final result and kBye still land), then SIGKILL whatever remains.
  void kill(std::size_t worker) override;
  // kill() with an explicit grace period, overriding Options::term_grace_ms
  // for this one call.
  void terminate(std::size_t worker, long grace_ms);
  void respawn(std::size_t worker) override;
  void set_fault_policy(const TransportFaultPolicy& fault) override;

  pid_t pid(std::size_t worker) const;

  // Raw waitpid status of the worker's most recently reaped process, when
  // one has been collected.  `exited_cleanly` distinguishes "asked to stop"
  // (voluntary exit 0 after a SIGTERM drain) from "crashed" (signal death
  // or a nonzero exit).
  std::optional<int> exit_status(std::size_t worker) const;
  bool exited_cleanly(std::size_t worker) const;

 private:
  struct Peer {
    pid_t pid = -1;
    int fd = -1;
    bool alive = false;
    bool reaped = true;
    bool have_status = false;
    int exit_status = 0;
    std::vector<std::uint8_t> rxbuf;
    std::deque<Message> rxq;
    std::uint64_t tx_seq = 0;
  };

  void spawn(std::size_t worker);
  void mark_dead(std::size_t worker);
  void reap(std::size_t worker, bool block);
  // Drains every readable socket into the per-peer queues; optionally waits
  // up to `timeout_ms` for readiness, watching `want_writable_fd` for
  // writability (sets *writable).
  void pump(int timeout_ms, int want_writable_fd = -1, bool* writable = nullptr);

  std::vector<Peer> peers_;
  Options opts_;
  Rng fault_rng_{2021};
};

}  // namespace tme::par
