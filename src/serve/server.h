// cwm_serve's server core: a long-lived daemon that loads one Engine
// per configured graph at startup and serves allocation requests over a
// line-delimited JSON TCP protocol (serve/protocol.h).
//
// Architecture (one process):
//
//   acceptor thread ──► reader thread per connection
//                          │  parse line → ServeRequest
//                          │  TryPush ──► BoundedQueue (admission control)
//                          │     │ full → write `overloaded` immediately
//                          ▼     ▼
//                       worker pool (config.workers threads)
//                          │  ResolveServeBudgets + BuildAllocateRequest
//                          │  Engine::Allocate / AllocateBatch
//                          ▼
//                       response line (per-connection write mutex)
//
//   deadline watcher thread: flips each request's cancel flag at
//   arrival_time + deadline_ms; the engine's cooperative-cancellation
//   polls (RR chunks, greedy rounds) notice within ~10ms of work.
//
// On each pass the acceptor joins the readers that have finished and
// drops their connections; a connection's fd closes once the last queued
// job answering it is done. When accept() runs out of descriptors or
// memory (EMFILE, ENFILE, ENOBUFS, ENOMEM) the acceptor reaps, backs off
// briefly and retries until Shutdown() flags it to stop.
//
// Shutdown() drains gracefully: stop accepting, close reader sockets,
// close the queue (already-accepted requests still run and respond),
// join everything. Metrics: serve.requests, serve.responses,
// serve.rejected, serve.deadline_exceeded, serve.errors,
// serve.queue_depth (gauge), serve.request_seconds (histogram).
#ifndef CWM_SERVE_SERVER_H_
#define CWM_SERVE_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "api/engine.h"
#include "serve/config.h"
#include "serve/protocol.h"
#include "store/artifact_cache.h"
#include "support/status.h"

namespace cwm {

/// The engines a server (or the --oneshot path) routes requests to,
/// keyed by ServeGraphSpec::name. Loading is the expensive startup step
/// (graph construction / cache mmap); lookups afterwards are const.
class ServeEngineSet {
 public:
  /// Opens every configured graph. Fails fast on the first graph that
  /// cannot load — a server with missing graphs is misconfigured.
  static StatusOr<std::unique_ptr<ServeEngineSet>> Load(
      const ServeConfig& config);

  ServeEngineSet(const ServeEngineSet&) = delete;
  ServeEngineSet& operator=(const ServeEngineSet&) = delete;

  /// Engine for a request's graph name; null when unknown.
  const Engine* Find(std::string_view name) const;

 private:
  ServeEngineSet() = default;

  std::unique_ptr<ArtifactCache> cache_;  // may be null (no cache_dir)
  std::map<std::string, std::unique_ptr<Engine>, std::less<>> engines_;
};

/// Runs one parsed request to completion against `engines` and returns
/// the response line (success or error; no trailing newline). This is
/// the single execution path shared by server workers, cwm_serve
/// --oneshot, and tests — bit-identical responses by construction.
///
/// `cancel` may be null (no deadline). When the run comes back
/// Cancelled and `cancel` is set, the error code is `deadline_exceeded`
/// if the request carried a deadline, else `cancelled` (shutdown).
std::string ExecuteServeRequest(const ServeEngineSet& engines,
                                const ServeRequest& request,
                                const std::atomic<bool>* cancel);

/// The daemon. Start() binds the socket, loads engines, and spins up
/// the acceptor/worker/deadline threads; Shutdown() (or destruction)
/// drains gracefully.
class Server {
 public:
  static StatusOr<std::unique_ptr<Server>> Start(ServeConfig config);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Destructor shuts down if Shutdown() was not called.
  ~Server();

  /// The bound TCP port (resolves config port 0 to the ephemeral pick).
  int port() const;

  /// Graceful shutdown, idempotent: stop accepting, let queued and
  /// in-flight requests finish and respond, then join every thread.
  void Shutdown();

 private:
  struct Impl;
  explicit Server(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace cwm

#endif  // CWM_SERVE_SERVER_H_
