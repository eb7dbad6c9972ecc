// FlowService: the part of drdesyncd that actually runs the flow.
//
// One FlowService holds the daemon's shared hot state — the resolved
// Liberty library/gatefile — and turns one parsed Request into one reply
// object.  Requests are isolated through
// scoped state only:
//
//   - trace::TrackScope gives the request its own named trace track, so a
//     trace written by the daemon shows per-request lanes instead of an
//     interleaved soup;
//   - core::JobsScope applies the request's `jobs` budget to exactly the
//     handling thread for exactly the request's duration (the bug the old
//     process-wide jobs override made impossible to fix);
//   - the Design/Module being desynchronized are request-local; the
//     library and gatefile are shared and concurrent-safe.
//
// handle() never throws for request-level failures: parse and flow errors
// come back as ok=false replies carrying errorReport, exactly like the
// CLI's --report output on failure.
#pragma once

#include <cstdint>
#include <string>

#include "liberty/gatefile.h"
#include "liberty/library.h"
#include "server/protocol.h"
#include "util/json.h"

namespace desync::server {

struct ServiceOptions {
  /// Liberty library spec: a .lib path, "builtin:hs" or "builtin:ll".
  std::string lib = "builtin:hs";
  /// Default per-request worker budget when a request does not set `jobs`
  /// (0 = environment/hardware default).
  int default_jobs = 0;
};

class FlowService {
 public:
  /// Resolves the library once; throws on an unreadable spec.
  explicit FlowService(const ServiceOptions& options);

  FlowService(const FlowService&) = delete;
  FlowService& operator=(const FlowService&) = delete;

  /// Runs one desynchronization request to completion on the calling
  /// thread and returns the reply object (without queue timing, which only
  /// the scheduler knows — the server sets "queue_ms" before writing).
  [[nodiscard]] util::Json handle(const Request& req);

  [[nodiscard]] const liberty::Gatefile& gatefile() const {
    return gatefile_;
  }

 private:
  liberty::Library library_;  ///< must outlive gatefile_
  liberty::Gatefile gatefile_;
  int default_jobs_ = 0;
};

}  // namespace desync::server
