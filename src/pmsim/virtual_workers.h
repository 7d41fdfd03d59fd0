// Virtual workers: n modeled workers, each with its own ThreadContext,
// stepped round-robin on the calling OS thread. The bench driver's workers
// and the recovery replay (CclIndex::Replay) run here, so the XPBuffer/DIMM
// model sees the same request order every run and virtual-time metrics stay
// bit-identical (DESIGN.md §10). Real OS threads stay in the stress tests.
#ifndef SRC_PMSIM_VIRTUAL_WORKERS_H_
#define SRC_PMSIM_VIRTUAL_WORKERS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/pmsim/thread_context.h"

namespace cclbt::pmsim {

class VirtualWorkers {
 public:
  // Worker w gets worker id w, socket socket_of(w) and a clock at start_ns.
  // The caller's current context stays current.
  VirtualWorkers(PmDevice& device, int n, const std::function<int(int)>& socket_of,
                 uint64_t start_ns = 0) {
    ThreadContext* caller = ThreadContext::Current();
    for (int w = 0; w < n; w++) {
      ctxs_.push_back(std::make_unique<ThreadContext>(device, socket_of(w), w));
      ctxs_.back()->ResetClock(start_ns);
    }
    ThreadContext::SetCurrent(caller);
  }

  // Calls step(w) round-robin (w0, w1, ..., w0, ...) with w's context
  // current until every step has returned false, skipping finished workers.
  // A step should do a bounded slice of work (the driver's is one op) so the
  // clocks stay close, as the per-DIMM queueing model assumes. The caller's
  // context is current again on return, also when a step throws.
  template <typename StepFn>
  void Run(StepFn&& step) {
    struct Restore {
      ThreadContext* caller;
      ~Restore() { ThreadContext::SetCurrent(caller); }
    } restore{ThreadContext::Current()};
    std::vector<bool> alive(ctxs_.size(), true);
    for (bool any_alive = true; any_alive;) {
      any_alive = false;
      for (size_t w = 0; w < ctxs_.size(); w++) {
        if (alive[w]) {
          ThreadContext::SetCurrent(ctxs_[w].get());
          alive[w] = step(static_cast<int>(w));
          any_alive = any_alive || alive[w];
        }
      }
    }
  }

  // Raises every clock to the slowest one's and returns it.
  uint64_t Barrier() {
    uint64_t frontier = 0;
    for (const auto& ctx : ctxs_) {
      frontier = std::max(frontier, ctx->now_ns());
    }
    for (const auto& ctx : ctxs_) {
      ctx->ResetClock(frontier);
    }
    return frontier;
  }

 private:
  std::vector<std::unique_ptr<ThreadContext>> ctxs_;
};

}  // namespace cclbt::pmsim

#endif  // SRC_PMSIM_VIRTUAL_WORKERS_H_
