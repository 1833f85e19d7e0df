#ifndef SQUID_OBS_TRACE_H_
#define SQUID_OBS_TRACE_H_

/// \file trace.h
/// \brief RequestTrace: a per-request span object threaded through the
/// discover pipeline and the serve path. Each pipeline phase (queue wait,
/// entity lookup, disambiguation, context discovery, candidate abduction,
/// query build, executor run, result encoding) accumulates wall time and a
/// call count into the trace; the candidate fan-out runs phases from many
/// pool threads at once, so the per-phase cells are relaxed atomics.
///
/// The trace is observational only — a null trace pointer means "don't
/// measure" and ScopedPhaseTimer then never reads the clock, so the traced
/// and untraced code paths compute byte-identical answers (the serve parity
/// suite runs both and compares encodings).

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace squid {
namespace obs {

/// Pipeline phases in execution order (Fig. 4 of the paper plus the serve
/// queue in front and result encoding behind).
enum class Phase : int {
  kQueueWait = 0,        ///< admission to drain (serve queue)
  kEntityLookup,         ///< example rows -> inverted-index entity matches
  kDisambiguation,       ///< ResolveEntities: fetch candidate profiles
                         ///< (cache probes in serve mode), score, pick
  kContextDiscovery,     ///< fetch profiles disambiguation did not, merge
  kAbduction,            ///< AbduceFilters + LogPosterior scoring
  kQueryBuild,           ///< abduced filters -> SQL text
  kExecutorRun,          ///< running the abduced query
  kResultEncode,         ///< answer -> wire/REPL encoding
};
constexpr int kNumPhases = static_cast<int>(Phase::kResultEncode) + 1;

/// Stable lowercase name for a phase ("queue_wait", "abduction", ...).
const char* PhaseName(Phase phase);

/// \brief Accumulated per-phase timings for one request. Cells are relaxed
/// atomics because the abduction fan-out adds to the same phase from
/// several pool threads concurrently; totals are exact once the request
/// completes (all adds happen-before the completion read via the pool
/// join).
class RequestTrace {
 public:
  RequestTrace() = default;
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  void AddPhase(Phase phase, uint64_t ns) {
    const int i = static_cast<int>(phase);
    ns_[i].fetch_add(ns, std::memory_order_relaxed);
    calls_[i].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t PhaseNs(Phase phase) const {
    return ns_[static_cast<int>(phase)].load(std::memory_order_relaxed);
  }
  uint64_t PhaseCalls(Phase phase) const {
    return calls_[static_cast<int>(phase)].load(std::memory_order_relaxed);
  }

  /// Sum over all phases (note phases nest: entity lookup etc. are inside
  /// the end-to-end span, so this is not wall time).
  uint64_t TotalNs() const;

  /// Copies another trace's accumulated cells into this one.
  void Accumulate(const RequestTrace& other);

  void Reset();

  /// Human-readable phase breakdown, one line per non-empty phase:
  ///   "  abduction          1.234 ms  (5 calls)"
  /// Empty phases are skipped; an entirely empty trace renders a stub line.
  std::string Format() const;

 private:
  std::array<std::atomic<uint64_t>, kNumPhases> ns_{};
  std::array<std::atomic<uint64_t>, kNumPhases> calls_{};
};

/// Monotonic clock reading in ns (steady_clock; comparable only within the
/// process).
inline uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// \brief RAII phase timer. With a null trace it does nothing — not even a
/// clock read — so untraced requests pay only a pointer test.
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(RequestTrace* trace, Phase phase)
      : trace_(trace), phase_(phase),
        start_ns_(trace ? MonotonicNowNs() : 0) {}

  ~ScopedPhaseTimer() {
    if (trace_ == nullptr) return;
    const uint64_t now = MonotonicNowNs();
    trace_->AddPhase(phase_, now >= start_ns_ ? now - start_ns_ : 0);
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  RequestTrace* trace_;
  Phase phase_;
  uint64_t start_ns_;
};

}  // namespace obs
}  // namespace squid

#endif  // SQUID_OBS_TRACE_H_
