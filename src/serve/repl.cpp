#include "serve/repl.h"

#include <future>
#include <istream>
#include <memory>
#include <ostream>

#include "common/strings.h"
#include "sql/printer.h"

namespace squid {

std::vector<std::string> Repl::ParseExamples(const std::string& line) {
  std::vector<std::string> examples;
  size_t start = 0;
  while (start <= line.size()) {
    size_t semi = line.find(';', start);
    if (semi == std::string::npos) semi = line.size();
    std::string example = Trim(line.substr(start, semi - start));
    if (!example.empty()) examples.push_back(std::move(example));
    start = semi + 1;
  }
  return examples;
}

std::vector<std::string> Repl::SplitBatch(const std::string& line) {
  std::vector<std::string> segments;
  size_t start = 0;
  while (start <= line.size()) {
    size_t bar = line.find('|', start);
    if (bar == std::string::npos) bar = line.size();
    std::string segment = Trim(line.substr(start, bar - start));
    if (!segment.empty()) segments.push_back(std::move(segment));
    start = bar + 1;
  }
  return segments;
}

void Repl::HandleCommand(const std::string& command) {
  if (command == ".quit" || command == ".exit") {
    done_ = true;
    return;
  }
  if (command == ".stats") {
    ServeStats s = service_->stats();
    *out_ << "stats threads=" << s.threads << " requests=" << s.requests
          << " completed=" << s.completed << " failed=" << s.failed
          << " rejected=" << s.rejected << " queue_depth=" << s.queue_depth
          << "\n";
    *out_ << "cache hits=" << s.hits << " misses=" << s.misses
          << " evictions=" << s.evictions << " entries=" << s.entries
          << " bytes=" << s.bytes << "/" << s.capacity_bytes << " hit_rate=";
    // Scoped precision: the caller's stream state must survive a .stats.
    const std::streamsize saved_precision = out_->precision(3);
    *out_ << s.HitRate() << "\n";
    // Latency percentiles from the server-side histograms (empty until a
    // request completes).
    if (!s.request_ns.Empty()) {
      *out_ << "latency p50=" << static_cast<double>(s.RequestP50Ns()) / 1e6
            << "ms p90=" << static_cast<double>(s.RequestP90Ns()) / 1e6
            << "ms p99=" << static_cast<double>(s.RequestP99Ns()) / 1e6
            << "ms max=" << static_cast<double>(s.RequestMaxNs()) / 1e6
            << "ms\n";
    }
    if (!s.queue_wait_ns.Empty()) {
      *out_ << "queue_wait p50="
            << static_cast<double>(s.QueueWaitP50Ns()) / 1e6
            << "ms p99=" << static_cast<double>(s.QueueWaitP99Ns()) / 1e6
            << "ms\n";
    }
    out_->precision(saved_precision);
    return;
  }
  if (command == ".metrics") {
    // The full registry this service records into, Prometheus text format.
    *out_ << service_->metrics().DumpText();
    return;
  }
  if (command == ".trace on") {
    service_->set_tracing(true);
    *out_ << "trace on\n";
    return;
  }
  if (command == ".trace off") {
    service_->set_tracing(false);
    *out_ << "trace off\n";
    return;
  }
  if (command == ".trace") {
    std::shared_ptr<const obs::RequestTrace> trace = service_->last_trace();
    if (trace == nullptr) {
      *out_ << "trace " << (service_->tracing() ? "on" : "off")
            << " (no traced request yet)\n";
      return;
    }
    *out_ << "trace of last request:\n" << trace->Format();
    return;
  }
  if (command == ".help") {
    *out_ << "# one request per line: examples separated by ';'\n"
          << "#   Tom Hanks; Meg Ryan\n"
          << "# '|' separates requests dispatched as one concurrent batch\n"
          << "# commands: .stats .metrics .trace [on|off] .help .quit\n";
    return;
  }
  *out_ << "err unknown command '" << command << "' (try .help)\n";
}

void Repl::HandleRequests(const std::string& line, RunStats* stats) {
  std::vector<std::string> segments = SplitBatch(line);
  if (segments.empty()) {
    // An all-'|' line parses to zero requests; report it instead of
    // silently answering nothing (the client is waiting for output).
    ++stats->errors;
    *out_ << "err empty request line (only separators)\n";
    out_->flush();
    return;
  }
  std::vector<std::vector<std::string>> batch;
  batch.reserve(segments.size());
  for (const std::string& segment : segments) {
    std::vector<std::string> examples = ParseExamples(segment);
    if (examples.empty()) {
      // e.g. a ";;" segment: non-empty text, zero examples. Answer in
      // place (never dispatched, so not counted in `requests`).
      ++stats->errors;
      *out_ << "err empty request segment '" << segment
            << "' (no examples between separators)\n";
      continue;
    }
    batch.push_back(std::move(examples));
  }
  // Save/restore the full stream state: the response formatting below sets
  // precision and std::fixed, and the caller's ostream must come back
  // exactly as it went in.
  const std::ios_base::fmtflags saved_flags = out_->flags();
  const std::streamsize saved_precision = out_->precision();
  // One Submit per request, so the batch runs concurrently; answers print
  // in request order. A request the service sheds is answered in place.
  std::vector<std::future<Result<AbducedQuery>>> answers;
  answers.reserve(batch.size());
  for (std::vector<std::string>& examples : batch) {
    auto answer = std::make_shared<std::promise<Result<AbducedQuery>>>();
    answers.push_back(answer->get_future());
    if (!service_->Submit(std::move(examples),
                          [answer](Result<AbducedQuery> result) {
                            answer->set_value(std::move(result));
                          })) {
      answer->set_value(
          Status::NotSupported("SquidService overloaded or shutting down"));
    }
  }
  stats->requests += answers.size();
  for (auto& answer : answers) {
    Result<AbducedQuery> result = answer.get();
    if (!result.ok()) {
      ++stats->errors;
      *out_ << "err " << result.status().ToString() << "\n";
      continue;
    }
    ++stats->ok;
    const AbducedQuery& q = result.value();
    out_->precision(6);
    *out_ << "ok base=" << q.entity_relation << "." << q.projection_attr
          << " posterior=" << std::fixed << q.log_posterior
          << " filters=" << q.NumIncludedFilters() << "/" << q.filters.size()
          << "\n";
    out_->unsetf(std::ios_base::fixed);
    *out_ << "sql " << ToSql(q.original_query) << "\n";
  }
  out_->flags(saved_flags);
  out_->precision(saved_precision);
  out_->flush();
}

Repl::RunStats Repl::Run() {
  RunStats stats;
  std::string line;
  while (!done_ && std::getline(*in_, line)) {
    std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (trimmed[0] == '.') {
      HandleCommand(trimmed);
      continue;
    }
    HandleRequests(trimmed, &stats);
  }
  out_->flush();
  return stats;
}

}  // namespace squid
