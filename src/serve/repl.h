#ifndef SQUID_SERVE_REPL_H_
#define SQUID_SERVE_REPL_H_

/// \file repl.h
/// \brief Line-oriented driver for a SquidService, so serve mode is
/// exercisable end to end from a terminal or a piped script
/// (examples/serve_repl.cpp is the binary).
///
/// Request format, one request set per line:
///
///   Tom Hanks; Meg Ryan            -> examples separated by ';'
///   Tom Hanks; Meg Ryan | Big      -> '|' separates requests dispatched
///                                     together as one concurrent batch
///   # comment                      -> ignored, as are blank lines
///   .stats                         -> prints ServeStats counters
///   .help                          -> prints this protocol
///   .quit                          -> stops the loop
///
/// Response format, per request, in request order:
///
///   ok base=<relation>.<attr> posterior=<logp> filters=<included>/<total>
///   sql <original-schema SQL, one line>
///
/// or on failure:
///
///   err <status>

#include <iosfwd>
#include <string>
#include <vector>

#include "serve/squid_service.h"

namespace squid {

/// \brief Reads requests from a stream, drives the service, writes answers.
class Repl {
 public:
  /// Tally of one Run (the smoke driver asserts on these).
  struct RunStats {
    size_t requests = 0;  ///< requests dispatched (batch lines count each)
    size_t ok = 0;        ///< answered with an abduced query
    size_t errors = 0;    ///< answered with a non-OK status, plus malformed
                          ///< lines/segments (all separators, zero examples)
                          ///< reported without dispatching
  };

  Repl(SquidService* service, std::istream* in, std::ostream* out)
      : service_(service), in_(in), out_(out) {}

  /// Runs until EOF or `.quit`.
  RunStats Run();

  /// Splits one request line on ';' into trimmed example strings.
  static std::vector<std::string> ParseExamples(const std::string& line);

  /// Splits a line on '|' into one-or-more request segments.
  static std::vector<std::string> SplitBatch(const std::string& line);

 private:
  void HandleCommand(const std::string& command);
  /// Submits every request of `line` at once and prints answers in request
  /// order; a request the service sheds is answered `err`.
  void HandleRequests(const std::string& line, RunStats* stats);

  SquidService* service_;
  std::istream* in_;
  std::ostream* out_;
  bool done_ = false;
};

}  // namespace squid

#endif  // SQUID_SERVE_REPL_H_
