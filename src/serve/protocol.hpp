// Line protocol for the CFM serving front end (DESIGN.md §13).
//
// A request stream is a sequence of text lines, one block request per
// line; the same grammar feeds both replayable request files
// (`cfm_serve --requests <file>`) and the interactive stdin command loop
// (where lines arrive incrementally and `.directives` control the
// server).  Request lines:
//
//   read <block>          block read
//   write <block>         block write (deterministic payload)
//   swap <block>          atomic read-modify-write (fetch-and-increment)
//   lock <block>          test-and-set on word 0 of the block, via Swap
//
// Blank lines and `#` comments are skipped.  Malformed lines throw
// std::invalid_argument with the offending line number — a typo in a
// request file must not silently serve a different workload.
//
// The protocol deliberately names only *what* is requested; *when* it
// arrives is owned by the open-loop arrival process (arrival.hpp), which
// assigns arrival cycles independently of service progress.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace cfm::serve {

enum class RequestKind : std::uint8_t { Read, Write, Swap, Lock };

struct Request {
  RequestKind kind = RequestKind::Read;
  sim::BlockAddr block = 0;

  bool operator==(const Request&) const = default;
};

/// Parses one request line.  Returns nullopt for blank / comment lines;
/// throws std::invalid_argument on malformed input.
[[nodiscard]] std::optional<Request> parse_request_line(std::string_view line);

/// Parses a whole request stream; line numbers in error messages are
/// 1-based.  `origin` names the stream in those messages.
[[nodiscard]] std::vector<Request> parse_request_stream(
    std::istream& is, const std::string& origin = "<stream>");

/// Loads a request file; throws std::runtime_error when unreadable and
/// std::invalid_argument on malformed lines.
[[nodiscard]] std::vector<Request> load_request_file(const std::string& path);

/// Deterministic synthetic request stream: `count` requests over
/// `blocks` distinct block addresses with the given write / swap / lock
/// fractions (remainder reads), from the seeded sim::Rng.  The same
/// (count, fractions, blocks, seed) always yields the same stream.
[[nodiscard]] std::vector<Request> synth_requests(std::size_t count,
                                                  double write_frac,
                                                  double swap_frac,
                                                  double lock_frac,
                                                  std::uint64_t blocks,
                                                  std::uint64_t seed);

}  // namespace cfm::serve
