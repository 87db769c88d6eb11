#include "serve/protocol.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "sim/rng.hpp"

namespace cfm::serve {
namespace {

[[nodiscard]] std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

[[noreturn]] void bad_line(std::string_view line, const std::string& why) {
  throw std::invalid_argument("request line '" + std::string(line) +
                              "': " + why);
}

}  // namespace

std::optional<Request> parse_request_line(std::string_view line) {
  const auto body = trim(line.substr(0, line.find('#')));
  if (body.empty()) return std::nullopt;

  const auto space = body.find_first_of(" \t");
  const auto word = body.substr(0, space);
  Request req;
  if (word == "read") {
    req.kind = RequestKind::Read;
  } else if (word == "write") {
    req.kind = RequestKind::Write;
  } else if (word == "swap") {
    req.kind = RequestKind::Swap;
  } else if (word == "lock") {
    req.kind = RequestKind::Lock;
  } else {
    bad_line(line, "unknown request kind '" + std::string(word) +
                       "' (want read|write|swap|lock)");
  }

  if (space == std::string_view::npos) bad_line(line, "missing block address");
  const auto rest = trim(body.substr(space));
  std::uint64_t block = 0;
  const auto [end, ec] =
      std::from_chars(rest.data(), rest.data() + rest.size(), block);
  if (ec != std::errc{} || end != rest.data() + rest.size()) {
    bad_line(line, "block address '" + std::string(rest) +
                       "' is not a non-negative integer");
  }
  req.block = block;
  return req;
}

std::vector<Request> parse_request_stream(std::istream& is,
                                          const std::string& origin) {
  std::vector<Request> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    try {
      if (auto req = parse_request_line(line)) out.push_back(*req);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(origin + ":" + std::to_string(lineno) +
                                  ": " + e.what());
    }
  }
  return out;
}

std::vector<Request> load_request_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot open request file '" + path + "'");
  }
  return parse_request_stream(is, path);
}

std::vector<Request> synth_requests(std::size_t count, double write_frac,
                                    double swap_frac, double lock_frac,
                                    std::uint64_t blocks, std::uint64_t seed) {
  if (write_frac < 0 || swap_frac < 0 || lock_frac < 0 ||
      write_frac + swap_frac + lock_frac > 1.0) {
    throw std::invalid_argument(
        "request mix fractions must be non-negative and sum to <= 1");
  }
  if (blocks == 0) throw std::invalid_argument("synthetic blocks must be > 0");
  sim::Rng rng(seed);
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request req;
    const double roll = rng.uniform();
    if (roll < write_frac) {
      req.kind = RequestKind::Write;
    } else if (roll < write_frac + swap_frac) {
      req.kind = RequestKind::Swap;
    } else if (roll < write_frac + swap_frac + lock_frac) {
      req.kind = RequestKind::Lock;
    } else {
      req.kind = RequestKind::Read;
    }
    req.block = rng.below(blocks);
    out.push_back(req);
  }
  return out;
}

}  // namespace cfm::serve
