// Minimal HTTP/1.1 machinery: enough for a static-file keep-alive server
// and a request/response load generator (the paper's lighttpd + httperf
// roles). Incremental parsers tolerate arbitrary segmentation of the byte
// stream.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace neat::apps {

struct HttpRequest {
  std::string method;
  std::string path;
  bool keep_alive{true};
};

/// Incremental request parser (server side). Feed bytes; collect complete
/// requests. GET/HEAD only (no request bodies), like the benchmark.
class HttpRequestParser {
 public:
  /// Appends the requests completed by this chunk to `out` and returns
  /// how many. Sets error() on malformed input. The request path feeds a
  /// connection's own queue: with its capacity and the parser's buffer
  /// warm, a chunk allocates nothing (paths up to the string's inline
  /// size).
  std::size_t feed(std::span<const std::uint8_t> data,
                   std::vector<HttpRequest>& out);
  /// The same, into a fresh vector (tools and tests).
  std::vector<HttpRequest> feed(std::span<const std::uint8_t> data);

  [[nodiscard]] bool error() const { return error_; }
  /// Bytes of an incomplete request are buffered (slowloris deadline
  /// tracking keys off this).
  [[nodiscard]] bool partial() const { return !buf_.empty(); }
  void reset() {
    buf_.clear();
    error_ = false;
  }

 private:
  std::string buf_;
  bool error_{false};
};

/// Serialize a request into `out`, replacing its contents (its capacity
/// is reused).
void serialize_request(std::vector<std::uint8_t>& out, std::string_view path,
                       bool keep_alive = true);
/// The same, into a fresh vector (tools and tests).
[[nodiscard]] std::vector<std::uint8_t> build_request(const std::string& path,
                                                      bool keep_alive = true);

/// Serialize a response head + body into `out`, replacing its contents
/// (its capacity is reused).
void serialize_response(std::vector<std::uint8_t>& out, int status,
                        std::span<const std::uint8_t> body,
                        bool keep_alive = true);
/// The same, into a fresh vector (tools and tests).
[[nodiscard]] std::vector<std::uint8_t> build_response(
    int status, std::span<const std::uint8_t> body, bool keep_alive = true);

/// Incremental response parser (client side): status + Content-Length
/// framing. Call reset_for_next() between keep-alive responses.
class HttpResponseParser {
 public:
  /// Feed bytes; returns the number of *complete responses* finished.
  std::size_t feed(std::span<const std::uint8_t> data);

  [[nodiscard]] bool error() const { return error_; }
  [[nodiscard]] int last_status() const { return status_; }
  [[nodiscard]] std::uint64_t body_bytes_total() const { return body_total_; }

  /// Observes every body chunk with its offset inside the current response
  /// body. Lets clients verify payload integrity end-to-end (the chaos
  /// campaign's "no silent corruption" invariant) without buffering.
  using BodySink =
      std::function<void(std::size_t offset, std::span<const std::uint8_t>)>;
  void set_body_sink(BodySink sink) { sink_ = std::move(sink); }

  void reset() {
    head_.clear();
    in_body_ = false;
    body_remaining_ = 0;
    body_len_ = 0;
    error_ = false;
  }

 private:
  std::string head_;
  bool in_body_{false};
  std::size_t body_remaining_{0};
  std::size_t body_len_{0};
  int status_{0};
  bool error_{false};
  std::uint64_t body_total_{0};
  BodySink sink_;
};

/// In-memory static content (lighttpd serving files cached in memory).
class FileStore {
 public:
  /// Create /name with `size` deterministic filler bytes.
  void add(const std::string& path, std::size_t size);

  [[nodiscard]] const std::vector<std::uint8_t>* lookup(
      const std::string& path) const;

  [[nodiscard]] std::size_t count() const { return files_.size(); }

 private:
  std::map<std::string, std::vector<std::uint8_t>> files_;
};

}  // namespace neat::apps
