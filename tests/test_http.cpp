// HTTP codec and FileStore tests, including chunking property tests.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "apps/http.hpp"
#include "sim/random.hpp"

namespace neat::apps {
namespace {

std::span<const std::uint8_t> bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(HttpRequestParser, ParsesSimpleGet) {
  HttpRequestParser p;
  auto reqs = p.feed(bytes("GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"));
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].method, "GET");
  EXPECT_EQ(reqs[0].path, "/index.html");
  EXPECT_TRUE(reqs[0].keep_alive);
}

TEST(HttpRequestParser, ConnectionCloseDisablesKeepAlive) {
  HttpRequestParser p;
  auto reqs = p.feed(
      bytes("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_FALSE(reqs[0].keep_alive);
}

TEST(HttpRequestParser, Http10DefaultsToClose) {
  HttpRequestParser p;
  auto reqs = p.feed(bytes("GET / HTTP/1.0\r\n\r\n"));
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_FALSE(reqs[0].keep_alive);
  auto reqs2 = p.feed(
      bytes("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
  ASSERT_EQ(reqs2.size(), 1u);
  EXPECT_TRUE(reqs2[0].keep_alive);
}

TEST(HttpRequestParser, PipelinedRequestsInOneChunk) {
  HttpRequestParser p;
  auto reqs = p.feed(bytes("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"));
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].path, "/a");
  EXPECT_EQ(reqs[1].path, "/b");
}

TEST(HttpRequestParser, MalformedRequestLineSetsError) {
  HttpRequestParser p;
  p.feed(bytes("NONSENSE\r\n\r\n"));
  EXPECT_TRUE(p.error());
}

TEST(HttpRequestParser, OversizedHeaderSetsError) {
  HttpRequestParser p;
  std::string huge = "GET / HTTP/1.1\r\nX: ";
  huge += std::string(10000, 'a');
  p.feed(bytes(huge));
  EXPECT_TRUE(p.error());
}

class RequestChunking : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RequestChunking, ArbitrarySegmentationYieldsSameRequests) {
  sim::Rng rng(GetParam());
  std::string stream;
  for (int i = 0; i < 20; ++i) {
    stream += "GET /f" + std::to_string(i) + " HTTP/1.1\r\nHost: s\r\n\r\n";
  }
  HttpRequestParser p;
  std::vector<HttpRequest> all;
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.below(23), stream.size() - off);
    auto got = p.feed(bytes(stream.substr(off, n)));
    all.insert(all.end(), got.begin(), got.end());
    off += n;
  }
  ASSERT_EQ(all.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)].path,
              "/f" + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequestChunking,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(HttpResponse, BuildAndParseRoundtrip) {
  const std::vector<std::uint8_t> body{'h', 'i'};
  auto resp = build_response(200, body);
  HttpResponseParser p;
  EXPECT_EQ(p.feed(resp), 1u);
  EXPECT_EQ(p.last_status(), 200);
  EXPECT_EQ(p.body_bytes_total(), 2u);
}

TEST(HttpResponse, ErrorResponseHasEmptyBody) {
  auto resp = build_response(404, {});
  HttpResponseParser p;
  EXPECT_EQ(p.feed(resp), 1u);
  EXPECT_EQ(p.last_status(), 404);
  EXPECT_EQ(p.body_bytes_total(), 0u);
}

class ResponseChunking : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResponseChunking, KeepAliveStreamCountsAllResponses) {
  sim::Rng rng(GetParam());
  std::vector<std::uint8_t> stream;
  std::size_t body_total = 0;
  for (int i = 0; i < 10; ++i) {
    std::vector<std::uint8_t> body(rng.below(300));
    body_total += body.size();
    auto r = build_response(200, body);
    stream.insert(stream.end(), r.begin(), r.end());
  }
  HttpResponseParser p;
  std::size_t complete = 0;
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.below(97), stream.size() - off);
    complete += p.feed(std::span<const std::uint8_t>(stream).subspan(off, n));
    off += n;
  }
  EXPECT_EQ(complete, 10u);
  EXPECT_EQ(p.body_bytes_total(), body_total);
  EXPECT_FALSE(p.error());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResponseChunking,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(HttpRequestBuilder, RoundtripsThroughParser) {
  auto req = build_request("/file20");
  HttpRequestParser p;
  auto got = p.feed(req);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].path, "/file20");
  EXPECT_TRUE(got[0].keep_alive);
}

// ---------------------------------------------------------------------------
// Equivalence with the string-building codec the reused-buffer one replaced
// ---------------------------------------------------------------------------

/// The request parser as it was before it parsed through string_views into
/// the caller's vector: substr copies, a fresh vector per chunk, and
/// std::tolower for the case fold.
class ReferenceRequestParser {
 public:
  std::vector<HttpRequest> feed(std::span<const std::uint8_t> data) {
    std::vector<HttpRequest> out;
    if (error_) return out;
    buf_.append(reinterpret_cast<const char*>(data.data()), data.size());
    while (true) {
      const auto end = buf_.find("\r\n\r\n");
      if (end == std::string::npos) {
        if (buf_.size() > 8192) error_ = true;
        return out;
      }
      const std::string head = buf_.substr(0, end);
      buf_.erase(0, end + 4);
      HttpRequest req;
      const auto line_end = head.find("\r\n");
      const std::string line =
          line_end == std::string::npos ? head : head.substr(0, line_end);
      const auto sp1 = line.find(' ');
      const auto sp2 = line.find(' ', sp1 + 1);
      if (sp1 == std::string::npos || sp2 == std::string::npos) {
        error_ = true;
        return out;
      }
      req.method = line.substr(0, sp1);
      req.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::string version = line.substr(sp2 + 1);
      req.keep_alive = version == "HTTP/1.1"
                           ? !contains(head, "connection: close")
                           : contains(head, "connection: keep-alive");
      out.push_back(std::move(req));
    }
  }
  [[nodiscard]] bool error() const { return error_; }
  [[nodiscard]] bool partial() const { return !buf_.empty(); }

 private:
  static bool contains(std::string_view head, std::string_view token) {
    for (std::size_t i = 0; i + token.size() <= head.size(); ++i) {
      std::size_t k = 0;
      while (k < token.size() &&
             static_cast<char>(std::tolower(
                 static_cast<unsigned char>(head[i + k]))) == token[k]) {
        ++k;
      }
      if (k == token.size()) return true;
    }
    return false;
  }

  std::string buf_;
  bool error_{false};
};

std::vector<std::uint8_t> reference_build_request(const std::string& path,
                                                  bool keep_alive) {
  std::string s = "GET " + path + " HTTP/1.1\r\nHost: sut\r\n";
  if (!keep_alive) s += "Connection: close\r\n";
  s += "\r\n";
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> reference_build_response(
    int status, std::span<const std::uint8_t> body, bool keep_alive) {
  std::string head = "HTTP/1.1 " + std::to_string(status) +
                     (status == 200 ? " OK" : " Error") +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\n";
  if (!keep_alive) head += "Connection: close\r\n";
  head += "\r\n";
  std::vector<std::uint8_t> out(head.begin(), head.end());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

/// A random pipelined request stream: methods, paths past the string's
/// inline size, both versions and a bad one, Connection headers in random
/// case, header bytes above 0x7f, and (with `malformed`) a request line
/// without its spaces somewhere along the way. Every head stays far below
/// the parser's 8 KiB cap, so how the stream is split cannot matter.
std::string random_request_stream(sim::Rng& rng, bool malformed) {
  static constexpr std::string_view kMethods[] = {"GET", "HEAD", "POST"};
  static constexpr std::string_view kVersions[] = {"HTTP/1.1", "HTTP/1.0",
                                                   "HTTP/2"};
  static constexpr std::string_view kConnection[] = {
      "connection: close", "Connection: Close", "CONNECTION: CLOSE",
      "Connection: keep-alive", "connection: Keep-Alive",
      "X-Connection: closed-ish"};
  const auto random_case = [&rng](std::string_view s) {
    std::string out(s);
    for (char& c : out) {
      if (rng.chance(0.3)) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
    }
    return out;
  };
  std::string stream;
  const std::size_t n = 1 + rng.below(12);
  const std::size_t bad_at = malformed ? rng.below(n) : n;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == bad_at) {
      stream += "GARBAGE\r\nHost: x\r\n\r\n";
      continue;
    }
    std::string path = "/";
    const std::size_t len = rng.below(40);
    for (std::size_t k = 0; k < len; ++k) {
      path += static_cast<char>('a' + rng.below(26));
    }
    stream += std::string(kMethods[rng.below(3)]) + " " + path + " " +
              std::string(kVersions[rng.below(3)]) + "\r\n";
    stream += "Host: sut\r\n";
    if (rng.chance(0.5)) {
      stream += random_case(kConnection[rng.below(6)]) + "\r\n";
    }
    if (rng.chance(0.3)) {
      stream += "X-Bytes: ";
      for (int k = 0; k < 8; ++k) {
        stream += static_cast<char>(0x80 + rng.below(0x80));
      }
      stream += "\r\n";
    }
    stream += "\r\n";
  }
  return stream;
}

struct Parsed {
  std::vector<HttpRequest> requests;
  bool error{false};
  bool partial{false};
};

bool same_requests(const std::vector<HttpRequest>& a,
                   const std::vector<HttpRequest>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].method != b[i].method || a[i].path != b[i].path ||
        a[i].keep_alive != b[i].keep_alive) {
      return false;
    }
  }
  return true;
}

class ParserEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserEquivalence, RandomSplitsParseLikeOneWholeFeed) {
  sim::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const std::string stream = random_request_stream(rng, rng.chance(0.2));

    HttpRequestParser whole;
    Parsed w;
    whole.feed(bytes(stream), w.requests);
    w.error = whole.error();

    // The same stream in random pieces, appended to one queue that
    // already holds requests (a connection's queue is never cleared).
    HttpRequestParser split;
    ReferenceRequestParser reference;
    Parsed s;
    Parsed r;
    s.requests.resize(3);
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n = std::min<std::size_t>(
          rng.below(4) == 0 ? 1 : 1 + rng.below(64), stream.size() - off);
      const std::string piece = stream.substr(off, n);
      const auto chunk = bytes(piece);
      const std::size_t before = s.requests.size();
      const std::size_t got = split.feed(chunk, s.requests);
      EXPECT_EQ(got, s.requests.size() - before);
      for (auto& req : reference.feed(chunk)) r.requests.push_back(req);
      off += n;
    }
    s.requests.erase(s.requests.begin(), s.requests.begin() + 3);
    s.error = split.error();
    s.partial = split.partial();
    r.error = reference.error();
    r.partial = reference.partial();

    ASSERT_TRUE(same_requests(s.requests, w.requests)) << stream;
    ASSERT_EQ(s.error, w.error) << stream;
    // And exactly what the string-building parser made of the same chunks.
    ASSERT_TRUE(same_requests(s.requests, r.requests)) << stream;
    ASSERT_EQ(s.error, r.error) << stream;
    ASSERT_EQ(s.partial, r.partial) << stream;
    // The value-returning form is the same parse.
    HttpRequestParser fresh;
    ASSERT_TRUE(same_requests(fresh.feed(bytes(stream)), w.requests));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserEquivalence,
                         ::testing::Range<std::uint64_t>(1, 6));

TEST(SerializerEquivalence, ResponsesMatchTheStringBuiltBytes) {
  sim::Rng rng(5);
  std::vector<std::size_t> sizes{0, 1, 15, 16, 20, 1460, 4096, 65535, 65536};
  for (int i = 0; i < 8; ++i) sizes.push_back(rng.below(65537));
  // One reused buffer, as a connection's `out` is: whatever it held
  // before (longer or shorter) must not leak into the next response.
  std::vector<std::uint8_t> out(70000, 0xee);
  for (const std::size_t size : sizes) {
    std::vector<std::uint8_t> body(size);
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
    for (const int status : {200, 404}) {
      for (const bool keep_alive : {true, false}) {
        const auto want = reference_build_response(status, body, keep_alive);
        serialize_response(out, status, body, keep_alive);
        ASSERT_EQ(out, want) << status << " " << size << " " << keep_alive;
        ASSERT_EQ(build_response(status, body, keep_alive), want);
      }
    }
  }
}

TEST(SerializerEquivalence, RequestsMatchTheStringBuiltBytes) {
  std::vector<std::uint8_t> out(500, 0xee);
  for (const std::string path :
       {"/", "/file20", "/a/much/longer/path/than/any/inline/string"}) {
    for (const bool keep_alive : {true, false}) {
      const auto want = reference_build_request(path, keep_alive);
      serialize_request(out, path, keep_alive);
      ASSERT_EQ(out, want) << path;
      ASSERT_EQ(build_request(path, keep_alive), want);
    }
  }
}

TEST(FileStore, DeterministicContent) {
  FileStore fs;
  fs.add("/a", 100);
  fs.add("/b", 0);
  ASSERT_NE(fs.lookup("/a"), nullptr);
  EXPECT_EQ(fs.lookup("/a")->size(), 100u);
  EXPECT_EQ(fs.lookup("/b")->size(), 0u);
  EXPECT_EQ(fs.lookup("/missing"), nullptr);
  FileStore fs2;
  fs2.add("/a", 100);
  EXPECT_EQ(*fs.lookup("/a"), *fs2.lookup("/a"));
}

}  // namespace
}  // namespace neat::apps
