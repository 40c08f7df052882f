#include "apps/http.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <iterator>
#include <string_view>

namespace neat::apps {

namespace {
constexpr std::size_t kMaxHeadBytes = 8192;

/// Case-insensitive substring search in a header block, without copying
/// the head (this runs once per parsed message on the data path). `token`
/// is lower case. The fold is ASCII's, which is what std::tolower does in
/// the "C" locale every program here runs in.
std::size_t ci_find(std::string_view head, std::string_view token) {
  if (token.empty() || head.size() < token.size()) {
    return std::string_view::npos;
  }
  const auto lower = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  for (std::size_t i = 0; i + token.size() <= head.size(); ++i) {
    std::size_t k = 0;
    while (k < token.size() && lower(head[i + k]) == token[k]) ++k;
    if (k == token.size()) return i;
  }
  return std::string_view::npos;
}

bool contains_token(std::string_view head, std::string_view token) {
  return ci_find(head, token) != std::string_view::npos;
}

void append(std::vector<std::uint8_t>& out, std::string_view s) {
  // resize + memcpy, not insert(): GCC 12's -Wstringop-overflow misreads
  // the reallocating insert of a char range into a fresh vector.
  const std::size_t at = out.size();
  out.resize(at + s.size());
  if (!s.empty()) std::memcpy(out.data() + at, s.data(), s.size());
}

template <typename Int>
void append_number(std::vector<std::uint8_t>& out, Int v) {
  char digits[24];
  const auto res = std::to_chars(std::begin(digits), std::end(digits), v);
  append(out, {digits, res.ptr});
}
}  // namespace

std::size_t HttpRequestParser::feed(std::span<const std::uint8_t> data,
                                    std::vector<HttpRequest>& out) {
  if (error_) return 0;
  // What was buffered before this chunk holds no complete head (every one
  // was consumed), so the terminator search resumes 3 bytes before the
  // chunk. Consumed heads are erased once, at the end.
  std::size_t from = buf_.size() >= 3 ? buf_.size() - 3 : 0;
  buf_.append(reinterpret_cast<const char*>(data.data()), data.size());
  const std::size_t before = out.size();
  std::size_t consumed = 0;
  while (true) {
    const auto end = buf_.find("\r\n\r\n", from);
    if (end == std::string::npos) {
      if (buf_.size() - consumed > kMaxHeadBytes) error_ = true;
      break;
    }
    const std::string_view head(buf_.data() + consumed, end - consumed);
    consumed = end + 4;
    from = consumed;

    const auto line_end = head.find("\r\n");
    const std::string_view line =
        line_end == std::string_view::npos ? head : head.substr(0, line_end);
    const auto sp1 = line.find(' ');
    const auto sp2 = line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
      error_ = true;
      break;
    }
    HttpRequest& req = out.emplace_back();
    req.method.assign(line.substr(0, sp1));
    req.path.assign(line.substr(sp1 + 1, sp2 - sp1 - 1));
    // HTTP/1.1 defaults to keep-alive; "Connection: close" overrides.
    req.keep_alive = line.substr(sp2 + 1) == "HTTP/1.1"
                         ? !contains_token(head, "connection: close")
                         : contains_token(head, "connection: keep-alive");
  }
  buf_.erase(0, consumed);
  return out.size() - before;
}

std::vector<HttpRequest> HttpRequestParser::feed(
    std::span<const std::uint8_t> data) {
  std::vector<HttpRequest> out;
  feed(data, out);
  return out;
}

void serialize_request(std::vector<std::uint8_t>& out, std::string_view path,
                       bool keep_alive) {
  constexpr std::size_t kMaxFixed = 64;  // every byte but the path's
  out.clear();
  out.reserve(kMaxFixed + path.size());
  append(out, "GET ");
  append(out, path);
  append(out, " HTTP/1.1\r\nHost: sut\r\n");
  if (!keep_alive) append(out, "Connection: close\r\n");
  append(out, "\r\n");
}

std::vector<std::uint8_t> build_request(const std::string& path,
                                        bool keep_alive) {
  std::vector<std::uint8_t> out;
  serialize_request(out, path, keep_alive);
  return out;
}

void serialize_response(std::vector<std::uint8_t>& out, int status,
                        std::span<const std::uint8_t> body, bool keep_alive) {
  constexpr std::size_t kMaxHead = 96;  // the longest head below, rounded up
  out.clear();
  out.reserve(kMaxHead + body.size());
  append(out, "HTTP/1.1 ");
  append_number(out, status);
  append(out, status == 200 ? " OK" : " Error");
  append(out, "\r\nContent-Length: ");
  append_number(out, body.size());
  append(out, "\r\n");
  if (!keep_alive) append(out, "Connection: close\r\n");
  append(out, "\r\n");
  out.insert(out.end(), body.begin(), body.end());
}

std::vector<std::uint8_t> build_response(int status,
                                         std::span<const std::uint8_t> body,
                                         bool keep_alive) {
  std::vector<std::uint8_t> out;
  serialize_response(out, status, body, keep_alive);
  return out;
}

std::size_t HttpResponseParser::feed(std::span<const std::uint8_t> data) {
  std::size_t completed = 0;
  std::size_t i = 0;
  while (i < data.size() && !error_) {
    if (!in_body_) {
      // Bulk-append and search for the head terminator instead of walking
      // byte by byte: re-scan only the 3-byte overlap with what was
      // already buffered, and hand anything past the terminator straight
      // to the body branch below.
      const std::size_t old = head_.size();
      const std::size_t add =
          std::min(data.size() - i, kMaxHeadBytes + 4 - old);
      head_.append(reinterpret_cast<const char*>(data.data() + i), add);
      const std::size_t from = old >= 3 ? old - 3 : 0;
      const auto end = head_.find("\r\n\r\n", from);
      if (end == std::string::npos) {
        if (head_.size() > kMaxHeadBytes) {
          error_ = true;
          return completed;
        }
        i += add;
        continue;
      }
      i += end + 4 - old;     // bytes of `data` consumed by the head
      head_.resize(end + 4);  // surplus belongs to the body
      // Parse status line + Content-Length.
      const auto sp = head_.find(' ');
      status_ = 0;
      if (sp != std::string::npos) {
        std::from_chars(head_.data() + sp + 1, head_.data() + sp + 4,
                        status_);
      }
      const auto cl = ci_find(head_, "content-length:");
      std::size_t len = 0;
      if (cl != std::string::npos) {
        const char* p = head_.data() + cl + 15;
        while (*p == ' ') ++p;
        std::from_chars(p, head_.data() + head_.size(), len);
      }
      head_.clear();
      body_remaining_ = len;
      body_len_ = len;
      in_body_ = true;
      if (body_remaining_ == 0) {
        in_body_ = false;
        ++completed;
      }
    } else {
      const std::size_t take = std::min(body_remaining_, data.size() - i);
      if (sink_) sink_(body_len_ - body_remaining_, data.subspan(i, take));
      body_remaining_ -= take;
      body_total_ += take;
      i += take;
      if (body_remaining_ == 0) {
        in_body_ = false;
        ++completed;
      }
    }
  }
  return completed;
}

void FileStore::add(const std::string& path, std::size_t size) {
  std::vector<std::uint8_t> content(size);
  for (std::size_t i = 0; i < size; ++i) {
    content[i] = static_cast<std::uint8_t>('a' + (i * 31 + size) % 26);
  }
  files_[path] = std::move(content);
}

const std::vector<std::uint8_t>* FileStore::lookup(
    const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

}  // namespace neat::apps
