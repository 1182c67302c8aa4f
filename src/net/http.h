// Minimal HTTP/1.0-1.1 machinery for the server plane: an incremental,
// hard-bounded request parser plus a response builder. The parser is
// deliberately strict and small — it accepts the subset the telemetry and
// query endpoints need (GET/POST, Content-Length bodies) and rejects
// everything else with the right 4xx/5xx code instead of guessing. Every
// buffer it grows is capped by HttpLimits, so a client that streams an
// unbounded request line or header block is cut off at the limit, not at
// OOM.
#ifndef TEMPSPEC_NET_HTTP_H_
#define TEMPSPEC_NET_HTTP_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tempspec {

/// \brief Byte caps for a single request. A parse that would exceed one
/// enters the error state with the matching HTTP status (431 for the
/// request line / headers, 413 for the body).
struct HttpLimits {
  size_t max_request_line_bytes = 8 * 1024;
  size_t max_header_bytes = 16 * 1024;  // all header lines together
  size_t max_body_bytes = 1 * 1024 * 1024;
  size_t max_headers = 64;
};

/// \brief One parsed request.
struct HttpRequest {
  std::string method;
  std::string target;   // path only; the query string is split off below
  std::string query;    // bytes after '?' (no decoding), "" when absent
  std::string version;  // "HTTP/1.0" or "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// \brief Case-insensitive header lookup; nullptr when absent.
  const std::string* FindHeader(std::string_view name) const;
};

/// \brief Incremental push parser: feed bytes as they arrive, in any
/// slicing (byte-at-a-time delivery parses identically to one big read).
class HttpParser {
 public:
  enum class State {
    kRequestLine,
    kHeaders,
    kBody,
    kComplete,
    kError,
  };

  explicit HttpParser(HttpLimits limits = {}) : limits_(limits) {}

  /// \brief Consumes bytes; returns how many were consumed (always all of
  /// them until the request completes or errors — bytes after a complete
  /// request stay with the caller for pipelining).
  size_t Feed(const char* data, size_t len);

  State state() const { return state_; }
  bool complete() const { return state_ == State::kComplete; }
  bool error() const { return state_ == State::kError; }

  /// \brief On kError: the HTTP status code to answer with (400, 413, 431,
  /// or 505) and a short reason for the body.
  int error_code() const { return error_code_; }
  const std::string& error_reason() const { return error_reason_; }

  /// \brief The parsed request; meaningful once complete().
  const HttpRequest& request() const { return request_; }
  HttpRequest& request() { return request_; }

  /// \brief Resets to parse the next request on the same connection.
  void Reset();

 private:
  void Fail(int code, std::string reason);
  bool ParseRequestLine(std::string_view line);
  bool ParseHeaderLine(std::string_view line);
  /// \brief Validates the header set and decides whether a body follows.
  void FinishHeaders();

  HttpLimits limits_;
  State state_ = State::kRequestLine;
  std::string line_buf_;      // current (partial) request/header line
  size_t header_bytes_ = 0;   // total header-line bytes so far
  size_t body_expected_ = 0;  // Content-Length once headers complete
  int error_code_ = 0;
  std::string error_reason_;
  HttpRequest request_;
};

/// \brief Standard reason phrase for the codes this server emits.
const char* HttpReasonPhrase(int code);

/// \brief Serializes a complete response with Content-Length and the given
/// connection disposition.
std::string BuildHttpResponse(int code, std::string_view content_type,
                              std::string_view body, bool keep_alive);

}  // namespace tempspec

#endif  // TEMPSPEC_NET_HTTP_H_
