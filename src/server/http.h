#ifndef GRAPHTEMPO_SERVER_HTTP_H_
#define GRAPHTEMPO_SERVER_HTTP_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file
/// Minimal HTTP/1.1 plumbing over blocking POSIX sockets — just enough for
/// the query service's wire protocol (docs/SERVER.md): request parsing with a
/// size cap and deadline, response writing, connection persistence when the
/// client asks for `Connection: keep-alive` (`Connection: close` otherwise;
/// SSE streams are their own thing), a one-shot blocking fetch, and a
/// persistent `HttpClient` the load generator uses to measure the wire tax
/// of reconnecting per request. No TLS, no chunked transfer — a reverse
/// proxy fronts a real deployment.

namespace graphtempo::server {

struct HttpRequest {
  std::string method;  ///< "GET" / "POST"
  std::string path;    ///< path without the query string
  std::string query;   ///< raw query string ("" when absent)
  std::map<std::string, std::string> headers;  ///< keys lowercased
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra response headers (name, value) emitted verbatim by
  /// WriteHttpResponse; on the client side, HttpFetch parses every response
  /// header here with lowercased names (Content-Type also mirrored above).
  /// Last so the common `{status, type, body}` aggregate init keeps working.
  std::vector<std::pair<std::string, std::string>> headers = {};

  /// First value of `name` (lowercase) among the parsed headers, or "".
  std::string Header(std::string_view name) const;
};

/// Canonical reason phrase for the status codes the server emits.
const char* StatusReason(int status);

/// Reads one request from `fd`. Enforces `max_bytes` over header + body and
/// an overall `timeout_ms` deadline. On failure returns nullopt with a
/// diagnostic (caller answers 400 or drops the connection) — except a clean
/// EOF before any bytes arrived, which returns nullopt with `*error` cleared
/// to "": that is a keep-alive client hanging up between requests, not an
/// error.
std::optional<HttpRequest> ReadHttpRequest(int fd, std::size_t max_bytes,
                                           int timeout_ms, std::string* error);

/// Writes a complete response with Content-Length. `keep_alive` picks the
/// Connection header: `keep-alive` keeps the socket open for the next
/// request, `close` (the default, and the historical behaviour) ends it.
/// Head and body leave in one gathered `sendmsg` (resumed after partial
/// writes); the body is never copied.
bool WriteHttpResponse(int fd, const HttpResponse& response,
                       bool keep_alive = false);

/// Writes raw bytes (SSE frames); EPIPE-safe (returns false, no signal).
bool WriteRaw(int fd, std::string_view data);

/// Binds and listens on 127.0.0.1:`port` (0 = ephemeral). Returns the fd, or
/// -1 with a diagnostic.
int CreateListenSocket(int port, std::string* error);

/// The locally-bound port of a listening socket (resolves ephemeral binds).
int ListenSocketPort(int fd);

/// Blocking TCP connect to host:port. Returns the fd, or -1 with diagnostic.
int ConnectTcp(const std::string& host, int port, std::string* error);

/// One blocking request/response round trip (the load generator's client).
/// `request_headers` are sent verbatim after the Host line (e.g.
/// `{"X-GT-Request-Id", "cli-7"}` or an Accept override).
std::optional<HttpResponse> HttpFetch(
    const std::string& host, int port, const std::string& method,
    const std::string& path, const std::string& body, std::string* error,
    int timeout_ms = 10000,
    const std::vector<std::pair<std::string, std::string>>& request_headers = {});

/// A blocking client holding one persistent keep-alive connection. Fetch
/// sends `Connection: keep-alive` and frames responses by Content-Length
/// (never read-to-EOF), so the socket survives across round trips;
/// reconnects transparently when the server closed it (counted in
/// `connects()` — the load generator's `--keep-alive` mode reports the
/// reconnect tax as connects/requests). Not thread-safe: one client per
/// load-generator worker.
class HttpClient {
 public:
  HttpClient(std::string host, int port) : host_(std::move(host)), port_(port) {}
  ~HttpClient() { Close(); }

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// One round trip over the persistent connection. On a send failure over a
  /// *reused* socket (server idle-closed it) reconnects once and retries; any
  /// other failure returns nullopt with a diagnostic and drops the socket so
  /// the next call starts clean.
  std::optional<HttpResponse> Fetch(
      const std::string& method, const std::string& path, const std::string& body,
      std::string* error, int timeout_ms = 10000,
      const std::vector<std::pair<std::string, std::string>>& request_headers = {});

  /// Drops the connection (next Fetch reconnects).
  void Close();

  /// TCP connects performed so far (1 = every request shared one socket).
  std::uint64_t connects() const { return connects_; }

 private:
  std::string host_;
  int port_;
  int fd_ = -1;
  std::uint64_t connects_ = 0;
};

}  // namespace graphtempo::server

#endif  // GRAPHTEMPO_SERVER_HTTP_H_
