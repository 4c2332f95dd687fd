#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace graphtempo::server {

namespace {

using Clock = std::chrono::steady_clock;

int RemainingMillis(Clock::time_point deadline) {
  auto remaining =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
  return remaining.count() <= 0 ? 0 : static_cast<int>(remaining.count());
}

/// Waits until `fd` is readable or the deadline passes.
bool WaitReadable(int fd, Clock::time_point deadline) {
  while (true) {
    int timeout = RemainingMillis(deadline);
    if (timeout == 0) return false;
    struct pollfd entry = {fd, POLLIN, 0};
    int ready = ::poll(&entry, 1, timeout);
    if (ready > 0) return true;
    if (ready == 0) return false;
    if (errno != EINTR) return false;
  }
}

/// Sends every byte of `parts[0..count)` with as few `sendmsg` calls as the
/// socket allows. A partial write may end anywhere — inside any buffer or on
/// a boundary — and the next call resumes at that byte. A non-blocking socket
/// that is full waits for room, so it behaves like a blocking one.
/// EPIPE-safe: a vanished peer returns false instead of raising SIGPIPE.
bool SendAll(int fd, struct iovec* parts, std::size_t count) {
  while (count > 0) {
    if (parts->iov_len == 0) {
      ++parts;
      --count;
      continue;
    }
    struct msghdr message = {};
    message.msg_iov = parts;
    message.msg_iovlen = count;
    const ssize_t wrote = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        struct pollfd entry = {fd, POLLOUT, 0};
        if (::poll(&entry, 1, -1) < 0 && errno != EINTR) return false;
        continue;
      }
      return false;
    }
    std::size_t advance = static_cast<std::size_t>(wrote);
    while (advance > 0 && advance >= parts->iov_len) {
      advance -= parts->iov_len;
      ++parts;
      --count;
    }
    if (advance > 0) {
      parts->iov_base = static_cast<char*>(parts->iov_base) + advance;
      parts->iov_len -= advance;
    }
  }
  return true;
}

std::string Lowercase(std::string text) {
  for (char& c : text) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return text;
}

}  // namespace

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Response";
  }
}

std::optional<HttpRequest> ReadHttpRequest(int fd, std::size_t max_bytes,
                                           int timeout_ms, std::string* error) {
  Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string buffer;
  std::size_t header_end = std::string::npos;

  // Accumulate until the blank line ending the header block.
  while (header_end == std::string::npos) {
    if (buffer.size() >= max_bytes) {
      *error = "request headers exceed " + std::to_string(max_bytes) + " bytes";
      return std::nullopt;
    }
    if (!WaitReadable(fd, deadline)) {
      *error = "timed out reading request";
      return std::nullopt;
    }
    char chunk[4096];
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got == 0) {
      if (buffer.empty()) {
        // Clean EOF before any bytes: a keep-alive client hung up between
        // requests. Signalled by an *empty* error string.
        error->clear();
      } else {
        *error = "connection closed mid-request";
      }
      return std::nullopt;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      *error = std::string("recv: ") + std::strerror(errno);
      return std::nullopt;
    }
    buffer.append(chunk, static_cast<std::size_t>(got));
    header_end = buffer.find("\r\n\r\n");
  }

  HttpRequest request;
  std::size_t line_start = 0;
  std::size_t line_end = buffer.find("\r\n");
  {
    std::string request_line = buffer.substr(0, line_end);
    std::size_t first_space = request_line.find(' ');
    std::size_t second_space =
        first_space == std::string::npos ? std::string::npos
                                         : request_line.find(' ', first_space + 1);
    if (second_space == std::string::npos) {
      *error = "malformed request line";
      return std::nullopt;
    }
    request.method = request_line.substr(0, first_space);
    std::string target =
        request_line.substr(first_space + 1, second_space - first_space - 1);
    std::size_t question = target.find('?');
    if (question == std::string::npos) {
      request.path = target;
    } else {
      request.path = target.substr(0, question);
      request.query = target.substr(question + 1);
    }
  }

  line_start = line_end + 2;
  while (line_start < header_end) {
    line_end = buffer.find("\r\n", line_start);
    std::string line = buffer.substr(line_start, line_end - line_start);
    line_start = line_end + 2;
    std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = Lowercase(line.substr(0, colon));
    std::size_t value_start = colon + 1;
    while (value_start < line.size() && line[value_start] == ' ') ++value_start;
    request.headers[key] = line.substr(value_start);
  }

  std::size_t content_length = 0;
  if (auto it = request.headers.find("content-length"); it != request.headers.end()) {
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') {
      *error = "malformed Content-Length";
      return std::nullopt;
    }
    content_length = static_cast<std::size_t>(parsed);
  }
  if (header_end + 4 + content_length > max_bytes) {
    *error = "request body exceeds " + std::to_string(max_bytes) + " bytes";
    return std::nullopt;
  }

  request.body = buffer.substr(header_end + 4);
  while (request.body.size() < content_length) {
    if (!WaitReadable(fd, deadline)) {
      *error = "timed out reading request body";
      return std::nullopt;
    }
    char chunk[4096];
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got == 0) {
      *error = "connection closed mid-body";
      return std::nullopt;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      *error = std::string("recv: ") + std::strerror(errno);
      return std::nullopt;
    }
    request.body.append(chunk, static_cast<std::size_t>(got));
  }
  request.body.resize(content_length);
  return request;
}

bool WriteRaw(int fd, std::string_view data) {
  struct iovec part = {const_cast<char*>(data.data()), data.size()};
  return SendAll(fd, &part, 1);
}

bool WriteHttpResponse(int fd, const HttpResponse& response, bool keep_alive) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     StatusReason(response.status) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.headers) {
    head += name + ": " + value + "\r\n";
  }
  head += keep_alive ? "Connection: keep-alive\r\n\r\n" : "Connection: close\r\n\r\n";
  // One sendmsg for head and body: two separate writes trigger Nagle +
  // delayed-ACK stalls (~40ms) on keep-alive sockets where no close() flushes
  // the tail, and gathering from two buffers spares copying a multi-megabyte
  // body behind the head.
  struct iovec parts[2] = {
      {head.data(), head.size()},
      {const_cast<char*>(response.body.data()), response.body.size()}};
  return SendAll(fd, parts, 2);
}

std::string HttpResponse::Header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return "";
}

int CreateListenSocket(int port, std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  struct sockaddr_in address;
  std::memset(&address, 0, sizeof(address));
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&address), sizeof(address)) < 0) {
    *error = "bind to port " + std::to_string(port) + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 128) < 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int ListenSocketPort(int fd) {
  struct sockaddr_in address;
  socklen_t length = sizeof(address);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&address), &length) < 0) {
    return -1;
  }
  return static_cast<int>(ntohs(address.sin_port));
}

int ConnectTcp(const std::string& host, int port, std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  struct sockaddr_in address;
  std::memset(&address, 0, sizeof(address));
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    *error = "unsupported host '" + host + "' (use a dotted IPv4 address)";
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&address), sizeof(address)) < 0) {
    *error = "connect to " + host + ":" + std::to_string(port) + ": " +
             std::strerror(errno);
    ::close(fd);
    return -1;
  }
  int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  return fd;
}

std::optional<HttpResponse> HttpFetch(
    const std::string& host, int port, const std::string& method,
    const std::string& path, const std::string& body, std::string* error,
    int timeout_ms,
    const std::vector<std::pair<std::string, std::string>>& request_headers) {
  int fd = ConnectTcp(host, port, error);
  if (fd < 0) return std::nullopt;

  std::string request = method + " " + path + " HTTP/1.1\r\n";
  request += "Host: " + host + "\r\n";
  for (const auto& [name, value] : request_headers) {
    request += name + ": " + value + "\r\n";
  }
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "Connection: close\r\n\r\n";
  request += body;
  if (!WriteRaw(fd, request)) {
    *error = "failed to send request";
    ::close(fd);
    return std::nullopt;
  }

  Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string buffer;
  while (true) {
    if (!WaitReadable(fd, deadline)) {
      *error = "timed out waiting for response";
      ::close(fd);
      return std::nullopt;
    }
    char chunk[8192];
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      *error = std::string("recv: ") + std::strerror(errno);
      ::close(fd);
      return std::nullopt;
    }
    if (got == 0) break;  // Connection: close — EOF ends the response
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);

  std::size_t header_end = buffer.find("\r\n\r\n");
  std::size_t status_end = buffer.find("\r\n");
  if (header_end == std::string::npos || buffer.size() < 12) {
    *error = "malformed response";
    return std::nullopt;
  }
  HttpResponse response;
  response.status = std::atoi(buffer.substr(9, status_end - 9).c_str());
  // Parse every response header (names lowercased); Content-Type is also
  // mirrored into the dedicated field.
  std::size_t line_start = status_end + 2;
  while (line_start < header_end) {
    std::size_t line_end = buffer.find("\r\n", line_start);
    std::string line = buffer.substr(line_start, line_end - line_start);
    line_start = line_end + 2;
    std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = Lowercase(line.substr(0, colon));
    std::size_t value_start = colon + 1;
    while (value_start < line.size() && line[value_start] == ' ') ++value_start;
    std::string value = line.substr(value_start);
    if (key == "content-type") response.content_type = value;
    response.headers.emplace_back(std::move(key), std::move(value));
  }
  response.body = buffer.substr(header_end + 4);
  return response;
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<HttpResponse> HttpClient::Fetch(
    const std::string& method, const std::string& path, const std::string& body,
    std::string* error, int timeout_ms,
    const std::vector<std::pair<std::string, std::string>>& request_headers) {
  const bool reused = fd_ >= 0;
  if (!reused) {
    fd_ = ConnectTcp(host_, port_, error);
    if (fd_ < 0) return std::nullopt;
    ++connects_;
  }

  std::string request = method + " " + path + " HTTP/1.1\r\n";
  request += "Host: " + host_ + "\r\n";
  for (const auto& [name, value] : request_headers) {
    request += name + ": " + value + "\r\n";
  }
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "Connection: keep-alive\r\n\r\n";
  request += body;
  if (!WriteRaw(fd_, request)) {
    Close();
    if (reused) {
      // The server idle-closed the persistent socket between requests;
      // reconnect once and retry (the retried request was never received).
      return Fetch(method, path, body, error, timeout_ms, request_headers);
    }
    *error = "failed to send request";
    return std::nullopt;
  }

  // Keep-alive responses are framed by Content-Length, never by EOF.
  Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string buffer;
  std::size_t header_end = std::string::npos;
  while (header_end == std::string::npos) {
    if (!WaitReadable(fd_, deadline)) {
      *error = "timed out waiting for response";
      Close();
      return std::nullopt;
    }
    char chunk[8192];
    ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      *error = std::string("recv: ") + std::strerror(errno);
      Close();
      return std::nullopt;
    }
    if (got == 0) {
      Close();
      if (reused && buffer.empty()) {
        // Raced the server's idle close: the connection died before any
        // response byte, so the request was dropped unprocessed. Retry on a
        // fresh socket.
        return Fetch(method, path, body, error, timeout_ms, request_headers);
      }
      *error = "connection closed mid-response";
      return std::nullopt;
    }
    buffer.append(chunk, static_cast<std::size_t>(got));
    header_end = buffer.find("\r\n\r\n");
  }

  std::size_t status_end = buffer.find("\r\n");
  if (buffer.size() < 12) {
    *error = "malformed response";
    Close();
    return std::nullopt;
  }
  HttpResponse response;
  response.status = std::atoi(buffer.substr(9, status_end - 9).c_str());
  std::size_t content_length = 0;
  bool server_close = false;
  std::size_t line_start = status_end + 2;
  while (line_start < header_end) {
    std::size_t line_end = buffer.find("\r\n", line_start);
    std::string line = buffer.substr(line_start, line_end - line_start);
    line_start = line_end + 2;
    std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = Lowercase(line.substr(0, colon));
    std::size_t value_start = colon + 1;
    while (value_start < line.size() && line[value_start] == ' ') ++value_start;
    std::string value = line.substr(value_start);
    if (key == "content-type") response.content_type = value;
    if (key == "content-length") {
      content_length = static_cast<std::size_t>(std::strtoull(value.c_str(), nullptr, 10));
    }
    if (key == "connection" && Lowercase(value) == "close") server_close = true;
    response.headers.emplace_back(std::move(key), std::move(value));
  }

  std::string body_bytes = buffer.substr(header_end + 4);
  while (body_bytes.size() < content_length) {
    if (!WaitReadable(fd_, deadline)) {
      *error = "timed out reading response body";
      Close();
      return std::nullopt;
    }
    char chunk[8192];
    ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got == 0) {
      *error = "connection closed mid-response";
      Close();
      return std::nullopt;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      *error = std::string("recv: ") + std::strerror(errno);
      Close();
      return std::nullopt;
    }
    body_bytes.append(chunk, static_cast<std::size_t>(got));
  }
  body_bytes.resize(content_length);
  response.body = std::move(body_bytes);
  if (server_close) Close();
  return response;
}

}  // namespace graphtempo::server
