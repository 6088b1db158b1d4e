#include "obs/http_exporter.h"

#ifndef XSTREAM_DISABLE_OBS

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/timer.h"

namespace xstream::obs {

namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 410:
      return "Gone";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

// Case-insensitive header lookup in the raw header block; returns the
// trimmed value or "" when absent.
std::string HeaderValue(const std::string& headers, const std::string& name) {
  std::string lower;
  lower.reserve(headers.size());
  for (char c : headers) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  std::string needle = "\r\n" + name + ":";
  for (char& c : needle) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  size_t pos = lower.find(needle);
  if (pos == std::string::npos) {
    return "";
  }
  size_t begin = pos + needle.size();
  size_t end = headers.find("\r\n", begin);
  std::string value = headers.substr(begin, end == std::string::npos ? end : end - begin);
  size_t first = value.find_first_not_of(" \t");
  size_t last = value.find_last_not_of(" \t");
  if (first == std::string::npos) {
    return "";
  }
  return value.substr(first, last - first + 1);
}

// /healthz: liveness plus each device's direct_supported gauge — an
// operator's one-request answer to "is it up, and did direct I/O actually
// engage".
HttpResponse HealthzResponse(double uptime_seconds) {
  JsonWriter w;
  w.BeginObject();
  w.Field("status", "ok");
  w.Field("uptime_seconds", uptime_seconds);
  w.Field("pid", static_cast<uint64_t>(::getpid()));
  w.Key("devices").BeginObject();
  MetricsRegistry::Global().ForEachGauge([&](const std::string& name, double value) {
    constexpr std::string_view kPrefix = "device.";
    constexpr std::string_view kMetric = ".direct_supported";
    if (name.size() <= kPrefix.size() + kMetric.size() || !name.starts_with(kPrefix) ||
        !name.ends_with(kMetric)) {
      return;
    }
    w.Key(name.substr(kPrefix.size(), name.size() - kPrefix.size() - kMetric.size()))
        .BeginObject();
    w.Field("direct_supported", value);
    w.EndObject();
  });
  w.EndObject();
  w.EndObject();
  return HttpResponse{200, "application/json", w.TakeString(), {}};
}

// Picks `key=N` out of a raw query string; `fallback` when absent/garbled.
int QueryInt(const std::string& query, const std::string& key, int fallback) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    std::string pair = query.substr(pos, amp == std::string::npos ? std::string::npos
                                                                  : amp - pos);
    size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.compare(0, eq, key) == 0) {
      return std::atoi(pair.c_str() + eq + 1);
    }
    if (amp == std::string::npos) {
      break;
    }
    pos = amp + 1;
  }
  return fallback;
}

// /profile?seconds=N: on-demand folded-stack capture. If the profiler is
// already running (--profile owns it), snapshot the samples so far instead
// of fighting over the process-wide timer. Otherwise run a capture window
// right here — blocking this connection (and further scrapes, the server is
// single-threaded) for N seconds is fine for an operator request.
HttpResponse ProfileResponse(const std::string& query) {
  CpuProfiler& prof = CpuProfiler::Global();
  if (prof.running()) {
    return HttpResponse{200, "text/plain; charset=utf-8", prof.FoldedStacks(), {}};
  }
  int seconds = std::clamp(QueryInt(query, "seconds", 1), 1, 30);
  if (!prof.Start()) {
    return HttpResponse{503, "application/json",
                        "{\"error\":\"profiler unavailable\"}\n", {}};
  }
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  prof.Stop();
  return HttpResponse{200, "text/plain; charset=utf-8", prof.FoldedStacks(), {}};
}

}  // namespace

HttpExporter::HttpExporter() {
  auto up = std::make_shared<WallTimer>();
  Handle("/metrics", [](const std::string&) {
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        MetricsRegistry::Global().ToPrometheus(), {}};
  });
  Handle("/healthz", [up](const std::string&) { return HealthzResponse(up->Seconds()); });
  Handle("/trace", [](const std::string&) {
    return HttpResponse{200, "application/json", Tracer::Global().ToChromeJson(), {}};
  });
  Handle("/attribution", [](const std::string&) {
    return HttpResponse{200, "application/json", AttributionRegistry::Global().ToJson(), {}};
  });
  Handle("/profile", [](const std::string& query) { return ProfileResponse(query); });
}

HttpExporter::~HttpExporter() { Stop(); }

void HttpExporter::Handle(const std::string& path, HttpHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[path] = std::move(handler);
}

void HttpExporter::HandlePrefix(const std::string& prefix, RouteHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  prefix_routes_[prefix] = std::move(handler);
}

bool HttpExporter::Start(uint16_t port) {
  if (running()) {
    return true;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    XS_LOG(Error) << "telemetry: socket() failed: " << std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    XS_LOG(Error) << "telemetry: bind(127.0.0.1:" << port
                  << ") failed: " << std::strerror(errno);
    ::close(fd);
    return false;
  }
  if (::listen(fd, 16) != 0) {
    XS_LOG(Error) << "telemetry: listen() failed: " << std::strerror(errno);
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    XS_LOG(Error) << "telemetry: getsockname() failed: " << std::strerror(errno);
    ::close(fd);
    return false;
  }
  listen_fd_.store(fd, std::memory_order_relaxed);
  port_.store(ntohs(addr.sin_port), std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void HttpExporter::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() wakes the blocked accept() so the loop observes !running_.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (thread_.joinable()) {
    thread_.join();
  }
}

void HttpExporter::AcceptLoop() {
  for (;;) {
    int fd = listen_fd_.load(std::memory_order_relaxed);
    if (fd < 0 || !running()) {
      return;
    }
    int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listener closed by Stop(), or unrecoverable
    }
    ServeConnection(conn);
    ::close(conn);
  }
}

HttpResponse HttpExporter::Dispatch(const HttpRequest& request) {
  HttpHandler handler;
  RouteHandler route;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = handlers_.find(request.path);
    if (it != handlers_.end()) {
      handler = it->second;  // copy: run outside the lock
    } else {
      // Longest-prefix route: "/v1/jobs" serves "/v1/jobs" and everything
      // under "/v1/jobs/...". Reverse iteration over the sorted map visits
      // longer (lexicographically greater) candidates first.
      for (auto rit = prefix_routes_.rbegin(); rit != prefix_routes_.rend(); ++rit) {
        const std::string& prefix = rit->first;
        if (request.path == prefix ||
            (request.path.size() > prefix.size() &&
             request.path.compare(0, prefix.size(), prefix) == 0 &&
             request.path[prefix.size()] == '/')) {
          route = rit->second;
          break;
        }
      }
    }
  }
  if (handler) {
    // Exact-path handlers are the GET-only telemetry surface.
    if (request.method != "GET") {
      return HttpResponse{405, "text/plain; charset=utf-8", "method not allowed\n", {}};
    }
    return handler(request.query);
  }
  if (route) {
    return route(request);
  }
  return HttpResponse{404, "text/plain; charset=utf-8", "not found\n", {}};
}

void HttpExporter::ServeConnection(int fd) {
  // Read until the end of the request headers. 8 KB bounds a misbehaving
  // client; the body, when announced, is read separately below.
  std::string request;
  char buf[4096];
  while (request.find("\r\n\r\n") == std::string::npos && request.size() < 8192) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      return;
    }
    request.append(buf, static_cast<size_t>(n));
  }
  size_t header_end = request.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return;
  }
  size_t line_end = request.find("\r\n");
  std::string line = request.substr(0, line_end);  // "GET /path HTTP/1.1"
  size_t sp1 = line.find(' ');
  size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return;
  }
  HttpRequest req;
  req.method = line.substr(0, sp1);
  req.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  size_t qmark = req.path.find('?');
  if (qmark != std::string::npos) {
    req.query = req.path.substr(qmark + 1);
    req.path.resize(qmark);
  }

  HttpResponse resp;
  bool dispatched = false;
  std::string headers = request.substr(0, header_end);
  std::string length_text = HeaderValue(headers, "Content-Length");
  if (!length_text.empty()) {
    if (length_text.find_first_not_of("0123456789") != std::string::npos) {
      resp = HttpResponse{400, "application/json", "{\"error\":\"bad Content-Length\"}\n", {}};
      dispatched = true;
    } else {
      // strtoull saturates on overflow, which the ceiling check then catches.
      uint64_t announced = std::strtoull(length_text.c_str(), nullptr, 10);
      if (announced > max_body_bytes_.load(std::memory_order_relaxed)) {
        // Refuse before reading: the connection closes with the body unread,
        // which is exactly what a bounded server should do to a flood.
        resp = HttpResponse{413, "application/json",
                            "{\"error\":\"request body too large\"}\n", {}};
        dispatched = true;
      } else {
        req.body = request.substr(header_end + 4);
        while (req.body.size() < announced) {
          ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
          if (n <= 0) {
            return;  // client vanished mid-body: nothing to answer
          }
          req.body.append(buf, static_cast<size_t>(n));
        }
        req.body.resize(announced);
      }
    }
  }
  if (!dispatched) {
    resp = Dispatch(req);
  }
  MetricsRegistry::Global().counter("telemetry.http_requests").Add();

  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " + StatusText(resp.status) +
                    "\r\nContent-Type: " + resp.content_type;
  for (const auto& [name, value] : resp.headers) {
    out += "\r\n" + name + ": " + value;
  }
  out += "\r\nContent-Length: " + std::to_string(resp.body.size()) +
         "\r\nConnection: close\r\n\r\n" + resp.body;
  size_t sent = 0;
  while (sent < out.size()) {
    // MSG_NOSIGNAL: a client that hung up turns into an error return, not a
    // process-wide SIGPIPE — a dropped result stream must never kill the
    // daemon.
    ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return;
    }
    sent += static_cast<size_t>(n);
  }
}

}  // namespace xstream::obs

#endif  // XSTREAM_DISABLE_OBS
