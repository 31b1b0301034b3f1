#include "server/http.hh"

#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cctype>
#include <cstring>

#include "common/strings.hh"

namespace qompress {

namespace {

/** Headers must terminate within this many bytes (431 otherwise): an
 *  attacker must not be able to grow a connection buffer without
 *  bound by never sending the blank line. */
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;

std::string
lower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** %XX-decode (also '+' -> space); invalid escapes pass through. */
std::string
percentDecode(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '+') {
            out += ' ';
        } else if (s[i] == '%' && i + 2 < s.size() &&
                   std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
                   std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
            const std::string hex = s.substr(i + 1, 2);
            out += static_cast<char>(std::stoi(hex, nullptr, 16));
            i += 2;
        } else {
            out += s[i];
        }
    }
    return out;
}

std::map<std::string, std::string>
parseQuery(const std::string &qs)
{
    std::map<std::string, std::string> out;
    for (const std::string &pair : split(qs, '&')) {
        if (pair.empty())
            continue;
        const auto eq = pair.find('=');
        if (eq == std::string::npos)
            out[lower(percentDecode(pair))] = "";
        else
            out[lower(percentDecode(pair.substr(0, eq)))] =
                percentDecode(pair.substr(eq + 1));
    }
    return out;
}

/** End of the header block: offset just past the blank line, or npos.
 *  Accepts CRLF and bare-LF line endings. */
std::size_t
findHeaderEnd(const std::string &buf, std::size_t &lineSep)
{
    const auto crlf = buf.find("\r\n\r\n");
    const auto lf = buf.find("\n\n");
    if (crlf != std::string::npos &&
        (lf == std::string::npos || crlf <= lf)) {
        lineSep = 2; // "\r\n"
        return crlf + 4;
    }
    if (lf != std::string::npos) {
        lineSep = 1; // "\n"
        return lf + 2;
    }
    return std::string::npos;
}

} // namespace

const std::string &
HttpRequest::queryParam(const std::string &key,
                        const std::string &fallback) const
{
    const auto it = query.find(key);
    return it == query.end() ? fallback : it->second;
}

bool
HttpRequest::keepAlive() const
{
    const auto it = headers.find("connection");
    if (it == headers.end())
        return true; // HTTP/1.1 default
    return lower(it->second) != "close";
}

HttpParseStatus
tryParseHttpRequest(std::string &buffer, HttpRequest &out,
                    int &errorStatus, std::string &error,
                    std::size_t maxBody)
{
    std::size_t sep = 2;
    const std::size_t headerEnd = findHeaderEnd(buffer, sep);
    if (headerEnd == std::string::npos) {
        if (buffer.size() > kMaxHeaderBytes) {
            errorStatus = 431;
            error = "header block exceeds " +
                    std::to_string(kMaxHeaderBytes) + " bytes";
            return HttpParseStatus::Error;
        }
        return HttpParseStatus::Incomplete;
    }

    out = HttpRequest{};

    // Request line.
    const char *nl = sep == 2 ? "\r\n" : "\n";
    std::size_t lineEnd = buffer.find(nl);
    const std::string reqLine = buffer.substr(0, lineEnd);
    const auto sp1 = reqLine.find(' ');
    const auto sp2 =
        sp1 == std::string::npos ? sp1 : reqLine.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        sp1 == 0 || sp2 == sp1 + 1) {
        errorStatus = 400;
        error = "malformed request line";
        return HttpParseStatus::Error;
    }
    out.method = reqLine.substr(0, sp1);
    std::string target = reqLine.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string version = reqLine.substr(sp2 + 1);
    if (version != "HTTP/1.1" && version != "HTTP/1.0") {
        errorStatus = 505;
        error = "unsupported protocol version '" + version + "'";
        return HttpParseStatus::Error;
    }
    const auto qmark = target.find('?');
    if (qmark == std::string::npos) {
        out.path = percentDecode(target);
    } else {
        out.path = percentDecode(target.substr(0, qmark));
        out.query = parseQuery(target.substr(qmark + 1));
    }

    // Header fields.
    std::size_t pos = lineEnd + sep;
    while (pos + sep <= headerEnd) {
        lineEnd = buffer.find(nl, pos);
        if (lineEnd == pos)
            break; // blank line
        const std::string line = buffer.substr(pos, lineEnd - pos);
        pos = lineEnd + sep;
        if (std::isspace(static_cast<unsigned char>(line[0]))) {
            errorStatus = 400;
            error = "obsolete header folding is not accepted";
            return HttpParseStatus::Error;
        }
        const auto colon = line.find(':');
        if (colon == std::string::npos || colon == 0) {
            errorStatus = 400;
            error = "malformed header line";
            return HttpParseStatus::Error;
        }
        std::string value = line.substr(colon + 1);
        std::size_t b = 0, e = value.size();
        while (b < e && std::isspace(static_cast<unsigned char>(value[b])))
            ++b;
        while (e > b &&
               std::isspace(static_cast<unsigned char>(value[e - 1])))
            --e;
        out.headers[lower(line.substr(0, colon))] = value.substr(b, e - b);
    }

    if (out.headers.count("transfer-encoding")) {
        errorStatus = 501;
        error = "transfer-encoding is not supported (use Content-Length)";
        return HttpParseStatus::Error;
    }

    std::size_t bodyLen = 0;
    if (const auto it = out.headers.find("content-length");
        it != out.headers.end()) {
        const auto v = parseDigits(it->second, 9);
        if (!v) {
            errorStatus = 400;
            error = "malformed Content-Length";
            return HttpParseStatus::Error;
        }
        bodyLen = static_cast<std::size_t>(*v);
        if (bodyLen > maxBody) {
            errorStatus = 413;
            error = "body exceeds " + std::to_string(maxBody) + " bytes";
            return HttpParseStatus::Error;
        }
    }
    if (buffer.size() < headerEnd + bodyLen)
        return HttpParseStatus::Incomplete;

    out.body = buffer.substr(headerEnd, bodyLen);
    buffer.erase(0, headerEnd + bodyLen);
    return HttpParseStatus::Complete;
}

const char *
httpStatusReason(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 408: return "Request Timeout";
      case 413: return "Payload Too Large";
      case 431: return "Request Header Fields Too Large";
      case 500: return "Internal Server Error";
      case 501: return "Not Implemented";
      case 503: return "Service Unavailable";
      case 504: return "Gateway Timeout";
      case 505: return "HTTP Version Not Supported";
      default:  return "Unknown";
    }
}

std::string
httpResponse(
    int status, const std::string &body, const std::string &contentType,
    bool keepAlive,
    const std::vector<std::pair<std::string, std::string>> &extraHeaders)
{
    std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                      httpStatusReason(status) + "\r\n";
    out += "Content-Type: " + contentType + "\r\n";
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    out += std::string("Connection: ") +
           (keepAlive ? "keep-alive" : "close") + "\r\n";
    for (const auto &[k, v] : extraHeaders)
        out += k + ": " + v + "\r\n";
    out += "\r\n";
    out += body;
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += format("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

// ------------------------------------------------------------------
// Client helpers
// ------------------------------------------------------------------

int
httpConnect(const std::string &host, int port)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    if (getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &res) != 0 ||
        res == nullptr) {
        return -1;
    }
    int fd = -1;
    for (addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    freeaddrinfo(res);
    return fd;
}

bool
httpSendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
httpReadResponse(int fd, std::string &leftover, int &status,
                 std::string &body, int timeoutMs)
{
    std::map<std::string, std::string> headers;
    return httpReadResponse(fd, leftover, status, headers, body,
                            timeoutMs);
}

bool
httpReadResponse(int fd, std::string &leftover, int &status,
                 std::map<std::string, std::string> &headers,
                 std::string &body, int timeoutMs)
{
    status = 0;
    headers.clear();
    body.clear();
    char chunk[8192];
    while (true) {
        // A complete response already buffered?
        std::size_t sep = 2;
        const std::size_t headerEnd = findHeaderEnd(leftover, sep);
        if (headerEnd != std::string::npos) {
            const std::string head = leftover.substr(0, headerEnd);
            if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0)
                return false;
            status = std::atoi(head.c_str() + 9);
            std::size_t bodyLen = 0;
            const std::string lhead = lower(head);
            if (const auto cl = lhead.find("content-length:");
                cl != std::string::npos) {
                bodyLen = static_cast<std::size_t>(
                    std::atol(head.c_str() + cl + 15));
            }
            // Header lines after the status line, lower-cased names,
            // surrounding whitespace trimmed from values.
            headers.clear();
            std::size_t ls = head.find('\n');
            while (ls != std::string::npos && ls + 1 < head.size()) {
                const std::size_t le = head.find('\n', ls + 1);
                std::string line = head.substr(
                    ls + 1,
                    (le == std::string::npos ? head.size() : le) - ls - 1);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                if (const auto colon = line.find(':');
                    colon != std::string::npos) {
                    std::size_t v = colon + 1;
                    while (v < line.size() &&
                           (line[v] == ' ' || line[v] == '\t'))
                        ++v;
                    std::size_t e = line.size();
                    while (e > v &&
                           (line[e - 1] == ' ' || line[e - 1] == '\t'))
                        --e;
                    headers[lower(line.substr(0, colon))] =
                        line.substr(v, e - v);
                }
                ls = le;
            }
            if (leftover.size() >= headerEnd + bodyLen) {
                body = leftover.substr(headerEnd, bodyLen);
                leftover.erase(0, headerEnd + bodyLen);
                return true;
            }
        }
        pollfd pfd{fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, timeoutMs);
        if (pr <= 0)
            return false;
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            return false;
        leftover.append(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace qompress
