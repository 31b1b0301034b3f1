#include "server/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "circuits/registry.hh"
#include "common/error.hh"
#include "common/strings.hh"
#include "ir/qasm.hh"

namespace qompress {

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Largest registry instance a request may ask for; keeps family
 *  requests from sizing unbounded circuit builds. */
constexpr int kMaxFamilySize = 4096;

/** One routed reply before serialization/accounting. */
struct Reply
{
    int status = 200;
    std::string body;
    std::vector<std::pair<std::string, std::string>> headers;
};

std::string
errorBody(int status, const std::string &type, const std::string &message)
{
    return format("{\"error\": {\"status\": %d, \"type\": \"%s\", "
                  "\"message\": \"%s\"}}",
                  status, type.c_str(), jsonEscape(message).c_str());
}

Reply
errorReply(int status, const std::string &type, const std::string &message)
{
    Reply r;
    r.status = status;
    r.body = errorBody(status, type, message);
    if (status == 503)
        r.headers.emplace_back("Retry-After", "1");
    return r;
}

/** Strict positive-integer query parameter. */
int
intParam(const std::string &value, const char *what)
{
    const auto v = parseDigits(value, 7);
    QFATAL_IF(!v, "malformed ", what, " '", value, "'");
    return static_cast<int>(*v);
}

std::string
resultJson(const std::string &name, const std::string &strategy,
           const CompileResult &res)
{
    const Metrics &m = res.metrics;
    return format(
        "{\"name\": \"%s\", \"strategy\": \"%s\", "
        "\"compressions\": %zu, \"gates\": %d, \"routing_gates\": %d, "
        "\"two_unit_gates\": %d, \"encoded_units\": %d, "
        "\"duration_ns\": %.1f, \"gate_eps\": %.6g, "
        "\"coherence_eps\": %.6g, \"total_eps\": %.6g}",
        jsonEscape(name).c_str(), jsonEscape(strategy).c_str(),
        res.compressions.size(), m.numGates, m.numRoutingGates,
        m.numTwoUnitGates, m.numEncodedUnits, m.durationNs, m.gateEps,
        m.coherenceEps, m.totalEps);
}

} // namespace

QompressServer::QompressServer(ServerOptions opts)
    : opts_(std::move(opts)), service_(opts_.service)
{
    QFATAL_IF(opts_.workers < 1, "server needs at least one worker");
}

QompressServer::~QompressServer()
{
    stop();
}

void
QompressServer::start()
{
    QFATAL_IF(running_.load(), "server already started");
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    QFATAL_IF(fd < 0, "socket(): ", std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
    if (::inet_pton(AF_INET, opts_.bindAddress.c_str(),
                    &addr.sin_addr) != 1) {
        ::close(fd);
        QFATAL("bad bind address '", opts_.bindAddress, "'");
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(fd, 128) != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        QFATAL("cannot listen on ", opts_.bindAddress, ":", opts_.port,
               ": ", why);
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    listenFd_.store(fd);

    stopping_.store(false);
    draining_.store(false);
    running_.store(true);
    acceptor_ = std::thread([this] { acceptLoop(); });
    workers_.reserve(static_cast<std::size_t>(opts_.workers));
    for (int w = 0; w < opts_.workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

void
QompressServer::stop()
{
    if (!running_.load())
        return;
    // Draining first: any /healthz answered while workers wind down
    // already reports the truth.
    draining_.store(true);
    stopping_.store(true);
    // Closing the listen socket unblocks the acceptor's poll/accept.
    if (const int fd = listenFd_.exchange(-1); fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    if (acceptor_.joinable())
        acceptor_.join();
    qcv_.notify_all();
    for (std::thread &w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();
    // Workers stop popping once stopping_ is set; connections still
    // queued were accepted but never served — answer them instead of
    // silently dropping the socket.
    std::deque<int> leftover;
    {
        std::lock_guard<std::mutex> lk(qmu_);
        leftover.swap(queue_);
    }
    for (const int fd : leftover) {
        shed_.fetch_add(1, std::memory_order_relaxed);
        httpSendAll(fd, httpResponse(503,
                                     errorBody(503, "shutdown",
                                               "server is shutting down"),
                                     "application/json", false,
                                     {{"Retry-After", "1"}}));
        ::close(fd);
    }
    service_.drain();
    running_.store(false);
}

void
QompressServer::acceptLoop()
{
    while (!stopping_.load()) {
        const int lfd = listenFd_.load();
        if (lfd < 0)
            break;
        pollfd pfd{lfd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 250);
        if (stopping_.load())
            break;
        if (pr <= 0)
            continue;
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0)
            continue;
        accepted_.fetch_add(1, std::memory_order_relaxed);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        bool admitted = false;
        {
            std::lock_guard<std::mutex> lk(qmu_);
            if (queue_.size() < opts_.maxQueue) {
                queue_.push_back(fd);
                admitted = true;
            }
        }
        if (admitted) {
            qcv_.notify_one();
        } else {
            // Shed at admission: a fast structured rejection beats an
            // unbounded queue under overload.
            shed_.fetch_add(1, std::memory_order_relaxed);
            httpSendAll(fd,
                        httpResponse(503,
                                     errorBody(503, "overload",
                                               "admission queue is full"),
                                     "application/json", false,
                                     {{"Retry-After", "1"}}));
            ::close(fd);
        }
    }
}

int
QompressServer::popConnection()
{
    std::unique_lock<std::mutex> lk(qmu_);
    qcv_.wait(lk, [this] {
        return stopping_.load() || !queue_.empty();
    });
    if (stopping_.load())
        return -1; // leftovers are answered by stop()
    const int fd = queue_.front();
    queue_.pop_front();
    return fd;
}

void
QompressServer::workerLoop()
{
    while (true) {
        const int fd = popConnection();
        if (fd < 0)
            return;
        handleConnection(fd);
    }
}

void
QompressServer::handleConnection(int fd)
{
    std::string buf;
    char chunk[16384];
    bool keep = true;
    while (keep && !stopping_.load()) {
        HttpRequest req;
        int errStatus = 400;
        std::string parseErr;
        HttpParseStatus st = tryParseHttpRequest(
            buf, req, errStatus, parseErr, opts_.maxBodyBytes);
        int waitedMs = 0;
        while (st == HttpParseStatus::Incomplete) {
            if (stopping_.load())
                goto done;
            pollfd pfd{fd, POLLIN, 0};
            const int slice = 250;
            const int pr = ::poll(&pfd, 1, slice);
            if (pr < 0)
                goto done;
            if (pr == 0) {
                waitedMs += slice;
                if (waitedMs < opts_.idleTimeoutMs)
                    continue;
                // Slow client holding a partial request: 408. A quiet
                // idle keep-alive connection just closes.
                if (!buf.empty()) {
                    httpSendAll(fd, httpResponse(
                                        408,
                                        errorBody(408, "timeout",
                                                  "request not completed "
                                                  "in time"),
                                        "application/json", false));
                }
                goto done;
            }
            const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                goto done;
            buf.append(chunk, static_cast<std::size_t>(n));
            waitedMs = 0;
            st = tryParseHttpRequest(buf, req, errStatus, parseErr,
                                     opts_.maxBodyBytes);
        }
        if (st == HttpParseStatus::Error) {
            requests_.fetch_add(1, std::memory_order_relaxed);
            clientErrors_.fetch_add(1, std::memory_order_relaxed);
            // Framing is unreliable after a malformed request: close.
            httpSendAll(fd, httpResponse(errStatus,
                                         errorBody(errStatus, "http",
                                                   parseErr),
                                         "application/json", false));
            goto done;
        }

        requests_.fetch_add(1, std::memory_order_relaxed);
        const auto t0 = Clock::now();
        const std::string resp = handleRequest(req);
        latency_.record(elapsedMs(t0) * 1000.0);
        keep = req.keepAlive();
        if (!httpSendAll(fd, resp))
            break;
    }
done:
    ::close(fd);
}

std::string
QompressServer::handleRequest(const HttpRequest &req)
{
    Reply reply;
    try {
        if (req.path == "/healthz") {
            if (req.method != "GET" && req.method != "HEAD") {
                reply = errorReply(405, "method", "use GET /healthz");
            } else if (draining_.load()) {
                // 503 so load balancers eject the instance; requests
                // already here still complete (drain, then stop()).
                reply.status = 503;
                reply.body = "{\"status\": \"draining\"}";
                reply.headers.emplace_back("Retry-After", "1");
            } else {
                // Degraded (disk tier breaker open) stays 200: memory
                // tiers serve every request, only warm restarts and
                // cross-restart reuse are impaired. The body tells
                // operators which of the two healthy states this is.
                const DiskTierState tier = service_.stats().tierState;
                reply.body = tier == DiskTierState::Degraded
                                 ? "{\"status\": \"degraded\"}"
                                 : "{\"status\": \"ok\"}";
            }
        } else if (req.path == "/metrics") {
            if (req.method != "GET")
                reply = errorReply(405, "method", "use GET /metrics");
            else
                reply.body = metricsJson();
        } else if (req.path == "/compile") {
            if (req.method != "POST" && req.method != "GET")
                reply = errorReply(405, "method",
                                   "use POST /compile (inline QASM) or "
                                   "GET /compile (registry family)");
            else
                reply.body = handleCompile(req);
        } else if (req.path == "/devices") {
            if (req.method != "GET")
                reply = errorReply(405, "method", "use GET /devices");
            else
                reply.body = devicesJson();
        } else if (req.path.rfind("/devices/", 0) == 0 &&
                   req.path.size() > 21 &&
                   req.path.compare(req.path.size() - 12, 12,
                                    "/calibration") == 0 &&
                   opts_.debugEndpoints) {
            // /devices/<name>/calibration, gated exactly like /debug:
            // with debugEndpoints off the path falls through to 404 so
            // an untrusted deployment does not even reveal it exists.
            const std::string name =
                req.path.substr(9, req.path.size() - 21);
            if (req.method != "POST") {
                reply = errorReply(
                    405, "method",
                    "use POST /devices/<name>/calibration");
            } else {
                reply.body = handleCalibration(name, req);
            }
        } else if (req.path == "/debug/sleep" && opts_.debugEndpoints) {
            if (req.method != "POST") {
                reply = errorReply(405, "method", "use POST /debug/sleep");
            } else {
                int ms = intParam(req.queryParam("ms", "100"), "ms");
                if (ms > 60000)
                    ms = 60000;
                // Sleep in slices so shutdown is not held hostage.
                for (int slept = 0; slept < ms && !stopping_.load();
                     slept += 50) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                }
                reply.body = format("{\"slept_ms\": %d}", ms);
            }
        } else {
            reply = errorReply(404, "not_found",
                               "unknown path '" + req.path + "'");
        }
    } catch (const DeadlineExceeded &e) {
        deadlineMisses_.fetch_add(1, std::memory_order_relaxed);
        reply = errorReply(504, "deadline", e.what());
    } catch (const FatalError &e) {
        // Unusable input: the 4xx class qompressd promises for every
        // FatalError the library throws (bad QASM, unknown strategy,
        // circuit that cannot fit, ...).
        reply = errorReply(400, "fatal", e.what());
    } catch (const PanicError &e) {
        reply = errorReply(500, "panic", e.what());
    } catch (const std::exception &e) {
        reply = errorReply(500, "internal", e.what());
    }

    if (reply.status >= 200 && reply.status < 300)
        ok_.fetch_add(1, std::memory_order_relaxed);
    else if (reply.status >= 400 && reply.status < 500)
        clientErrors_.fetch_add(1, std::memory_order_relaxed);
    else if (reply.status >= 500)
        serverErrors_.fetch_add(1, std::memory_order_relaxed);
    return httpResponse(reply.status, reply.body, "application/json",
                        req.keepAlive(), reply.headers);
}

std::string
QompressServer::handleCompile(const HttpRequest &req)
{
    const auto t0 = Clock::now();

    // Deadline: query beats header beats the server default. A given
    // value must be a plain decimal within a day either way; 0 expires
    // immediately, negative disables.
    const auto q = req.query.find("deadline_ms");
    const auto h = req.headers.find("x-deadline-ms");
    const bool given = q != req.query.end() || h != req.headers.end();
    const double deadlineMs = !given ? opts_.defaultDeadlineMs
        : parseRealFlag(q != req.query.end() ? q->second : h->second,
                        "deadline_ms", -864e5, 864e5);
    const bool hasDeadline =
        given ? deadlineMs >= 0.0 : opts_.defaultDeadlineMs > 0.0;

    const std::string strategy = req.queryParam("strategy", "eqm");
    const std::string topoKind = req.queryParam("topology", "grid");
    const std::string device = req.queryParam("device", "");
    const bool fullCompile = req.queryParam("full", "0") == "1";

    // Assemble the batch: one inline-QASM circuit (POST) or one
    // registry circuit per requested size (GET family batch).
    std::vector<Circuit> circuits;
    if (req.method == "POST") {
        QFATAL_IF(req.body.empty(), "empty request body (expected "
                  "an OpenQASM 2.0 program)");
        circuits.push_back(parseQasm(req.body, "request"));
    } else if (req.method == "GET") {
        const std::string family = req.queryParam("family", "");
        QFATAL_IF(family.empty(),
                  "GET /compile requires family=<name> (or POST a QASM "
                  "body)");
        const BenchmarkFamily &fam = benchmarkFamily(family);
        std::string sizes = req.queryParam("sizes", "");
        if (sizes.empty())
            sizes = req.queryParam("size", "");
        QFATAL_IF(sizes.empty(), "family request needs size=N or "
                  "sizes=N,M,...");
        for (const std::string &tok : split(sizes, ',')) {
            const int size = intParam(tok, "size");
            QFATAL_IF(size < 1 || size > kMaxFamilySize,
                      "family size ", size, " out of range [1, ",
                      kMaxFamilySize, "]");
            circuits.push_back(fam.make(size));
        }
    } else {
        QFATAL("use POST /compile (inline QASM) or GET /compile "
               "(registry family)");
    }

    std::vector<CompileRequest> reqs;
    std::vector<std::string> names;
    reqs.reserve(circuits.size());
    names.reserve(circuits.size());
    for (Circuit &c : circuits) {
        names.push_back(req.method == "POST" ? "request" : c.name());
        CompileRequest r = [&] {
            if (!device.empty()) {
                // Registered device: topology and calibration resolve
                // inside the service against the live registry.
                return CompileRequest::forDevice(std::move(c), device,
                                                 strategy);
            }
            int units = c.numQubits();
            const std::string u = req.queryParam("units", "");
            if (!u.empty())
                units = intParam(u, "units");
            QFATAL_IF(units < 1 || units > opts_.maxUnits,
                      "topology size ", units, " out of range [1, ",
                      opts_.maxUnits, "]");
            return CompileRequest::forCircuit(
                std::move(c), Topology::sized(topoKind, units), strategy);
        }();
        r.fullCompile = fullCompile;
        reqs.push_back(std::move(r));
    }
    const std::size_t n = reqs.size();

    // Inline lanes (threads = 1): compile concurrency is the worker
    // pool, so one network request never fans out under another.
    std::vector<CompileHandle> handles =
        service_.submitBatch(std::move(reqs), 1);

    std::vector<std::string> rows;
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const CompileArtifact art = handles[i].get(); // may rethrow
        rows.push_back(resultJson(names[i], strategy, *art));
    }

    if (hasDeadline && elapsedMs(t0) > deadlineMs) {
        throw DeadlineExceeded(
            format("deadline of %.1f ms exceeded after %.1f ms",
                   deadlineMs, elapsedMs(t0)));
    }

    if (n == 1 && req.method == "POST")
        return rows[0];
    return "{\"results\": [" + join(rows, ", ") + "]}";
}

std::string
QompressServer::devicesJson() const
{
    std::vector<std::string> rows;
    for (const DeviceInfo &d : service_.devices().info()) {
        rows.push_back(format(
            "{\"name\": \"%s\", \"units\": %d, \"edges\": %d, "
            "\"calibrated\": %s, \"calVersion\": %llu}",
            jsonEscape(d.name).c_str(), d.units, d.edges,
            d.calibrated ? "true" : "false",
            static_cast<unsigned long long>(d.calVersion)));
    }
    return "{\"devices\": [" + join(rows, ", ") + "]}";
}

std::string
QompressServer::handleCalibration(const std::string &name,
                                  const HttpRequest &req)
{
    QFATAL_IF(req.body.empty(), "empty request body (expected a qcal "
              "calibration record)");
    DeviceCalibration cal =
        DeviceCalibration::parse(req.body, "request body");
    const std::uint64_t version =
        service_.devices().setCalibration(name, std::move(cal));
    return format("{\"device\": \"%s\", \"calVersion\": %llu}",
                  jsonEscape(name).c_str(),
                  static_cast<unsigned long long>(version));
}

ServerStats
QompressServer::stats() const
{
    ServerStats s;
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.requests = requests_.load(std::memory_order_relaxed);
    s.ok = ok_.load(std::memory_order_relaxed);
    s.clientErrors = clientErrors_.load(std::memory_order_relaxed);
    s.serverErrors = serverErrors_.load(std::memory_order_relaxed);
    s.deadlineMisses = deadlineMisses_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(qmu_);
        s.queueDepth = queue_.size();
    }
    s.latency = latency_.snapshot();
    return s;
}

std::string
QompressServer::metricsJson() const
{
    const ServerStats sv = stats();
    const ServiceStats st = service_.stats();
    // Per-device rows (name -> units/calibrated/calVersion) so a
    // scraper can watch a calibration land without a second endpoint.
    std::vector<std::string> devrows;
    for (const DeviceInfo &d : service_.devices().info()) {
        devrows.push_back(format(
            "\"%s\": {\"units\": %d, \"calibrated\": %s, "
            "\"calVersion\": %llu}",
            jsonEscape(d.name).c_str(), d.units,
            d.calibrated ? "true" : "false",
            static_cast<unsigned long long>(d.calVersion)));
    }
    const std::string devices = join(devrows, ", ");
    // Service keys mirror the ServiceStats field names verbatim so
    // scrapers (bench_loadgen --check, dashboards) match the header.
    return format(
        "{\n"
        "  \"server\": {\"accepted\": %llu, \"shed\": %llu, "
        "\"requests\": %llu, \"ok\": %llu, \"clientErrors\": %llu, "
        "\"serverErrors\": %llu, \"deadlineMisses\": %llu, "
        "\"queueDepth\": %zu, \"workers\": %d, \"maxQueue\": %zu},\n"
        "  \"latency\": {\"count\": %llu, \"mean_us\": %.1f, "
        "\"p50_us\": %.1f, \"p99_us\": %.1f, \"max_us\": %.1f},\n"
        "  \"service\": {\"requests\": %llu, \"hits\": %llu, "
        "\"misses\": %llu, \"coalesced\": %llu, \"evictions\": %llu, "
        "\"cacheSize\": %zu, \"cacheCapacity\": %zu, "
        "\"templateHits\": %llu, \"templateMisses\": %llu, "
        "\"templateEvictions\": %llu, \"templateSize\": %zu, "
        "\"templateCapacity\": %zu, \"diskHits\": %llu, "
        "\"diskWrites\": %llu, \"sizeEvictions\": %llu, "
        "\"bytesInUse\": %zu, \"bytesCapacity\": %zu, "
        "\"storeRecords\": %zu, \"storeBytes\": %llu, "
        "\"storeErrors\": %llu, \"degradedSkips\": %llu, "
        "\"recoveries\": %llu, \"tierState\": \"%s\", "
        "\"contextsCreated\": %llu, "
        "\"contextsReused\": %llu, \"pooledContexts\": %zu},\n"
        "  \"devices\": {%s}\n"
        "}\n",
        static_cast<unsigned long long>(sv.accepted),
        static_cast<unsigned long long>(sv.shed),
        static_cast<unsigned long long>(sv.requests),
        static_cast<unsigned long long>(sv.ok),
        static_cast<unsigned long long>(sv.clientErrors),
        static_cast<unsigned long long>(sv.serverErrors),
        static_cast<unsigned long long>(sv.deadlineMisses),
        sv.queueDepth, opts_.workers, opts_.maxQueue,
        static_cast<unsigned long long>(sv.latency.count),
        sv.latency.mean_us, sv.latency.p50_us, sv.latency.p99_us,
        sv.latency.max_us,
        static_cast<unsigned long long>(st.requests),
        static_cast<unsigned long long>(st.hits),
        static_cast<unsigned long long>(st.misses),
        static_cast<unsigned long long>(st.coalesced),
        static_cast<unsigned long long>(st.evictions), st.cacheSize,
        st.cacheCapacity,
        static_cast<unsigned long long>(st.templateHits),
        static_cast<unsigned long long>(st.templateMisses),
        static_cast<unsigned long long>(st.templateEvictions),
        st.templateSize, st.templateCapacity,
        static_cast<unsigned long long>(st.diskHits),
        static_cast<unsigned long long>(st.diskWrites),
        static_cast<unsigned long long>(st.sizeEvictions),
        st.bytesInUse, st.bytesCapacity, st.storeRecords,
        static_cast<unsigned long long>(st.storeBytes),
        static_cast<unsigned long long>(st.storeErrors),
        static_cast<unsigned long long>(st.degradedSkips),
        static_cast<unsigned long long>(st.recoveries),
        diskTierStateName(st.tierState),
        static_cast<unsigned long long>(st.contextsCreated),
        static_cast<unsigned long long>(st.contextsReused),
        st.pooledContexts, devices.c_str());
}

} // namespace qompress
